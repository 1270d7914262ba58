import json
from pathlib import Path

import numpy as np
import pytest

from ergoxeb import estimators
from ergoxeb.cli import main
from ergoxeb.ensembles import EnsembleSpec, haar_state_probs, sample_member
from ergoxeb.estimators import linear_xeb, log_xeb
from ergoxeb.noise import (
    read_probabilities,
    read_samples,
    sample_bitstrings,
    write_probabilities,
    write_samples,
)
from ergoxeb.statevector import OutputDistribution, SystemDims, save_programs


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ergoxeb" in capsys.readouterr().out


def test_missing_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_scan_writes_expected_rows(tmp_path, capsys):
    code = main([
        "--seed", "3", "--out-dir", str(tmp_path),
        "scan", "--qubits", "6..8", "--instances", "4",
        "--scheme", "neglog",
    ])
    assert code == 0
    out = capsys.readouterr().out
    csv_path = [l.split()[-1] for l in out.splitlines() if l.endswith(".csv")]
    lines = Path(csv_path[0]).read_text().splitlines()
    assert len(lines) == 1 + 3 * 4  # header + (qubit counts x instances)
    summary = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
    doc = json.loads(summary[0].read_text())
    assert doc["config"]["n_range"] == [6, 7, 8]


def test_scan_reproducible(tmp_path):
    tail = ["scan", "--qubits", "5", "--instances", "3", "--samples", "200"]
    main(["--seed", "9", "--out-dir", str(tmp_path / "a")] + tail)
    main(["--seed", "9", "--out-dir", str(tmp_path / "b")] + tail)
    a = sorted((tmp_path / "a").iterdir())
    b = sorted((tmp_path / "b").iterdir())
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_scan_strict_exit_2_on_violation(tmp_path):
    code = main([
        "--out-dir", str(tmp_path),
        "scan", "--qubits", "8", "--instances", "2",
        "--scheme", "monomial2", "--noise", "completely-noisy",
        "--alpha", "1", "--strict",
    ])
    assert code == 2


def test_scan_depolarizing_requires_fidelity(tmp_path, capsys):
    code = main([
        "--out-dir", str(tmp_path),
        "scan", "--qubits", "4", "--noise", "depolarizing",
    ])
    assert code == 1
    assert "fidelity" in capsys.readouterr().err


def test_scan_unknown_scheme_suggests(tmp_path, capsys):
    code = main([
        "--out-dir", str(tmp_path),
        "scan", "--qubits", "4", "--scheme", "monomal2",
    ])
    assert code == 1
    assert "did you mean" in capsys.readouterr().err


def test_oracle_values(capsys):
    assert main(["oracle", "--covariance", "1", "1", "4"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(-0.0125)
    assert main(["oracle", "--moment", "1", "1", "4"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.05)
    assert main(["oracle", "--haar-mean", "monomial2", "4"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.6)
    assert main(["oracle", "--plogp-cov", "64"]) == 0
    assert float(capsys.readouterr().out) < 0.0


def _write_pair(tmp_path, n=6, T=5000, seed=21):
    rng = np.random.default_rng(seed)
    P = OutputDistribution(SystemDims(n), haar_state_probs(1 << n, rng))
    samples = sample_bitstrings(P, T, seed=seed + 1)
    probs_path = tmp_path / "p.csv"
    samples_path = tmp_path / "s.txt"
    write_probabilities(P, probs_path)
    write_samples(samples, samples_path)
    return probs_path, samples_path


def test_xeb_csv_output(tmp_path, capsys):
    probs_path, samples_path = _write_pair(tmp_path)
    code = main(["xeb", "--probs", str(probs_path),
                 "--samples", str(samples_path)])
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split(",", 1) for line in out.splitlines())
    assert fields["n"] == "6"
    assert fields["T"] == "5000"
    P, samples = read_probabilities(probs_path), read_samples(samples_path)
    lin = linear_xeb(P, samples)
    assert fields["f_xeb"] == f"{lin.F_hat:.12g}"
    assert fields["f_xeb_se"] == f"{lin.std_error:.12g}"
    # noiseless samples from the ideal distribution: F_XEB near 1
    assert abs(float(fields["f_xeb"]) - 1.0) < 0.3
    assert fields["log_xeb"] == f"{log_xeb(P, samples):.12g}"


def test_xeb_estimates_each_scheme_once(tmp_path, capsys, monkeypatch):
    probs_path, samples_path = _write_pair(tmp_path, seed=27)
    schemes = []
    estimate = estimators.estimate_C_f

    def counting_estimate(P, samples, scheme):
        schemes.append(scheme.name)
        return estimate(P, samples, scheme)

    monkeypatch.setattr(estimators, "estimate_C_f", counting_estimate)
    assert main(["xeb", "--probs", str(probs_path),
                 "--samples", str(samples_path)]) == 0
    assert schemes == ["monomial2", "plogp"]


def test_xeb_json_output(tmp_path, capsys):
    probs_path, samples_path = _write_pair(tmp_path, seed=23)
    code = main(["xeb", "--format", "json", "--probs", str(probs_path),
                 "--samples", str(samples_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["T"] == 5000
    assert "de_plogp" in doc


def test_xeb_zero_probability_reported(tmp_path, capsys):
    # P concentrated on one bitstring; samples include others
    dims = SystemDims(2)
    P = OutputDistribution(dims, np.array([1.0, 0.0, 0.0, 0.0]))
    probs_path = tmp_path / "p.csv"
    write_probabilities(P, probs_path)
    samples_path = tmp_path / "s.txt"
    samples_path.write_text("00\n10\n")
    code = main(["xeb", "--probs", str(probs_path),
                 "--samples", str(samples_path)])
    assert code == 0  # monomial summaries still valid
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (
        "log_xeb_error,sampled bitstring 10 has zero ideal probability; "
        "plogp estimator undefined"
    )


def test_xeb_bad_sample_length_exit_1(tmp_path, capsys):
    probs_path, samples_path = _write_pair(tmp_path, seed=25)
    samples_path.write_text("010101\n0101\n")
    code = main(["xeb", "--probs", str(probs_path),
                 "--samples", str(samples_path)])
    assert code == 1
    assert "length" in capsys.readouterr().err


def test_xeb_missing_file_exit_1(tmp_path, capsys):
    code = main(["xeb", "--probs", str(tmp_path / "nope.csv"),
                 "--samples", str(tmp_path / "nope.txt")])
    assert code == 1


_PROBS_OK = "bitstring,probability\n00,0.25\n01,0.25\n10,0.25\n11,0.25\n"


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, files", [
    (["scan", "--qubits", "2", "--fidelity", "0.5"], {}),
    (["scan", "--qubits", "2", "--noise", "completely-noisy",
      "--fidelity", "0.5"], {}),
    (["scan", "--qubits", "2", "--noise", "depolarizing"], {}),
    (["scan", "--qubits", "2", "--noise", "depolarizing",
      "--fidelity", "1.5"], {}),
    (["scan", "--qubits", "a"], {}),
    (["scan", "--qubits", "x"], {}),
    (["scan", "--qubits", "5.."], {}),
    (["scan", "--qubits", "2", "--alpha", "nan"], {}),
    (["scan", "--qubits", "2", "--alpha", "inf"], {}),
    (["scan", "--qubits", "30"], {}),
    (["scan", "--qubits", "2", "--samples", "-5"], {}),
    (["scan", "--qubits", "2", "--scheme", "monomial0"], {}),
    (["scan", "--qubits", "1", "--ensemble", "fixed",
      "--fixed-file", "g.json"], {"g.json": "[1, 2]"}),
    (["scan", "--qubits", "1", "--ensemble", "fixed",
      "--fixed-file", "g.json"], {"g.json": "not json"}),
    (["oracle", "--plogp-cov", "0"], {}),
    (["oracle", "--moment", "a", "1", "4"], {}),
    (["oracle", "--moment", "nan", "1", "4"], {}),
    (["oracle", "--moment", "1", "inf", "4"], {}),
    (["oracle", "--covariance", "inf", "1", "4"], {}),
    (["oracle", "--covariance", "1", "nan", "4"], {}),
    (["oracle", "--moment", "1", "1", "x"], {}),
    (["oracle", "--covariance", "1", "1", "1"], {}),
    (["oracle", "--haar-mean", "neglog", "x"], {}),
    (["oracle", "--haar-mean", "monomial2", "0"], {}),
    (["oracle", "--moment", "1", "1", "1" + "0" * 400], {}),
    (["xeb", "--alpha", "nan", "--probs", "p.csv", "--samples", "s.txt"],
     {"p.csv": _PROBS_OK, "s.txt": "00\n"}),
    (["xeb", "--probs", "p.csv", "--samples", "s.txt"],
     {"p.csv": _PROBS_OK.replace("01,0.25", "01,nan"), "s.txt": "00\n"}),
    (["xeb", "--probs", "p.csv", "--samples", "s.txt"],
     {"p.csv": "bitstring,probability\n0b,1\n", "s.txt": "00\n"}),
    (["xeb", "--probs", "p.csv", "--samples", "s.txt"],
     {"p.csv": "prob\n", "s.txt": "00\n"}),
    (["xeb", "--probs", "p.csv", "--samples", "s.txt"],
     {"p.csv": _PROBS_OK + "01,0.25\n", "s.txt": "00\n"}),
    (["xeb", "--probs", "p.csv", "--samples", "s.txt"],
     {"p.csv": "bitstring,probability\n00,0.5\n01,0.5\n", "s.txt": "00\n"}),
    (["xeb", "--probs", "p.csv", "--samples", "s.txt"],
     {"p.csv": _PROBS_OK, "s.txt": b"00\n\xff\xfe\n"}),
    (["xeb", "--probs", "p.csv", "--samples", "s.txt"],
     {"p.csv": _PROBS_OK, "s.txt": "00\n000\n"}),
    (["xeb", "--probs", "p.csv", "--samples", "s.txt"],
     {"p.csv": _PROBS_OK, "s.txt": ""}),
    (["xeb", "--probs", "p.csv", "--samples", "missing.txt"],
     {"p.csv": _PROBS_OK}),
    (["scan", "--qubits", "2", "--alpha", "-1"], {}),
    (["scan", "--qubits", "2", "--alpha", "0"], {}),
    (["scan", "--qubits", "2", "--depth", "7"], {}),
    (["scan", "--qubits", "2", "--ensemble", "pauli", "--depth", "3"], {}),
    (["scan", "--qubits", "2", "--fixed-file", "g.json"], {"g.json": "[]"}),
    (["scan", "--qubits", "2", "--ensemble", "brickwork",
      "--fixed-file", "g.json"], {"g.json": "[]"}),
])
def test_error_paths_exit_1_with_one_line(tmp_path, monkeypatch, capsys,
                                          argv, files):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    assert _exit_code(["--out-dir", str(tmp_path)] + argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("ergoxeb: error: ")


@pytest.mark.parametrize("argv, message", [
    (["scan", "--qubits", "5.."],
     "--qubits: expected N or LO..HI, got '5..'"),
    (["scan", "--qubits", "x"], "--qubits: expected N or LO..HI, got 'x'"),
    (["scan", "--qubits", "2", "--alpha", "nan"], "--alpha: "),
    (["xeb", "--alpha", "inf", "--probs", "p.csv", "--samples", "s.txt"],
     "unrecognized arguments: --alpha"),
    (["oracle", "--moment", "nan", "1", "4"], "--moment: "),
    (["oracle", "--covariance", "1", "inf", "4"], "--covariance: "),
    (["oracle", "--moment", "1", "1", "x"],
     "--moment: expected an integer N >= 2, got 'x'"),
    (["oracle", "--covariance", "1", "1", "1"],
     "--covariance: expected an integer N >= 2, got '1'"),
    (["oracle", "--haar-mean", "monomial2", "0"],
     "--haar-mean: expected an integer N >= 2, got '0'"),
    (["oracle", "--plogp-cov", "1"],
     "--plogp-cov: expected an integer N >= 4, got '1'"),
    (["oracle", "--plogp-cov", "3"],
     "--plogp-cov: expected an integer N >= 4, got '3'"),
    (["oracle", "--plogp-cov", "-8"],
     "--plogp-cov: expected an integer N >= 4, got '-8'"),
    (["oracle", "--plogp-cov", "4.5"],
     "--plogp-cov: expected an integer N >= 4, got '4.5'"),
    (["oracle", "--plogp-cov", "x"],
     "--plogp-cov: expected an integer N >= 4, got 'x'"),
    (["oracle", "--moment", "1", "1", "99999999999999999999"],
     "--moment: expected an integer N <= 16777216 (2^24), "
     "got '99999999999999999999'"),
    (["oracle", "--covariance", "1", "1", "67108864"],
     "--covariance: expected an integer N <= 16777216 (2^24), "
     "got '67108864'"),
    (["oracle", "--haar-mean", "neglog", "16777217"],
     "--haar-mean: expected an integer N <= 16777216 (2^24), "
     "got '16777217'"),
    (["oracle", "--plogp-cov", "33554432"],
     "--plogp-cov: expected an integer N <= 16777216 (2^24), "
     "got '33554432'"),
    (["scan", "--qubits", "2", "--alpha", "-1"],
     "--alpha: expected a number > 0, got -1.0"),
    (["scan", "--qubits", "2", "--depth", "7"],
     "--depth applies only to --ensemble brickwork"),
    (["scan", "--qubits", "2", "--fixed-file", "g.json"],
     "--fixed-file applies only to --ensemble fixed"),
    (["scan", "--qubits", "4", "--ensemble", "brickwork", "--depth", "-3"],
     "--depth: expected an integer >= 0, got -3"),
    (["scan", "--qubits", "2", "--instances", "0"],
     "--instances: expected an integer >= 1, got 0"),
    (["scan", "--qubits", "2", "--samples", "-5"],
     "--samples: expected an integer >= 0, got -5"),
    (["scan", "--qubits", "2", "--ensemble", "fixed"],
     "--ensemble fixed requires --fixed-file"),
    (["oracle", "--covariance", "0", "1", "4"],
     "--covariance: expected Q1, Q2 > 0, got 0 1"),
    (["oracle", "--moment", "1", "-1", "4"],
     "--moment: expected Q1 > 0 and Q2 >= 0, got 1 -1"),
])
def test_flag_errors_name_the_flag(tmp_path, capsys, argv, message):
    assert _exit_code(["--out-dir", str(tmp_path)] + argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"ergoxeb: error: {message}")


def test_scan_brickwork_depth_0_means_5n(tmp_path, capsys):
    csv = []
    for depth in ([], ["--depth", "0"], ["--depth", "15"]):
        out = tmp_path / str(len(csv))
        assert main(["--out-dir", str(out), "scan", "--qubits", "3",
                     "--ensemble", "brickwork", "--instances", "2"]
                    + depth) == 0
        csv.append(next(out.glob("*.csv")).read_bytes())
    assert csv[0] == csv[1] == csv[2]


def test_oracle_accepts_largest_dimension(capsys):
    assert main(["oracle", "--covariance", "1", "1", "16777216"]) == 0
    assert float(capsys.readouterr().out) < 0.0


def test_scan_fixed_file_qubit_mismatch_names_file(tmp_path, capsys):
    spec = EnsembleSpec("brickwork", SystemDims(3), depth=2, base_seed=1)
    path = tmp_path / "p3.json"
    save_programs([sample_member(spec, i) for i in range(2)], path)
    code = main(["--out-dir", str(tmp_path), "scan", "--ensemble", "fixed",
                 "--fixed-file", str(path), "--qubits", "4",
                 "--instances", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err == (f"ergoxeb: error: {path}: program 0 acts on 3 qubits, "
                   "expected 4\n")


@pytest.mark.parametrize("argv", [
    [],
    ["frob"],
    ["--bogus", "oracle", "--plogp-cov", "4"],
    ["scan"],
    ["scan", "--qubits", "2", "--noise", "loud"],
    ["scan", "--qubits", "2", "--instances", "x"],
    ["--format", "json", "xeb", "--probs", "p.csv", "--samples", "s.txt"],
])
def test_argparse_errors_exit_1_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("ergoxeb") and ": error: " in err
