import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ergoxeb
from ergoxeb import cli, estimators
from ergoxeb.cli import main
from ergoxeb.ensembles import EnsembleSpec, haar_state_probs, sample_member
from ergoxeb.estimators import linear_xeb, log_xeb
from ergoxeb.harness import ScanConfig, run_ergodicity_scan, write_scan_result
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
    # E[(N P)^50] at N = 2^24 is a float, though N^50 is not;
    # E[(N P)^300] at N = 1024 is past the float range itself
    assert main(["oracle", "--haar-mean", "monomial50", "16777216"]) == 0
    assert capsys.readouterr().out == "3.0411872578972163e+64\n"
    assert main(["oracle", "--haar-mean", "monomial300", "1024"]) == 1
    assert capsys.readouterr().err == (
        "ergoxeb: error: monomial300 at N=1024: E[(N P)^300] is past the "
        "float range\n"
    )


def test_oracle_polynomial_haar_mean(capsys):
    # E[(N P)^k] = k! N^k / (N (N+1) ... (N+k-1)) at N = 1024; the mean
    # of (N p)^2 - (N p)^3 / 5 is that exact rational, rounded once
    N = 1024

    def moment(k):
        return Fraction(math.factorial(k) * N**k, math.prod(range(N, N + k)))

    assert main(["oracle", "--haar-mean", "poly:0,1,-1/5", str(N)]) == 0
    value = float(capsys.readouterr().out)
    assert value == float(moment(2) - moment(3) / 5)
    assert main(["oracle", "--haar-mean", "normalized-monomial4",
                 str(N)]) == 0
    assert float(capsys.readouterr().out) == float(moment(4) / 18)


def test_scan_past_the_float_range_names_scheme_and_N(tmp_path, capsys):
    # E[(N P)^70] at N = 2^16 is a float, but the factor N^69 of its g is
    # not
    argv = ["--out-dir", str(tmp_path), "scan", "--qubits", "16",
            "--instances", "1", "--scheme", "monomial70"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "ergoxeb: error: monomial70 at N=65536: N^69 is past the float "
        "range\n"
    )


def test_porter_thomas_scan_past_degree_20(tmp_path, capsys):
    argv = ["--out-dir", str(tmp_path), "scan", "--qubits", "4",
            "--instances", "2", "--scheme", "monomial21",
            "--haar-mean-mode", "porter_thomas"]
    assert main(argv) == 0
    (csv_path,) = tmp_path.glob("*.csv")
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert [r["haar_mean"] for r in rows] == [
        format(float(math.factorial(21)), ".12g")] * 2


def test_polynomial_scan_rows(tmp_path, capsys):
    # the poly: name holds commas, so its CSV cell is quoted; a vector of
    # degree <= 1 has a vanishing depolarizing scale and no f_hat
    for name, has_f_hat in (("poly:0,1,-1/5", True), ("poly:3/2", False)):
        out = tmp_path / name.replace("/", "_")
        argv = ["--out-dir", str(out), "scan", "--qubits", "3",
                "--instances", "2", "--scheme", name, "--noise",
                "depolarizing", "--fidelity", "0.4"]
        assert main(argv) == 0
        (csv_path,) = out.glob("*.csv")
        rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
        assert [r["scheme"] for r in rows] == [name] * 2
        assert all(bool(r["f_hat"]) == has_f_hat for r in rows)


@pytest.mark.parametrize("spelling, message", [
    ("poly:", "coefficient '' is not an integer, a decimal or a ratio a/b"),
    ("poly:0,0", "polynomial scheme needs a nonzero coefficient"),
    ("poly:x", "coefficient 'x' is not an integer"),
    ("poly:1/0", "coefficient '1/0' is not an integer"),
    ("poly:nan", "coefficient 'nan' is not an integer"),
    ("poly:0." + "0" * 400 + "1",
     "the common denominator of its coefficients is past the float range"),
])
def test_malformed_polynomial_exits_1_with_one_line(tmp_path, capsys,
                                                    spelling, message):
    for argv in (["scan", "--qubits", "2", "--scheme", spelling],
                 ["oracle", "--haar-mean", spelling, "16"]):
        assert main(["--out-dir", str(tmp_path)] + argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("ergoxeb: error: ") and message in err
    assert not list(tmp_path.iterdir())


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
    P = read_probabilities(probs_path)
    samples = read_samples(samples_path, P.dims)
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

    def counting_estimate(P, samples, scheme, pvals=None):
        schemes.append(scheme.name)
        return estimate(P, samples, scheme, pvals)

    monkeypatch.setattr(estimators, "estimate_C_f", counting_estimate)
    assert main(["xeb", "--probs", str(probs_path),
                 "--samples", str(samples_path)]) == 0
    assert schemes == ["monomial2", "plogp"]


def test_xeb_gathers_the_samples_once(tmp_path, capsys, monkeypatch):
    # both schemes read P at the samples from one gather
    probs_path, samples_path = _write_pair(tmp_path, seed=27)
    assert main(["xeb", "--probs", str(probs_path),
                 "--samples", str(samples_path)]) == 0
    expected = capsys.readouterr().out
    gathers = []
    for owner in (cli, estimators):
        original = owner.sampled_probabilities

        def counting(P, samples, original=original):
            gathers.append(samples.T)
            return original(P, samples)

        monkeypatch.setattr(owner, "sampled_probabilities", counting)
    assert main(["xeb", "--probs", str(probs_path),
                 "--samples", str(samples_path)]) == 0
    assert gathers == [5000]
    assert capsys.readouterr().out == expected


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


@pytest.mark.parametrize("blank", ["", "\n \r\n\t\n"])
def test_xeb_samples_without_bitstrings_name_the_file(tmp_path, capsys,
                                                      blank):
    probs_path, samples_path = _write_pair(tmp_path, seed=26)
    samples_path.write_text(blank)
    code = main(["xeb", "--probs", str(probs_path),
                 "--samples", str(samples_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"ergoxeb: error: {samples_path}: no bitstrings found\n")


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
    (["scan", "--qubits", "1..99999999999"], {}),
    (["scan", "--qubits", "20..25", "--ensemble", "brickwork",
      "--depth", "20", "--instances", "3"], {}),
    (["scan", "--qubits", "1", "--ensemble", "fixed",
      "--fixed-file", "g.json"], {"g.json": "[" * 200_000}),
    (["scan", "--qubits", "1", "--ensemble", "fixed",
      "--fixed-file", "g.json"], {"g.json": '{"n": 1, "gates": []}'}),
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
     "--depth: expected an integer >= 1, got -3"),
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
    (["scan", "--qubits", "1..99999999999"],
     "--qubits: expected 1 <= LO <= HI <= 24, got '1..99999999999'"),
    (["scan", "--qubits", "20..25", "--ensemble", "brickwork",
      "--depth", "20", "--instances", "3"],
     "--qubits: expected 1 <= LO <= HI <= 24, got '20..25'"),
    (["scan", "--qubits", "0"],
     "--qubits: expected 1 <= LO <= HI <= 24, got '0'"),
    (["scan", "--qubits", "5..3"],
     "--qubits: expected 1 <= LO <= HI <= 24, got '5..3'"),
    (["scan", "--qubits", "4", "--ensemble", "brickwork", "--depth", "0"],
     "--depth: expected an integer >= 1, got 0"),
    (["scan", "--qubits", "2", "--scheme", "monomial0"],
     "scheme 'monomial0': degree must be >= 1"),
    (["oracle", "--haar-mean", "monomial0", "8"],
     "scheme 'monomial0': degree must be >= 1"),
    (["scan", "--qubits", "4", "--noise", "depolarizing",
      "--fidelity", "2"],
     "--fidelity: fidelity must lie in [0, 1], got 2.0"),
    (["scan", "--qubits", "4", "--noise", "depolarizing",
      "--fidelity", "-0.1"],
     "--fidelity: fidelity must lie in [0, 1], got -0.1"),
    (["scan", "--qubits", "4", "--noise", "depolarizing",
      "--fidelity", "nan"],
     "--fidelity: fidelity must lie in [0, 1], got nan"),
    (["scan", "--qubits", "4", "--noise", "depolarizing",
      "--fidelity", "inf"],
     "--fidelity: fidelity must lie in [0, 1], got inf"),
])
def test_flag_errors_name_the_flag(tmp_path, capsys, argv, message):
    assert _exit_code(["--out-dir", str(tmp_path)] + argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "Fraction(" not in err
    assert err.startswith(f"ergoxeb: error: {message}")


def test_huge_covariance_exponents_fail_at_once(tmp_path, capsys):
    # integrating up to 1e100 would take ~6e7 trigamma calls, minutes
    start = time.perf_counter()
    argv = ["oracle", "--covariance", "1e100", "1e100", "2"]
    assert _exit_code(["--out-dir", str(tmp_path)] + argv) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err == ("ergoxeb: error: need q1, q2 <= 2^20 N = 2.09715e+06, "
                   "got q1=1e+100, q2=1e+100\n")


def test_scan_brickwork_depth_0_means_5n(tmp_path, capsys):
    # the CLI without --depth and ScanConfig(depth=0) both run depth 5n;
    # an explicit --depth 0 is refused (test_flag_errors_name_the_flag)
    csv = []
    for depth in ([], ["--depth", "15"]):
        out = tmp_path / str(len(csv))
        assert main(["--out-dir", str(out), "scan", "--qubits", "3",
                     "--ensemble", "brickwork", "--instances", "2"]
                    + depth) == 0
        csv.append(next(out.glob("*.csv")).read_bytes())
    cfg = ScanConfig(ensemble="brickwork", n_range=(3,), instances=2,
                     depth=0)
    csv_path, _ = write_scan_result(run_ergodicity_scan(cfg), tmp_path / "2")
    csv.append(Path(csv_path).read_bytes())
    assert csv[0] == csv[1] == csv[2]


def test_oracle_accepts_largest_dimension(capsys):
    assert main(["oracle", "--covariance", "1", "1", "16777216"]) == 0
    assert float(capsys.readouterr().out) < 0.0


def test_oracle_moment_past_float_square_range_is_silent(capsys):
    # z * z in polygamma's series overflows past z ~ 1.3e154; the printed
    # 0 is right, and no numpy warning may reach stderr
    assert main(["oracle", "--moment", "1e308", "1", "4"]) == 0
    out, err = capsys.readouterr()
    assert float(out) == 0.0
    assert err == ""


def test_oracle_covariance_past_expm1_range(capsys):
    # the joint moment underflows and expm1 of the log ratio overflows
    # here; the value is mpmath's at 60 digits
    assert main(["oracle", "--covariance", "600", "600", "2"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(
        -2.768541615333291e-06, rel=1e-12, abs=0
    )


def test_benchmark_cli_paths_import_no_scipy(tmp_path):
    # scipy.special alone adds ~20 MiB and ~0.3 s to a run; the scan, xeb
    # and oracle paths the benchmark times must not import any of scipy
    probs_path, samples_path = _write_pair(tmp_path)
    out = str(tmp_path)
    runs = [
        ["--out-dir", out, "scan", "--qubits", "4", "--instances", "2",
         "--scheme", "neglog"],
        ["--out-dir", out, "scan", "--qubits", "4", "--instances", "2",
         "--ensemble", "brickwork", "--samples", "100",
         "--noise", "depolarizing", "--fidelity", "0.5"],
        ["xeb", "--probs", str(probs_path), "--samples", str(samples_path)],
        ["oracle", "--haar-mean", "plogp", "1024"],
        ["oracle", "--covariance", "0.5", "0.5", "1024"],
    ]
    script = (
        "import sys\n"
        "from ergoxeb.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])\n"
    )
    src = str(Path(ergoxeb.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_runtime_runs_without_scipy(tmp_path):
    # the package declares numpy as its only dependency: with scipy made
    # unimportable, every module imports and every command runs
    probs_path, samples_path = _write_pair(tmp_path)
    out = str(tmp_path)
    runs = [
        ["--out-dir", out, "scan", "--qubits", "4", "--instances", "2",
         "--scheme", "neglog"],
        ["--out-dir", out, "scan", "--qubits", "4", "--instances", "2",
         "--ensemble", "brickwork", "--samples", "100",
         "--noise", "depolarizing", "--fidelity", "0.5",
         "--scheme", "monomial3", "--haar-mean-mode", "porter_thomas"],
        ["xeb", "--probs", str(probs_path), "--samples", str(samples_path)],
        ["oracle", "--moment", "1.5", "2.5", "1024"],
        ["oracle", "--covariance", "0.5", "0.5", "1024"],
        ["oracle", "--plogp-cov", "1024"],
        ["oracle", "--haar-mean", "plogp", "1024"],
        ["oracle", "--haar-mean", "poly:0,1,-1/5", "1024"],
    ]
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import ergoxeb\n"
        "for info in pkgutil.walk_packages(ergoxeb.__path__, 'ergoxeb.'):\n"
        "    importlib.import_module(info.name)\n"
        "from ergoxeb.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = str(Path(ergoxeb.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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


_GOOD_PROGRAM = {"n": 2, "gates": [
    {"targets": [1], "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
]}


@pytest.mark.parametrize("bad, message", [
    ({"n": 2, "gate": []}, "unknown key 'gate'"),
    ({"n": 2, "gates": [], "unitary": [[[1, 0]]]}, "unknown key 'unitary'"),
    ({"gates": []}, "missing key 'n'"),
    ({"n": "2", "gates": []}, "n must be an integer, got '2'"),
    ({"n": 0, "gates": []}, "qubit count must be >= 1, got 0"),
    ({"n": 2, "gates": [{"targets": [0], "matrix": [[[1, 0], [0, 0]],
                                                    [[0, 0], [2, 0]]]}]},
     "gate block non-unitary"),
    ({"n": 2, "gates": [{"targets": [0], "matrix": [[[math.nan, 0], [0, 0]],
                                                    [[0, 0], [1, 0]]]}]},
     "gate block non-unitary"),
    ({"n": 2, "gates": [{"targets": [0], "matrix": [[[10**400, 0], [0, 0]],
                                                    [[0, 0], [1, 0]]]}]},
     "gate 0: int too large to convert to float"),
    ({"n": 2, "gates": [{"targets": [0], "matrix": [[[1, 0, 0], [0, 0]],
                                                    [[0, 0], [1, 0]]]}]},
     "gate 0: matrix entry [1, 0, 0] is not an [re, im] number pair"),
    ({"n": 2, "gates": [{"targets": [2], "matrix": [[[1, 0], [0, 0]],
                                                    [[0, 0], [1, 0]]]}]},
     "target qubit 2 out of range for n=2"),
    # JSON 1e400 reads as inf; the check's NaN must not leak a warning
    pytest.param(
        '{"n": 2, "gates": [{"targets": [0], "matrix": '
        '[[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]}]}',
        "gate block non-unitary: max |U^dag U - I| = nan",
        id="inf-entry",
    ),
    ({"n": 2, "gates": {}}, "gates must be a JSON list"),
    ({"n": 2, "gates": [{"targets": [0.0], "matrix": [[[1, 0], [0, 0]],
                                                      [[0, 0], [1, 0]]]}]},
     "gate 0: targets must be a list of integers"),
    ({"n": 2, "gates": [{"targets": [0], "matrix": [[[1, 0], [0, 0]]]}]},
     "gate 0: matrix must be a square list of rows"),
])
def test_scan_fixed_file_malformed_program_exits_1(tmp_path, capsys, bad,
                                                   message):
    # the bad program follows a good one, so its index is 1
    path = tmp_path / "programs.json"
    # a string is the bad program's raw JSON text
    text = bad if isinstance(bad, str) else json.dumps(bad)
    path.write_text(f"[{json.dumps(_GOOD_PROGRAM)}, {text}]")
    code = main(["--out-dir", str(tmp_path), "scan", "--ensemble", "fixed",
                 "--fixed-file", str(path), "--qubits", "2",
                 "--instances", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"ergoxeb: error: {path}: program 1: "), err
    assert message in err


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
