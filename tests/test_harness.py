import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ergoxeb import analytic, harness
from ergoxeb.estimators import SchemeFunction
from ergoxeb.harness import (
    ScanConfig,
    config_hash,
    run_depolarizing_recovery,
    run_ergodicity_scan,
    write_scan_result,
)
from ergoxeb.noise import NoiseModel
from ergoxeb.statevector import SystemDims, save_programs
from ergoxeb.ensembles import (
    EnsembleSpec,
    haar_sample_values,
    member_probs,
    mix64,
    sample_member,
)


def test_scan_row_counts_and_fields():
    cfg = ScanConfig(n_range=(4, 5), instances=3, T=0, base_seed=1)
    result = run_ergodicity_scan(cfg)
    assert len(result.rows) == 6
    assert len(result.summary) == 2
    assert {r["n"] for r in result.rows} == {4, 5}
    row = result.rows[0]
    for key in ("scheme", "deviation", "threshold", "verdict", "instance"):
        assert key in row
    assert result.summary[0]["violation_rate"] <= 1.0


def test_scan_fidelity_column():
    cfg = ScanConfig(
        n_range=(6,), instances=2, scheme=SchemeFunction.monomial(2),
        noise=NoiseModel.depolarizing(0.5), T=0, base_seed=2,
    )
    result = run_ergodicity_scan(cfg)
    for row in result.rows:
        assert row["f_hat"] is not None
        assert 0.0 <= row["f_hat"] <= 1.2


@pytest.mark.parametrize("noise", [NoiseModel.noiseless(),
                                   NoiseModel.depolarizing(0.95)])
def test_scan_mean_f_hat_unbiased(noise):
    # f_hat inverts the signed DE, so instances whose C_f lies above the
    # Haar mean read above 1 and the mean is unbiased up to F = 1
    cfg = ScanConfig(n_range=(10,), instances=400, T=0, base_seed=5,
                     scheme=SchemeFunction.monomial(2), noise=noise)
    f_hat = np.array([r["f_hat"] for r in run_ergodicity_scan(cfg).rows])
    se = f_hat.std(ddof=1) / math.sqrt(f_hat.size)
    assert abs(f_hat.mean() - noise.F) <= 5 * se


def test_f_hat_above_one_where_c_f_exceeds_the_haar_mean():
    # Q proportional to P^2 weights the likely bitstrings more than P does
    dims = SystemDims(8)
    P = member_probs(EnsembleSpec("haar", dims, base_seed=mix64(3, 8)), 0)
    noise = NoiseModel.custom(0.0, P**2 / np.sum(P**2))
    cfg = ScanConfig(n_range=(8,), instances=1, T=0, base_seed=3,
                     scheme=SchemeFunction.monomial(2), noise=noise)
    row = run_ergodicity_scan(cfg).rows[0]
    assert row["c_f_estimate"] > row["haar_mean"]
    assert row["f_hat"] > 1.0


@pytest.mark.parametrize("scheme", [SchemeFunction.plogp(),
                                    SchemeFunction.neglog()])
def test_scan_leaves_f_hat_empty_for_logarithmic_schemes(scheme):
    cfg = ScanConfig(n_range=(4,), instances=2, T=0, scheme=scheme,
                     noise=NoiseModel.depolarizing(0.5), base_seed=2)
    assert [r["f_hat"] for r in run_ergodicity_scan(cfg).rows] == [None] * 2


@pytest.mark.parametrize("T", [0, 3000])
def test_scan_fidelity_same_for_plain_and_normalized(T):
    def f_hats(scheme):
        cfg = ScanConfig(n_range=(5, 6), instances=3, scheme=scheme,
                         noise=NoiseModel.depolarizing(0.4), T=T, base_seed=4)
        return [row["f_hat"] for row in run_ergodicity_scan(cfg).rows]

    # the deviations differ by rounding only: (m - c)/norm vs m/norm - c/norm
    for i in (2, 3, 4, 5):
        assert f_hats(SchemeFunction.normalized_monomial(i)) == pytest.approx(
            f_hats(SchemeFunction.monomial(i)), rel=0, abs=1e-12
        )


def test_scan_deterministic_outputs(tmp_path):
    cfg = ScanConfig(n_range=(4,), instances=2, T=100, base_seed=3)
    paths_a = write_scan_result(run_ergodicity_scan(cfg), tmp_path / "a")
    paths_b = write_scan_result(run_ergodicity_scan(cfg), tmp_path / "b")
    for pa, pb in zip(paths_a, paths_b):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()


@pytest.mark.parametrize("mode", ["exact", "porter_thomas"])
def test_scan_computes_haar_reference_once_per_n(monkeypatch, mode):
    # the Haar mean and sigma depend only on (scheme, N, mode) and are
    # cached: 3 polygamma calls per qubit count for an exact neglog pair
    analytic.haar_mean_of_scheme.cache_clear()
    analytic.sigma_of_scheme.cache_clear()
    calls = []
    original = analytic.polygamma

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analytic, "polygamma", counting)
    cfg = ScanConfig(n_range=(5, 6, 7), instances=4, T=0, base_seed=2,
                     mean_mode=mode)
    result = run_ergodicity_scan(cfg)
    assert len(calls) == (9 if mode == "exact" else 3)
    for row in result.rows:
        N = row["N"]
        scheme = SchemeFunction.neglog()
        assert row["haar_mean"] == scheme.haar_mean(N, mode)
        assert row["threshold"] == 10.0 * scheme.sigma(N, mode) / np.sqrt(N)


def test_config_hash_sensitivity():
    a = ScanConfig(n_range=(4,), base_seed=0).to_dict()
    b = ScanConfig(n_range=(4,), base_seed=1).to_dict()
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(dict(reversed(list(a.items()))))


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(instances=0)
    with pytest.raises(ValueError):
        ScanConfig(n_range=())


@pytest.mark.parametrize("n_range", [(20, 21, 22, 23, 24, 25), (0, 1),
                                     (-3,), (30,)])
def test_scan_config_refuses_qubit_counts_outside_1_to_the_cap(n_range):
    # refused on construction, before any instance is simulated
    with pytest.raises(ValueError) as exc:
        ScanConfig(n_range=n_range, ensemble="brickwork", depth=20)
    assert str(exc.value) == (f"n_range: expected 1 <= n <= 24 for every n, "
                              f"got {min(n_range)}..{max(n_range)}")
    assert ScanConfig(n_range=(1, 24)).n_range == (1, 24)


def test_violation_rate_wrapper():
    cfg = ScanConfig(n_range=(5,), instances=120, T=0, alpha=10.0,
                     base_seed=4)
    result = run_ergodicity_scan(cfg)
    violations = sum(r["verdict"] == "violated" for r in result.rows)
    assert result.summary[0]["violation_rate"] == violations / 120
    assert violations / 120 <= 1.0 / 100.0  # Chebyshev bound 1/alpha^2


def test_depolarizing_recovery_small():
    rows = run_depolarizing_recovery(
        [0.5], [2], n=8, T=20_000, instances=200, base_seed=12
    )
    assert abs(rows[0]["f_hat"] - 0.5) < 0.05


# Rows of run_depolarizing_recovery([0.3, 0.9], [2, 3], n=10, T=3700,
# instances=37, base_seed=5), with Haar values from the Dirichlet urn
# (ensembles.haar_sample_values) in chunks of 20 instances: (fidelity,
# degree, c_f_pooled, std_error, deviation, f_hat, f_hat_se).
_RECOVERY_GOLDEN = [
    (0.3, 2, 1.2909509678768267, 0.018952405112796302, 0.7070978126109781,
     0.2915197869733601, 0.018989457713212327),
    (0.3, 3, 3.12587302919656, 0.09076538150422371, 2.8565888164745283,
     0.28305906798768987, 0.022780113411772607),
    (0.9, 2, 1.8981359881205213, 0.019561250202174835, 0.09991279236728356,
     0.8998918747053122, 0.019599493115571073),
    (0.9, 3, 5.543321853818856, 0.13803134463934263, 0.4391399918522323,
     0.8897855255797803, 0.03464283004327343),
]


def test_depolarizing_recovery_golden_rows():
    rows = run_depolarizing_recovery([0.3, 0.9], [2, 3], n=10, T=3700,
                                     instances=37, base_seed=5)
    keys = ("fidelity", "degree", "c_f_pooled", "std_error", "deviation",
            "f_hat", "f_hat_se")
    assert [tuple(r[k] for k in keys) for r in rows] == _RECOVERY_GOLDEN
    for r in rows:
        assert (r["n"], r["T"], r["instances"]) == (10, 3700, 37)


def _chunk_means(N, per, sizes, base_seed, F, i):
    """Per-instance means of the monomial-i g, chunk c drawn by
    haar_sample_values from PCG64(mix64(base_seed, 62_000 + c))."""
    means = []
    for c, size in enumerate(sizes):
        rng = np.random.Generator(
            np.random.PCG64(mix64(base_seed, 62_000 + c)))
        u, ps, pu = haar_sample_values(N, size, per, rng)
        pvals = np.where(u < F, ps, pu)
        means.append(SchemeFunction.monomial(i).g(pvals, N).mean(axis=1))
    return np.concatenate(means)


@pytest.mark.parametrize("rows_per_chunk", [1, 3, 36, 37, 64])
def test_depolarizing_recovery_pools_every_chunk(monkeypatch,
                                                  rows_per_chunk):
    # 37 instances: one-row chunks, a short last chunk (37 = 12 * 3 + 1 and
    # 36 + 1), one full chunk, and a chunk larger than the run
    monkeypatch.setattr(harness, "_CHUNK_DRAWS", rows_per_chunk * 100)
    rows = run_depolarizing_recovery([0.3, 0.9], [2, 3], n=10, T=3700,
                                     instances=37, base_seed=5)
    full, last = divmod(37, rows_per_chunk)
    sizes = [rows_per_chunk] * full + ([last] if last else [])
    for r in rows:
        means = _chunk_means(1024, 100, sizes, 5, r["fidelity"], r["degree"])
        assert r["c_f_pooled"] == float(means.mean())
        assert r["std_error"] == float(means.std(ddof=1) / np.sqrt(37))


def test_depolarizing_recovery_matches_one_row_sampler():
    # The last instance of a run opens a second 20-instance chunk at 100
    # draws per instance.  Its mean g(P) from a one-row sampler call is what
    # it adds to the pooled sum.
    (expected,) = _chunk_means(1024, 100, [20, 1], 5, 0.9, 3)[20:]
    more, fewer = (
        run_depolarizing_recovery([0.9], [3], n=10, T=100 * k, instances=k,
                                  base_seed=5)[0]["c_f_pooled"]
        for k in (21, 20)
    )
    assert 21 * more - 20 * fewer == pytest.approx(expected, rel=1e-12,
                                                    abs=0)


def test_depolarizing_recovery_every_fidelity_draws_the_same_uniforms(
        monkeypatch):
    # one sampler call per chunk serves every fidelity: F = 1 reads only
    # the signal draws and F = 0.2 switches the draws with u < 0.2 to them
    calls = []

    def recording(N, instances, per, rng):
        calls.append((N, instances, per))
        return haar_sample_values(N, instances, per, rng)

    monkeypatch.setattr(harness, "haar_sample_values", recording)
    rows = run_depolarizing_recovery([0.2, 0.6, 1.0], [2], n=10, T=5000,
                                     instances=50, base_seed=7)
    assert calls == [(1024, 20, 100), (1024, 20, 100), (1024, 10, 100)]
    for r in rows:
        means = _chunk_means(1024, 100, [20, 20, 10], 7, r["fidelity"], 2)
        assert r["c_f_pooled"] == float(means.mean())


def test_depolarizing_recovery_buffers_stay_small():
    # 20000 draws per instance make a chunk one instance, so the driver
    # works on a few 160-320 kB arrays at a time, not on 6.4 MB for all 40
    tracemalloc.start()
    try:
        run_depolarizing_recovery([0.5], [2], n=4, T=800_000, instances=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_depolarizing_recovery_at_40_qubits():
    # far beyond any N-vector: each F_hat within 5 of its own SE of F
    rows = run_depolarizing_recovery([0.3, 0.8], [2, 3], n=40, T=40_000,
                                     instances=400, base_seed=3)
    for r in rows:
        assert abs(r["f_hat"] - r["fidelity"]) <= 5 * r["f_hat_se"], r


@pytest.mark.parametrize("kwargs, message", [
    ({"instances": 0}, "at least two instances"),
    ({"instances": 1}, "at least two instances"),
    ({"degrees": [1]}, "degrees >= 2"),
    ({"degrees": [2, 0]}, "degrees >= 2"),
    ({"degrees": []}, "at least one degree"),
    ({"fidelities": []}, "at least one fidelity"),
    ({"fidelities": [0.5, 1.5]}, "fidelity must lie in"),
    ({"T": 0}, "positive multiple of instances=10"),
    ({"T": 5}, "positive multiple of instances=10"),
    ({"T": 105}, "T=105 must be a positive multiple"),
    ({"n": 0}, "qubit count 0 outside 1..62"),
    ({"n": 63}, "qubit count 63 outside 1..62"),
])
def test_depolarizing_recovery_rejects_bad_arguments(monkeypatch, kwargs,
                                                    message):
    def no_draws(N, instances, per, rng):
        raise AssertionError("an instance was drawn before the check")

    monkeypatch.setattr(harness, "haar_sample_values", no_draws)
    args = {"fidelities": [0.5], "degrees": [2], "n": 4, "T": 100,
            "instances": 10} | kwargs
    with pytest.raises(ValueError, match=message) as info:
        run_depolarizing_recovery(**args)
    assert "\n" not in str(info.value)


def test_fixed_scan_parses_file_once(tmp_path, monkeypatch):
    from ergoxeb import ensembles

    spec = EnsembleSpec("brickwork", SystemDims(3), depth=4, base_seed=14)
    path = tmp_path / "fixed.json"
    save_programs([sample_member(spec, i) for i in range(6)], path)
    original = ensembles.load_programs
    loads = []

    def load_programs(source):
        loads.append(source)
        return original(source)

    monkeypatch.setattr(ensembles, "load_programs", load_programs)
    cfg = ScanConfig(ensemble="fixed", n_range=(3,), instances=6,
                     source_path=str(path))
    assert len(run_ergodicity_scan(cfg).rows) == 6
    assert loads == [str(path)]


def test_write_scan_result_files(tmp_path):
    cfg = ScanConfig(n_range=(4,), instances=2, T=0, base_seed=13)
    csv_path, json_path = write_scan_result(
        run_ergodicity_scan(cfg), tmp_path
    )
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0].startswith("scheme,")
    assert len(lines) == 3  # header + 2 instances
    doc = json.loads(Path(json_path).read_text())
    assert doc["config"]["n_range"] == [4]
    assert len(doc["summary"]) == 1
