"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Verdict lines bypass pytest's capture so they stay visible in the terminal.
Every criterion asserts its stated tolerance.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ergoxeb import analytic
from ergoxeb.ensembles import (
    EnsembleSpec,
    design_moment_discrepancy,
    haar_state_probs,
    member_probs,
    mix64,
)
from ergoxeb.estimators import SchemeFunction, estimate_C_f, linear_xeb
from ergoxeb.harness import (
    ScanConfig,
    run_depolarizing_recovery,
    run_ergodicity_scan,
    write_scan_result,
)
from ergoxeb.noise import sample_bitstrings
from ergoxeb.statevector import OutputDistribution, SystemDims


def _verdict(capsys, num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_covariance_oracle(capsys):
    rng = np.random.Generator(np.random.PCG64(mix64(100, 2)))
    batches = np.array_split(haar_state_probs(4, rng, size=10**6)[:, :2], 10)
    # E[PxPy] and Cov: mean and standard error of their 10 batch values
    joint = np.array([np.mean(x[:, 0] * x[:, 1]) for x in batches])
    cov = joint - [np.mean(x[:, 0]) * np.mean(x[:, 1]) for x in batches]
    joint_mc, joint_se = joint.mean(), joint.std(ddof=1) / math.sqrt(10)
    cov_mc, cov_se = cov.mean(), cov.std(ddof=1) / math.sqrt(10)
    joint_ok = abs(joint_mc - 0.05) <= 4 * joint_se
    cov_ok = abs(cov_mc - (-0.0125)) <= 4 * cov_se
    _verdict(
        capsys, 1, joint_ok and cov_ok,
        f"N=4 1e6-sample MC: E[PxPy]={joint_mc:.6f} (target 0.05, "
        f"4SE={4 * joint_se:.2g}), Cov={cov_mc:.6f} "
        f"(target -0.0125, 4SE={4 * cov_se:.2g})",
    )


def test_criterion_02_covariance_negativity(capsys):
    rng = np.random.default_rng(200)
    worst = -math.inf
    for _ in range(1000):
        q1, q2 = rng.uniform(1e-9, 5.0, size=2)
        N = int(rng.integers(2, 257))
        worst = max(worst, analytic.haar_covariance(q1, q2, N))
    _verdict(
        capsys, 2, worst < 0.0,
        f"1000 random (q1,q2) in (0,5]^2, N in 2..256: max covariance "
        f"{worst:.3g} < 0",
    )


def test_criterion_03_replica_consistency(capsys):
    # replica: Cov of g_i(p) = (p^(1+i) - p)/i tends to that of p ln p as
    # i -> 0, a second difference of Haar covariances over i^2
    i, cov = 1e-4, analytic.haar_covariance
    rels = [
        abs((cov(1 + i, 1 + i, N) - 2.0 * cov(1 + i, 1.0, N)
             + cov(1.0, 1.0, N)) / (i * i) / analytic.plogp_covariance(N)
            - 1.0)
        for N in (8, 16, 64)
    ]
    # leading large-N form -(ln N + gamma - 2)^2 / N^3
    N = 1024
    asym = -(math.log(N) + np.euler_gamma - 2.0) ** 2 / N**3
    asym = abs(asym / analytic.plogp_covariance(N) - 1.0)
    ok = max(rels) <= 1e-3 and asym <= 0.10
    _verdict(
        capsys, 3, ok,
        f"replica i=1e-4 rel err max {max(rels):.2e} <= 1e-3; asymptotic "
        f"at N=1024 rel err {asym:.2e} <= 0.10",
    )


def test_criterion_04_chebyshev_bound(capsys):
    results = []
    ok = True
    for scheme in (SchemeFunction.monomial(1), SchemeFunction.monomial(2)):
        for alpha, bound_p in ((3.0, 1.0 / 9.0), (10.0, 0.01)):
            cfg = ScanConfig(
                ensemble="haar", n_range=(8,), instances=1000,
                scheme=scheme, alpha=alpha, T=0, base_seed=4242,
            )
            rows = run_ergodicity_scan(cfg).rows
            rate = sum(r["verdict"] == "violated" for r in rows) / 1000
            ok &= rate <= bound_p + 4 * math.sqrt(bound_p * (1 - bound_p)
                                                  / 1000)
            results.append(f"{scheme.name}/a={alpha:g}:{rate:.3f}")
    _verdict(
        capsys, 4, ok,
        "violation rates over 1000 Haar instances (n=8, exact C_f) "
        + " ".join(results) + " all within Chebyshev bound + 4 SE",
    )


def test_criterion_05_ergodicity_scaling(capsys):
    cfg = ScanConfig(
        ensemble="haar", n_range=tuple(range(6, 13)), instances=10,
        scheme=SchemeFunction.neglog(), alpha=10.0, T=0, base_seed=77,
    )
    result = run_ergodicity_scan(cfg)
    within = all(
        s["median_deviation"] <= s["threshold"] for s in result.summary
    )
    ns = np.array([s["n"] for s in result.summary], dtype=float)
    logs = np.log2([s["median_deviation"] for s in result.summary])
    slope = float(np.polyfit(ns, logs, 1)[0])
    ok = within and -0.8 <= slope <= -0.2
    _verdict(
        capsys, 5, ok,
        f"neglog medians within 10 sigma_f/sqrt(N) for n=6..12: {within}; "
        f"per-qubit log2 slope {slope:.3f} in [-0.8, -0.2]",
    )


def test_criterion_06_depolarizing_recovery(capsys):
    rows = run_depolarizing_recovery(
        [0.3, 0.5, 0.8], [2, 3, 4], n=10, T=100_000, instances=1000,
        base_seed=11,
    )
    worst = max(abs(r["f_hat"] - r["fidelity"]) for r in rows)
    pair_ok = True
    for F in (0.3, 0.5, 0.8):
        sub = [r for r in rows if r["fidelity"] == F]
        for a in range(len(sub)):
            for b in range(a + 1, len(sub)):
                gap = abs(sub[a]["f_hat"] - sub[b]["f_hat"])
                comb = math.hypot(sub[a]["f_hat_se"], sub[b]["f_hat_se"])
                pair_ok &= gap <= 5 * comb
    ok = worst <= 0.03 and pair_ok
    _verdict(
        capsys, 6, ok,
        f"F in {{0.3,0.5,0.8}}, degrees 2..4, T=1e5 pooled over 1000 "
        f"instances: worst |F_hat - F| = {worst:.4f} <= 0.03; pairwise "
        f"agreement within 5 combined SE: {pair_ok}",
    )


def test_criterion_07_xeb_identities(capsys):
    dims = SystemDims(10)
    N = dims.N
    # bit-exact identity on one instance
    rng = np.random.default_rng(700)
    P = OutputDistribution(dims, haar_state_probs(N, rng))
    samples = sample_bitstrings(P, 5000, seed=701)
    est = estimate_C_f(P, samples, SchemeFunction.monomial(2))
    identity_ok = linear_xeb(P, samples).F_hat == est.value - 1.0

    # noiseless: T = 5e4 split over 20 instances; SE from instance scatter
    per_inst = []
    for k in range(20):
        rng = np.random.default_rng(710 + k)
        Pk = OutputDistribution(dims, haar_state_probs(N, rng))
        sk = sample_bitstrings(Pk, 2500, seed=730 + k)
        per_inst.append(linear_xeb(Pk, sk).F_hat)
    mean = float(np.mean(per_inst))
    se = float(np.std(per_inst, ddof=1) / math.sqrt(len(per_inst)))
    noiseless_ok = abs(mean - 1.0) <= 4 * se

    # completely noisy: uniform samples against a Haar-typical P
    rng = np.random.default_rng(760)
    P = OutputDistribution(dims, haar_state_probs(N, rng))
    uniform = OutputDistribution(dims, np.full(N, 1.0 / N))
    s = sample_bitstrings(uniform, 50_000, seed=761)
    noisy = linear_xeb(P, s)
    noisy_ok = abs(noisy.F_hat) <= 4 * noisy.std_error

    ok = identity_ok and noiseless_ok and noisy_ok
    _verdict(
        capsys, 7, ok,
        f"linear_xeb + 1 == monomial2 estimate bit-exactly: {identity_ok}; "
        f"noiseless F_XEB {mean:.4f} = 1 +- 4SE({4 * se:.4f}); uniform "
        f"F_XEB {noisy.F_hat:.4f} = 0 +- 4SE({4 * noisy.std_error:.4f})",
    )


def test_criterion_08_distribution_law(capsys):
    N = 1024
    rng = np.random.default_rng(123)
    probs = haar_state_probs(N, rng)
    pvalue = stats.kstest(probs, stats.beta(1, N - 1).cdf).pvalue
    grid = np.linspace(0.0, 10.0 / N, 2001)
    # Porter-Thomas density N exp(-N p)
    sup = float(np.max(np.abs(
        N * np.exp(-N * grid) - analytic.beta_pdf(grid, N)
    ))) / N
    ok = pvalue > 0.01 and sup <= 0.01
    _verdict(
        capsys, 8, ok,
        f"n=10 Haar output probs vs Beta(1, N-1): KS p={pvalue:.3f} > 0.01; "
        f"Porter-Thomas vs Beta sup-norm/N on [0, 10/N] = {sup:.2e} <= 0.01",
    )


def test_criterion_09_pauli_counterexample(capsys):
    spec = EnsembleSpec("pauli", SystemDims(1))
    p0 = np.array([member_probs(spec, i)[0] for i in range(4)])
    mean_p, mean_p2 = float(p0.mean()), float(np.mean(p0**2))
    haar_p2 = analytic.haar_joint_moment(2.0, 0.0, 2)  # = 1/3
    gap = design_moment_discrepancy(spec, 2)
    ok = (
        mean_p == 0.5
        and mean_p2 == 0.5
        and abs(haar_p2 - 1.0 / 3.0) < 1e-14
        and abs(gap - 0.5) <= 1e-14
    )
    _verdict(
        capsys, 9, ok,
        f"Pauli n=1: E[P(0)]={mean_p}, E[P(0)^2]={mean_p2} != Haar 1/3; "
        f"exact 2-design discrepancy {gap:.3g} = 1/2",
    )


def test_criterion_10_reproducibility(capsys, tmp_path):
    cfg = ScanConfig(
        ensemble="brickwork", n_range=(4, 5), instances=3, T=500,
        scheme=SchemeFunction.monomial(2), base_seed=99, depth=10,
    )
    paths_a = write_scan_result(run_ergodicity_scan(cfg), tmp_path / "a")
    paths_b = write_scan_result(run_ergodicity_scan(cfg), tmp_path / "b")
    ok = all(
        Path(pa).read_bytes() == Path(pb).read_bytes()
        for pa, pb in zip(paths_a, paths_b)
    )
    _verdict(
        capsys, 10, ok,
        "repeated sampled brickwork scan with the same seed is "
        "byte-identical (CSV and JSON)",
    )
