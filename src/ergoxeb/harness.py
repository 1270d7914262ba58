"""Experiment drivers composing simulation, noise and estimation.

Results are plain rows (lists of dicts) written as CSV plus a JSON summary;
file names embed a hash of the generating configuration, and identical
configurations produce byte-identical files.
"""

import csv
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field, fields

import numpy as np

from .ensembles import (
    EnsembleSpec,
    haar_sample_values,
    haar_state_probs,  # noqa: F401 -- perfbench/tracing.py wraps it
    member_probs,
    mix64,
)
from .estimators import (
    SchemeFunction,
    deviation_of_ergodicity,
    deviation_of_ergodicity_exact,
    fidelity_from_de_depolarizing,
)
from .noise import (
    NoiseModel,
    experimental_distribution,
    sample_bitstrings,
)
from .statevector import DEFAULT_QUBIT_CAP, OutputDistribution, SystemDims

# sampled values per chunk of the recovery driver's instances
_CHUNK_DRAWS = 1 << 11
# the recovery driver's labels are int64 draws on [0, 2^n + T / instances)
MAX_RECOVERY_QUBITS = 62


@dataclass(frozen=True)
class ScanConfig:
    ensemble: str = "haar"
    n_range: tuple = (8,)
    instances: int = 10
    scheme: SchemeFunction = field(default_factory=SchemeFunction.neglog)
    alpha: float = 10.0
    T: int = 0  # 0 = exact correlation from P and Q, no sampling
    noise: NoiseModel = field(default_factory=NoiseModel.noiseless)
    base_seed: int = 0
    depth: int = 0  # brickwork only; 0 = default 5n
    source_path: str | None = None
    mean_mode: str = "exact"

    def __post_init__(self):
        if self.instances < 1:
            raise ValueError("need at least one instance per qubit count")
        if not self.n_range:
            raise ValueError("empty qubit range")
        lo, hi = min(self.n_range), max(self.n_range)
        if not 1 <= lo <= hi <= DEFAULT_QUBIT_CAP:
            raise ValueError(f"n_range: expected 1 <= n <= {DEFAULT_QUBIT_CAP}"
                             f" for every n, got {lo}..{hi}")

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "n_range": list(self.n_range),
            "scheme": self.scheme.name,
            "noise": self.noise.kind,
            "fidelity": self.noise.F,
        }


@dataclass
class ScanResult:
    config: dict
    rows: list
    summary: list


def _instance_fidelity(scheme, report):
    """Depolarizing-inversion F of one report's signed DE, above 1 where
    C_f exceeds the Haar mean; None where the inversion refuses (the
    logarithmic schemes, and a vanishing scale at degree <= 1)."""
    try:
        return fidelity_from_de_depolarizing(
            report.haar_mean - report.c_f_estimate, scheme, report.N,
            report.haar_mean_mode, report.std_error,
        ).F_hat
    except ValueError:
        return None


def run_ergodicity_scan(cfg):
    """One ergodicity report per (qubit count, circuit instance)."""
    rows = []
    summary = []
    for n in cfg.n_range:
        dims = SystemDims(n)
        spec = EnsembleSpec(
            kind=cfg.ensemble,
            dims=dims,
            depth=(cfg.depth or 5 * n) if cfg.ensemble == "brickwork" else 0,
            base_seed=mix64(cfg.base_seed, n),
            source_path=cfg.source_path,
        )
        n_rows = []
        for inst in range(cfg.instances):
            P = OutputDistribution(dims, member_probs(spec, inst))
            Q = experimental_distribution(P, cfg.noise)
            if cfg.T:
                samples = sample_bitstrings(
                    Q, cfg.T, seed=mix64(spec.base_seed, 10_000 + inst))
                report = deviation_of_ergodicity(P, samples, cfg.scheme,
                                                 cfg.alpha, cfg.mean_mode)
            else:
                report = deviation_of_ergodicity_exact(
                    P, Q, cfg.scheme, cfg.alpha, cfg.mean_mode)
            n_rows.append(report.to_dict() | dict(
                instance=inst, f_hat=_instance_fidelity(cfg.scheme, report)))
        violations = sum(r["verdict"] == "violated" for r in n_rows)
        summary.append({
            "n": n,
            "instances": cfg.instances,
            "median_deviation": statistics.median(
                r["deviation"] for r in n_rows
            ),
            "violation_rate": violations / cfg.instances,
            "sigma_over_sqrt_n": (cfg.scheme.sigma(dims.N, cfg.mean_mode)
                                  / math.sqrt(dims.N)),
            "threshold": n_rows[0]["threshold"],
        })
        rows.extend(n_rows)
    return ScanResult(config=cfg.to_dict(), rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# Monte-Carlo verification drivers
# ---------------------------------------------------------------------------

def run_depolarizing_recovery(fidelities, degrees, n=10, T=100_000,
                              instances=1000, base_seed=0):
    """Recover depolarizing fidelities from pooled deviation of ergodicity.

    The T-sample budget is spread evenly over many Haar instances (T must
    be a positive multiple of ``instances``) and the correlation estimates
    are pooled before inverting DE = (1 - F)(E_H[f_i] - E_H[f_{i-1}]), the
    exact relation at N = 2^n (``fidelity_from_de_depolarizing``): a single
    instance's self-correlation fluctuates by O(sigma_f/sqrt(N)), which
    pooling averages away.  Reported SE comes from the scatter of
    per-instance means (it covers both sampling and ensemble noise).

    No instance holds an N-vector: ``ensembles.haar_sample_values`` draws
    its P only at the sampled bitstrings, exactly, so n runs from 1 to 62.
    Instances run in chunks of max(1, 2^11 // (T / instances)), chunk c
    from one PCG64 seeded ``mix64(base_seed, 62_000 + c)``.  Every fidelity
    of an instance uses the same P and uniforms, and each scheme is
    evaluated once per chunk, on all the fidelities at once.
    """
    if not fidelities:
        raise ValueError("need at least one fidelity")
    if not degrees:
        raise ValueError("need at least one degree")
    if min(degrees) < 2:
        raise ValueError(
            f"depolarizing recovery needs degrees >= 2, got {min(degrees)}"
        )
    if instances < 2:
        raise ValueError(
            f"need at least two instances for a standard error, "
            f"got {instances}"
        )
    if T < instances or T % instances:
        raise ValueError(
            f"T={T} must be a positive multiple of instances={instances}"
        )
    if not 1 <= n <= MAX_RECOVERY_QUBITS:
        raise ValueError(
            f"qubit count {n} outside 1..{MAX_RECOVERY_QUBITS}"
        )
    fidelities = [NoiseModel.depolarizing(F).F for F in fidelities]
    per = T // instances
    N = 1 << n
    schemes = [SchemeFunction.monomial(i) for i in degrees]
    chunk = max(1, _CHUNK_DRAWS // per)
    # instance means of g(P(x)) per (fidelity, degree), instances last
    inst_means = np.empty((len(fidelities), len(schemes), instances))
    for c, start in enumerate(range(0, instances, chunk)):
        stop = min(start + chunk, instances)
        rng = np.random.Generator(
            np.random.PCG64(mix64(base_seed, 62_000 + c)))
        u, ps, pu = haar_sample_values(N, stop - start, per, rng)
        # (fidelity, instance, draw): every fidelity uses the same P and u
        pvals = np.where(u < np.array(fidelities)[:, None, None], ps, pu)
        for b, scheme in enumerate(schemes):
            inst_means[:, b, start:stop] = scheme.g(pvals, N).mean(axis=-1)
    rows = []
    for a, F in enumerate(fidelities):
        for b, scheme in enumerate(schemes):
            means = inst_means[a, b]
            pooled = float(means.mean())
            se = float(means.std(ddof=1) / math.sqrt(len(means)))
            signed = scheme.haar_mean(N, "exact") - pooled
            est = fidelity_from_de_depolarizing(signed, scheme, N,
                                                std_error=se)
            rows.append({
                "fidelity": F,
                "degree": scheme.degree,
                "n": n,
                "T": T,
                "instances": instances,
                "c_f_pooled": pooled,
                "std_error": se,
                "deviation": abs(signed),
                "f_hat": est.F_hat,
                "f_hat_se": est.std_error,
            })
    return rows


# ---------------------------------------------------------------------------
# result emission
# ---------------------------------------------------------------------------

def config_hash(config):
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _fmt_cell(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return "" if value is None else value


def write_rows_csv(rows, path):
    """Rows as CSV, a cell with a comma (a poly: name) quoted per RFC 4180."""
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(fields)
        for row in rows:
            out.writerow([_fmt_cell(row[k]) for k in fields])


def write_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_scan_result(result, out_dir):
    """Write rows CSV and summary JSON; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    tag = config_hash(result.config)
    csv_path = os.path.join(out_dir, f"scan_{tag}.csv")
    json_path = os.path.join(out_dir, f"scan_{tag}_summary.json")
    write_rows_csv(result.rows, csv_path)
    write_json(
        {"config": result.config, "summary": result.summary}, json_path
    )
    return csv_path, json_path
