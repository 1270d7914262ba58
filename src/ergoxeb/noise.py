"""Output-level noise models and bitstring sampling.

Noise acts on the ideal distribution P(x) only: every estimator downstream
depends on the diagonal experimental distribution Q(x), never on a density
matrix.  The custom model carries a quasiprobability chi(x) that may have
negative entries, but the induced Q must be a proper distribution.
"""

from dataclasses import dataclass, field

import numpy as np

from .statevector import OutputDistribution, SystemDims


@dataclass(frozen=True)
class NoiseModel:
    kind: str  # noiseless | depolarizing | completely_noisy | custom
    F: float = 1.0
    chi: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (
            "noiseless", "depolarizing", "completely_noisy", "custom"
        ):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.F <= 1.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {self.F}")
        if self.kind == "custom":
            if self.chi is None:
                raise ValueError("custom noise needs a chi vector")
            chi = np.asarray(self.chi, dtype=np.float64)
            object.__setattr__(self, "chi", chi)
            if abs(float(chi.sum()) - 1.0) > 1e-10:
                raise ValueError(f"chi sums to {chi.sum()!r}, not 1")

    @classmethod
    def noiseless(cls):
        return cls("noiseless")

    @classmethod
    def depolarizing(cls, F):
        return cls("depolarizing", F=F)

    @classmethod
    def completely_noisy(cls):
        return cls("completely_noisy", F=0.0)

    @classmethod
    def custom(cls, F, chi):
        return cls("custom", F=F, chi=chi)


@dataclass
class SampleSet:
    """T measured bitstrings (as integer indices) with provenance."""

    dims: SystemDims
    bitstrings: np.ndarray
    provenance: str = "unknown"

    def __post_init__(self):
        self.bitstrings = np.asarray(self.bitstrings, dtype=np.int64)
        if self.bitstrings.ndim != 1:
            raise ValueError("bitstrings must be a flat integer array")
        if self.bitstrings.size and (
            self.bitstrings.min() < 0 or self.bitstrings.max() >= self.dims.N
        ):
            raise ValueError("bitstring index out of range")

    @property
    def T(self):
        return int(self.bitstrings.size)


def experimental_distribution(P, noise):
    """Experimental distribution Q induced by a noise model on ideal P."""
    if noise.kind == "noiseless":
        return P
    N = P.dims.N
    if noise.kind == "completely_noisy":
        return OutputDistribution(P.dims, np.full(N, 1.0 / N))
    if noise.kind == "depolarizing":
        q = noise.F * P.probs + (1.0 - noise.F) / N
        return OutputDistribution(P.dims, q)
    chi = noise.chi
    if chi.shape != (N,):
        raise ValueError(
            f"chi has shape {chi.shape}, expected ({N},)"
        )
    q = noise.F * P.probs + (1.0 - noise.F) * chi
    if np.any(q < -1e-12):
        raise ValueError(
            "custom noise produces negative experimental probabilities "
            f"(min {q.min():g})"
        )
    return OutputDistribution(P.dims, q)


def sample_bitstrings(Q, T, seed):
    """Draw T i.i.d. bitstrings from Q by inverse-CDF search.

    Each draw takes one uniform u and returns the first index whose
    cumulative probability exceeds u times the total.  Zero-probability
    indices repeat the preceding cumulative value and so are never chosen;
    the clamp only catches u * total rounding up to the total itself.
    """
    if T < 0:
        raise ValueError(f"sample count must be >= 0, got {T}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if T == 0:
        draws = np.empty(0, dtype=np.int64)
    else:
        cdf = np.cumsum(Q.probs)
        draws = np.searchsorted(cdf, rng.random(T) * cdf[-1], side="right")
        np.minimum(draws, np.flatnonzero(Q.probs)[-1], out=draws)
    return SampleSet(Q.dims, draws, provenance=f"simulated(seed={seed})")


@dataclass(frozen=True)
class ChiNormalizationReport:
    max_deviation: float
    threshold: float

    @property
    def violated(self):
        return self.max_deviation > self.threshold


def chi_normalization_check(chis, dims, threshold=1e-2):
    """Check that the instance-averaged chi(x) is uniform (1/N per entry)."""
    chis = [np.asarray(c, dtype=np.float64) for c in chis]
    if not chis:
        raise ValueError("need at least one chi instance")
    for c in chis:
        if c.shape != (dims.N,):
            raise ValueError(f"chi instance has shape {c.shape}")
    mean = np.mean(chis, axis=0)
    dev = float(np.max(np.abs(mean - 1.0 / dims.N)))
    return ChiNormalizationReport(max_deviation=dev, threshold=threshold)


# ---------------------------------------------------------------------------
# external file formats
# ---------------------------------------------------------------------------

def index_to_bitstring(j, n):
    return format(int(j), f"0{n}b")


def bitstring_to_index(s):
    return int(s, 2)


def write_samples(samples, path):
    n = samples.dims.n
    with open(path, "w") as fh:
        for j in samples.bitstrings:
            fh.write(index_to_bitstring(j, n) + "\n")


def read_samples(path, dims=None):
    indices = []
    n = dims.n if dims is not None else None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            if set(s) - {"0", "1"}:
                raise ValueError(
                    f"{path}:{lineno}: invalid bitstring {s!r}"
                )
            if n is None:
                n = len(s)
            elif len(s) != n:
                raise ValueError(
                    f"{path}:{lineno}: bitstring length {len(s)} != {n}"
                )
            indices.append(bitstring_to_index(s))
    if n is None:
        raise ValueError(f"{path}: no bitstrings found")
    return SampleSet(SystemDims(n), np.array(indices, dtype=np.int64),
                     provenance=f"ingested({path})")


def write_probabilities(P, path):
    n = P.dims.n
    with open(path, "w") as fh:
        fh.write("bitstring,probability\n")
        for j, p in enumerate(P.probs):
            fh.write(f"{index_to_bitstring(j, n)},{p:.17g}\n")


def read_probabilities(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "bitstring,probability":
            raise ValueError(
                f"{path}: expected header 'bitstring,probability', "
                f"got {header!r}"
            )
        rows = {}
        n = None
        for lineno, line in enumerate(fh, start=2):
            s = line.strip()
            if not s:
                continue
            try:
                bits, val = s.split(",")
                p = float(val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad row {s!r}") from exc
            if n is None:
                n = len(bits)
            elif len(bits) != n:
                raise ValueError(
                    f"{path}:{lineno}: bitstring length {len(bits)} != {n}"
                )
            j = bitstring_to_index(bits)
            if j in rows:
                raise ValueError(
                    f"{path}:{lineno}: duplicate bitstring {bits!r}"
                )
            rows[j] = p
    if n is None:
        raise ValueError(f"{path}: no probability rows found")
    dims = SystemDims(n)
    if len(rows) != dims.N:
        raise ValueError(
            f"{path}: expected {dims.N} rows covering all bitstrings, "
            f"got {len(rows)}"
        )
    probs = np.array([rows[j] for j in range(dims.N)])
    return OutputDistribution(dims, probs)
