"""Output-level noise models and bitstring sampling.

Noise acts on the ideal distribution P(x) only: every estimator downstream
depends on the diagonal experimental distribution Q(x), never on a density
matrix.  The custom model carries a quasiprobability chi(x) that may have
negative entries, but the induced Q must be a proper distribution.
"""

import math
from dataclasses import dataclass

import numpy as np

from .statevector import NEGATIVE_TOL, OutputDistribution, SystemDims


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
    """T measured bitstrings (as integer indices)."""

    dims: SystemDims
    bitstrings: np.ndarray

    def __post_init__(self):
        self.bitstrings = np.asarray(self.bitstrings, dtype=np.int64)
        if self.bitstrings.ndim != 1:
            raise ValueError("bitstrings must be a flat integer array")
        check_bitstring_range(self.bitstrings, self.dims.N)

    @property
    def T(self):
        return int(self.bitstrings.size)


def check_bitstring_range(bitstrings, N):
    """Raise unless every index in the ``bitstrings`` array lies in [0, N)."""
    if bitstrings.size and (bitstrings.min() < 0 or bitstrings.max() >= N):
        raise ValueError("bitstring index out of range")


def depolarize(probs, F, out=None):
    """Global depolarizing noise F * P + (1 - F) / N along the last axis."""
    out = np.multiply(probs, F, out=out)
    out += (1.0 - F) / probs.shape[-1]
    return out


def experimental_distribution(P, noise):
    """Experimental distribution Q induced by a noise model on ideal P."""
    if noise.kind == "noiseless":
        return P
    N = P.dims.N
    if noise.kind == "completely_noisy":
        return OutputDistribution(P.dims, np.full(N, 1.0 / N))
    if noise.kind == "depolarizing":
        return OutputDistribution(P.dims, depolarize(P.probs, noise.F))
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


def inverse_cdf_rows(probs, uniforms, cdf=None):
    """Inverse-CDF draws from each row of a (rows, N) probability array.

    Row r takes the uniforms ``uniforms[r]`` in [0, 1] and returns, for each
    u, the first index whose cumulative probability exceeds u times the row
    total.  Zero-probability indices repeat the preceding cumulative value
    and so are never chosen; the clamp to the row's last nonzero index
    catches u * total equal to the total itself (u = 1), which would
    otherwise land past the end.

    ``uniforms`` is scaled in place to the targets u * total, so that a
    one-row draw holds no array of T floats beside them.  ``cdf``, if given,
    is a (rows, N) float64 buffer that receives the cumulative sums.
    Returns a list of one int64 index array per row.
    """
    cdf = np.cumsum(probs, axis=1, out=cdf)
    uniforms *= cdf[:, -1:]
    last = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] != 0.0, axis=1)
    draws = []
    for row_cdf, targets, top in zip(cdf, uniforms, last):
        row = np.searchsorted(row_cdf, targets, side="right")
        draws.append(np.minimum(row, top, out=row))
    return draws


def sample_bitstrings(Q, T, seed):
    """Draw T i.i.d. bitstrings from Q: the one-row case of
    ``inverse_cdf_rows``, with T uniforms from PCG64(seed)."""
    if T < 0:
        raise ValueError(f"sample count must be >= 0, got {T}")
    rng = np.random.Generator(np.random.PCG64(seed))
    (draws,) = inverse_cdf_rows(Q.probs[None], rng.random((1, T)))
    return SampleSet(Q.dims, draws)


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


# Rows per write chunk and bytes per read batch: each step makes one C-level
# format or parse call over many rows while its temporaries stay a few MiB.
_CHUNK_ROWS = 1 << 16
_BATCH_BYTES = 1 << 20
_HEADER = b"bitstring,probability"


def _bit_chars(indices, n):
    """ASCII '0'/'1' characters of each index, most significant bit first.

    Returns a ``(len(indices), n)`` uint8 array.
    """
    big_endian = indices.astype(">u8").view(np.uint8)
    bits = np.unpackbits(big_endian.reshape(-1, 8), axis=1)[:, 64 - n:]
    return bits + np.uint8(ord("0"))


def _bits_to_indices(chars):
    """Integer indices of rows of ASCII '0'/'1' characters.

    Returns None if any other character occurs, so that the caller can name
    the offending line.
    """
    bits = chars - np.uint8(ord("0"))
    if (bits > 1).any():
        return None
    n = chars.shape[1]
    return bits @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))


def _text(raw):
    """Quoted form of raw file bytes for an error message."""
    return repr(raw.decode("utf-8", "backslashreplace"))


def _batches(fh, lineno):
    """Yield (lines, first line number, nonblank stripped rows) per batch."""
    while lines := fh.readlines(_BATCH_BYTES):
        yield lines, lineno, [s for s in map(bytes.strip, lines) if s]
        lineno += len(lines)


def _dims_at(path, lines, lineno, n):
    """SystemDims(n), with an error naming the first nonblank line."""
    try:
        return SystemDims(n)
    except ValueError as exc:
        lineno += next(i for i, line in enumerate(lines) if line.strip())
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def write_samples(samples, path):
    n = samples.dims.n
    with open(path, "wb") as fh:
        for start in range(0, samples.T, _CHUNK_ROWS):
            chunk = samples.bitstrings[start:start + _CHUNK_ROWS]
            rows = np.empty((chunk.size, n + 1), dtype=np.uint8)
            rows[:, :n] = _bit_chars(chunk, n)
            rows[:, n] = ord("\n")
            fh.write(rows.tobytes())


def _check_bits(path, lineno, bits, n):
    """Raise unless ``bits`` is n '0'/'1' characters."""
    if not bits or bits.translate(None, b"01"):
        raise ValueError(f"{path}:{lineno}: invalid bitstring {_text(bits)}")
    if len(bits) != n:
        raise ValueError(
            f"{path}:{lineno}: bitstring length {len(bits)} != {n}"
        )


def _scan_samples(path, lines, lineno, n):
    """Raise the error of the first malformed line in a batch."""
    for lineno, line in enumerate(lines, start=lineno):
        s = line.strip()
        if s:
            _check_bits(path, lineno, s, n)
    raise AssertionError("batch failed its checks but every line parses")


def read_samples(path, dims=None):
    """Sample file: one bitstring of '0'/'1' per line.

    Blank lines and surrounding whitespace are ignored.  Without ``dims``
    the first bitstring sets n.  Errors name the offending ``path:line``.
    """
    parts = [np.empty(0, dtype=np.int64)]
    with open(path, "rb") as fh:
        for lines, lineno, rows in _batches(fh, 1):
            if not rows:
                continue
            n = dims.n if dims is not None else len(rows[0])
            # Stripped rows hold no newline, so with the size right and a
            # newline ending every n + 1 bytes, each row is n long.
            buf = np.frombuffer(b"\n".join(rows) + b"\n", dtype=np.uint8)
            indices = None
            if buf.size == len(rows) * (n + 1):
                chars = buf.reshape(len(rows), n + 1)
                if (chars[:, n] == ord("\n")).all():
                    indices = _bits_to_indices(chars[:, :n])
            if indices is None:
                _scan_samples(path, lines, lineno, n)
            if dims is None:
                dims = _dims_at(path, lines, lineno, n)
            parts.append(indices)
    if dims is None:
        raise ValueError(f"{path}: no bitstrings found")
    return SampleSet(dims, np.concatenate(parts))


def write_probabilities(P, path):
    n = P.dims.n
    suffix = np.frombuffer(b",%.17g\n", dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(_HEADER + b"\n")
        for start in range(0, P.dims.N, _CHUNK_ROWS):
            chunk = P.probs[start:start + _CHUNK_ROWS]
            rows = np.empty((chunk.size, n + suffix.size), dtype=np.uint8)
            rows[:, :n] = _bit_chars(np.arange(start, start + chunk.size), n)
            rows[:, n:] = suffix
            template = rows.tobytes().decode("ascii")
            fh.write((template % tuple(chunk.tolist())).encode("ascii"))


def _scan_probabilities(path, lines, lineno, n, filled):
    """Raise the error of the first malformed line in a batch.

    ``filled`` marks the indices of the rows before the batch, so that a
    duplicate ahead of the malformed line is reported first.  It is empty
    until the first good batch sets the dimensions.
    """
    seen = set()
    for lineno, line in enumerate(lines, start=lineno):
        s = line.strip()
        if not s:
            continue
        try:
            bits, val = s.split(b",")
            p = float(val)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad row {_text(s)}") from exc
        _check_bits(path, lineno, bits, n)
        j = int(bits, 2)
        if j in seen or (j < filled.size and filled[j]):
            raise ValueError(
                f"{path}:{lineno}: duplicate bitstring {_text(bits)}"
            )
        seen.add(j)
        if not (math.isfinite(p) and p >= -NEGATIVE_TOL):
            raise ValueError(
                f"{path}:{lineno}: bad probability {_text(val)}"
            )
    raise AssertionError("batch failed its checks but every line parses")


def _parse_probability_rows(rows, n):
    """(indices, values) of nonblank rows ``bits,value``; None if malformed.

    A row is well formed when its only comma sits at column n after n
    '0'/'1' characters and its value is a finite float >= -NEGATIVE_TOL.
    """
    if n < 1:
        return None
    text = b"\n".join(rows)
    buf = np.frombuffer(text, dtype=np.uint8)
    starts = np.empty(len(rows), dtype=np.int64)
    starts[0] = 0
    starts[1:] = np.flatnonzero(buf == ord("\n")) + 1
    lengths = np.append(starts[1:] - 1, buf.size) - starts
    if (lengths <= n).any():
        return None
    if (buf[starts + n] != ord(",")).any():
        return None
    if np.count_nonzero(buf == ord(",")) != len(rows):
        return None
    indices = _bits_to_indices(buf[starts[:, None] + np.arange(n)])
    if indices is None:
        return None
    tokens = text.replace(b"\n", b",").split(b",")[1::2]
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None
    if not (np.isfinite(values).all() and values.min() >= -NEGATIVE_TOL):
        return None
    return indices, values


def read_probabilities(path):
    """Probability file: the header ``bitstring,probability``, then one
    ``bits,value`` row for each of the N bitstrings, in any order.

    Blank lines and surrounding whitespace are ignored.  The first
    malformed row, NaN, infinite or negative value, or repeated bitstring
    raises an error naming its ``path:line``.
    """
    dims = None
    filled = np.zeros(0, dtype=bool)
    with open(path, "rb") as fh:
        header = fh.readline().strip()
        if header != _HEADER:
            raise ValueError(
                f"{path}: expected header 'bitstring,probability', "
                f"got {_text(header)}"
            )
        for lines, lineno, rows in _batches(fh, 2):
            if not rows:
                continue
            n = dims.n if dims is not None else rows[0].find(b",")
            parsed = _parse_probability_rows(rows, n)
            if parsed is not None:
                indices, values = parsed
                if dims is None:
                    dims = _dims_at(path, lines, lineno, n)
                    probs = np.empty(dims.N)
                    filled = np.zeros(dims.N, dtype=bool)
                # a sort finds in-batch repeats far faster than np.unique
                ordered = np.sort(indices)
                repeats = (ordered[1:] == ordered[:-1]).any()
                if repeats or filled[indices].any():
                    parsed = None
            if parsed is None:
                _scan_probabilities(path, lines, lineno, n, filled)
            filled[indices] = True
            probs[indices] = values
    if dims is None:
        raise ValueError(f"{path}: no probability rows found")
    count = np.count_nonzero(filled)
    if count != dims.N:
        raise ValueError(
            f"{path}: expected {dims.N} rows covering all bitstrings, "
            f"got {count}"
        )
    try:
        return OutputDistribution(dims, probs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
