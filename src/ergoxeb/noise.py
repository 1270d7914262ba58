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
            if chi.ndim != 1:
                raise ValueError(f"chi must be a 1-D vector, got shape "
                                 f"{chi.shape}")
            if not np.isfinite(chi).all():
                raise ValueError("chi has NaN or infinite entries")
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
        values = np.asarray(self.bitstrings)
        if values.ndim != 1:
            raise ValueError("bitstrings must be a flat integer array")
        # a boolean mask passed by mistake would read as indices 0 and 1
        if values.dtype.kind == "b":
            raise ValueError("bitstring indices are booleans, not integers")
        if values.dtype.kind not in "iu":
            whole = np.isfinite(values) & (np.trunc(values) == values)
            if not whole.all():
                bad = float(values[~whole][0])
                raise ValueError(f"bitstring index {bad!r} is not an integer")
        if values.size and (values.min() < 0 or values.max() >= self.dims.N):
            raise ValueError("bitstring index out of range")
        self.bitstrings = values.astype(np.int64, copy=False)

    @property
    def T(self):
        return int(self.bitstrings.size)


def depolarize(probs, F):
    """Global depolarizing noise F * P + (1 - F) / N; at F = 0 every entry
    is 1 / N exactly."""
    out = probs * F
    out += (1.0 - F) / probs.size
    return out


def experimental_distribution(P, noise):
    """Experimental distribution Q induced by a noise model on ideal P."""
    if noise.kind == "noiseless":
        return P
    if noise.kind != "custom":  # completely_noisy is F = 0
        return OutputDistribution(P.dims, depolarize(P.probs, noise.F))
    N = P.dims.N
    chi = noise.chi
    if chi.shape != (N,):
        raise ValueError(
            f"chi has shape {chi.shape}, expected ({N},)"
        )
    q = noise.F * P.probs + (1.0 - noise.F) * chi
    if not q.min() >= -NEGATIVE_TOL:
        raise ValueError(
            "custom noise produces negative experimental probabilities "
            f"(min {q.min():g})"
        )
    return OutputDistribution(P.dims, q)


# Targets per sorted search in ``inverse_cdf``.  A block's three
# temporaries (argsort indices, sorted targets, search results) take
# 3 x 32 KiB: less than the 128 KiB glibc leaves free at the top of the
# heap when it grows it, so in an n = 20 setup they reuse that space and
# the heap ends as it began.  2^13 blocks (3 x 64 KiB) search ~20% faster
# at N = 2^20 but left the heap 0.15 MiB larger.
_SEARCH_BLOCK = 1 << 12


def inverse_cdf(probs, uniforms):
    """Inverse-CDF draws from the probability vector ``probs``.

    Returns, for each u of the 1-D ``uniforms`` (in [0, 1]), the first
    index whose cumulative probability exceeds u times the total, as an
    int64 array.  Zero-probability indices repeat the preceding cumulative
    value and so are never chosen; the clamp to the last nonzero index
    catches u * total equal to the total itself (u = 1), which would
    otherwise land past the end.  ``uniforms`` is scaled in place to the
    targets u * total, so that no array of T floats is held beside them.

    The targets are searched in blocks of 2^12 (_SEARCH_BLOCK), each
    sorted first: numpy's search then starts from the previous key's
    bounds and walks the CDF in order, which keeps it in cache: about 2x
    faster than random order at N = 2^16 and 2.5x at N = 2^20, from 1e5
    targets.  The block's temporaries stay at 96 KiB whatever the number
    of targets.  Sorting changes only
    the order of the searches, not any target's answer, so the draws are
    those of one search of the targets in their own order, bit for bit;
    equal targets get equal answers, so the sort need not be stable.
    """
    cdf = np.cumsum(probs)
    uniforms *= cdf[-1]
    last = probs.size - 1 - np.argmax(probs[::-1] != 0.0)
    draws = np.empty(uniforms.size, dtype=np.int64)
    for start in range(0, uniforms.size, _SEARCH_BLOCK):
        block = uniforms[start:start + _SEARCH_BLOCK]
        order = np.argsort(block)
        draws[start:start + _SEARCH_BLOCK][order] = np.searchsorted(
            cdf, block[order], side="right")
    return np.minimum(draws, last, out=draws)


def sample_bitstrings(Q, T, seed):
    """Draw T i.i.d. bitstrings from Q by ``inverse_cdf``, with T uniforms
    from PCG64(seed)."""
    if T < 0:
        raise ValueError(f"sample count must be >= 0, got {T}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return SampleSet(Q.dims, inverse_cdf(Q.probs, rng.random(T)))


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


# Rows per write chunk and bytes per read batch: whole-array steps whose
# temporaries stay in cache.  1 MiB batches read no faster, and their
# ~190 KiB temporaries fragment the heap that a read's N-vectors share.
_CHUNK_ROWS = 1 << 14
_BATCH_BYTES = 1 << 18
#: bytes after a batch's last line that the kernels may read: each word
#: they gather starts in a line and ends at most 17 bytes past its newline
_SLACK = 32
_HEADER = b"bitstring,probability"
#: '0' in each byte of a word, and the low k bytes of a word set, k = 0..8
_ZERO_CHARS = np.uint64(0x3030303030303030)
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: a multiply by it moves the low bit of each byte of a word into its top
#: byte, the first (lowest) byte's bit highest
_GATHER_BITS = np.uint64(0x8040201008040201)
#: the eight '0'/'1' characters of each byte value, most significant bit
#: first, as one little-endian word
_BYTE_CHARS = (np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
               + np.uint8(ord("0"))).view("<u8").ravel()


def _bit_groups(n):
    """(width, below), uint64: word k of an n-bit string's characters holds
    ``width[k]`` of them, whose bits lie above the ``below[k]`` lower ones."""
    width = np.minimum(n - 8 * np.arange(-(-n // 8)), 8).astype(np.uint64)
    return width, np.uint64(n) - np.cumsum(width, dtype=np.uint64)


def _bit_chars(indices, n):
    """ASCII '0'/'1' characters of each index, most significant bit first,
    in the first n columns of a ``(len(indices), 8 * ceil(n / 8))`` uint8
    array: each group of up to eight bits is one word of ``_BYTE_CHARS``."""
    indices = indices.astype(np.uint64)
    width, below = _bit_groups(n)
    words = np.empty((len(indices), len(width)), dtype=np.uint64)
    for k in range(len(width)):
        group = (indices >> below[k]) << (np.uint64(8) - width[k])
        np.take(_BYTE_CHARS, group & np.uint64(0xFF), out=words[:, k],
                mode="clip")
    return words.view(np.uint8)


def _bit_indices(words, n):
    """int64 indices of n-character bitstrings, or None unless every
    character is '0'/'1'.  Row k of the uint64 ``(ceil(n / 8), rows)``
    array ``words`` holds characters 8k onwards, the first in the lowest
    byte; bytes past the n-th are ignored.  One XOR-and-mask test checks
    them all, and a multiply and shift packs each word's bits (the reverse
    of ``_bit_chars``).  An n above 64, which fails the qubit cap, is only
    checked."""
    width, below = _bit_groups(n)
    bits = words ^ _ZERO_CHARS
    bits &= _LOW_BYTES[width][:, None]
    if (bits & np.uint64(0xFEFEFEFEFEFEFEFE)).any():
        return None
    if n > 64:
        return np.zeros(words.shape[1], dtype=np.int64)
    bits *= _GATHER_BITS
    bits >>= (np.uint64(64) - width)[:, None]
    bits <<= below[:, None]
    return bits.sum(axis=0, dtype=np.uint64).view(np.int64)


def _gather(text, at, count, dtype="<u8"):
    """The ``count`` consecutive little-endian words of ``dtype`` that start
    at each byte offset ``at`` of the uint8 array ``text``, as a
    ``(count, len(at))`` array: one gather from a view with a run of words
    at every byte."""
    size = count * np.dtype(dtype).itemsize
    view = np.ndarray((text.size - size + 1,), dtype=f"V{size}", buffer=text,
                      strides=(1,))
    return np.ascontiguousarray(view[at].view(dtype).reshape(-1, count).T)


def _text(raw):
    """Quoted form of raw file bytes for an error message."""
    return repr(raw.decode("utf-8", "backslashreplace"))


def _batches(fh, lineno):
    """Yield (raw, first line number, text, newline offsets) per batch.

    A batch is the next ``_BATCH_BYTES`` read, cut after its last newline;
    the rest opens the next batch, and a short read, which ends the file,
    is not cut.  A line longer than a read extends its batch, each further
    read as long as the batch so far.  ``raw`` is the batch's whole lines
    as uint8, the file's last one with a newline added; ``text`` is ``raw``
    with every line stripped and the blank lines dropped, then ``_SLACK``
    zero bytes, and ``ends`` the offset of each of its newlines.  A batch
    with no whitespace but the newline ending each line is read straight
    into its ``text``; any other is rebuilt.  A blank batch is skipped.
    """
    buf = np.empty(0, dtype=np.uint8)  # one for every batch of the file
    held = 0  # bytes of a partial line at the front of buf
    while True:
        want = max(_BATCH_BYTES, held)
        if buf.size < held + want + 1 + _SLACK:
            buf = np.concatenate([buf[:held], np.empty(want + 1 + _SLACK,
                                                       dtype=np.uint8)])
        size = held + fh.readinto(memoryview(buf)[held:held + want])
        # a blocking read comes up short only at the end of the file
        end = size < held + want
        ends = np.flatnonzero(buf[:size] == ord("\n"))
        if not ends.size and not end:
            held = size  # part of a line longer than a read
            continue
        cut = size if end else int(ends[-1]) + 1
        if not cut:
            return
        carry = buf[cut:size].copy()
        if buf[cut - 1] != ord("\n"):
            buf[cut] = ord("\n")
            ends = np.append(ends, cut)
            cut += 1
        buf[cut:cut + _SLACK] = 0
        raw, text = buf[:cut], buf[:cut + _SLACK]
        lines = ends.size
        # every whitespace byte sorts at or below b" "
        if (ends[0] == 0 or (ends[1:] - ends[:-1] == 1).any()
                or np.count_nonzero(raw <= ord(" ")) != lines):
            text = b"".join(s + b"\n" for s in map(
                bytes.strip, raw.tobytes().split(b"\n")) if s)
            text = np.frombuffer(text + bytes(_SLACK), dtype=np.uint8)
            ends = np.flatnonzero(text == ord("\n"))
        if ends.size:
            yield raw, lineno, text, ends
        lineno += lines
        held = carry.size
        buf[:held] = carry


def _dims_at(path, raw, lineno, n):
    """SystemDims(n), with an error naming the first nonblank line of a
    batch ``raw`` that starts at line ``lineno``."""
    try:
        return SystemDims(n)
    except ValueError as exc:
        raw = raw.tobytes()
        lineno += raw.count(b"\n", 0, len(raw) - len(raw.lstrip()))
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def write_samples(samples, path):
    if not samples.T:
        raise ValueError("no samples to write")
    n = samples.dims.n
    with open(path, "wb") as fh:
        for start in range(0, samples.T, _CHUNK_ROWS):
            chunk = samples.bitstrings[start:start + _CHUNK_ROWS]
            rows = np.empty((chunk.size, n + 1), dtype=np.uint8)
            rows[:, :n] = _bit_chars(chunk, n)[:, :n]
            rows[:, n] = ord("\n")
            fh.write(rows)


def _check_bits(path, lineno, bits, n):
    """Raise unless ``bits`` is n '0'/'1' characters."""
    if not bits or bits.translate(None, b"01"):
        raise ValueError(f"{path}:{lineno}: invalid bitstring {_text(bits)}")
    if len(bits) != n:
        raise ValueError(f"{path}:{lineno}: bitstring length "
                         f"{len(bits)} != {n}")


def _scan_samples(path, raw, lineno, n):
    """Raise the error of the first malformed line in a batch."""
    for lineno, line in enumerate(raw.tobytes().split(b"\n"), start=lineno):
        s = line.strip()
        if s:
            _check_bits(path, lineno, s, n)
    raise AssertionError("batch failed its checks but every line parses")


def _sample_indices(text, ends, n):
    """Indices of the stripped lines of ``text`` that end at the offsets
    ``ends``; None unless every line is n '0'/'1' characters."""
    # With the size right, n '0'/'1' characters from each multiple of n + 1
    # leave the newlines only after them: each line is n long.
    rows = ends.size
    if ends[-1] + 1 != rows * (n + 1):
        return None
    words = np.ndarray((-(-n // 8), rows), dtype="<u8", buffer=text,
                       strides=(8, n + 1))
    return _bit_indices(words.copy(), n)


def read_samples(path, dims):
    """Sample file: one bitstring of ``dims.n`` '0'/'1' characters per line.

    Blank lines and surrounding whitespace are ignored.  Errors name the
    offending ``path:line``, or the ``path`` of a file with no bitstrings.
    """
    parts = []
    with open(path, "rb") as fh:
        for raw, lineno, text, ends in _batches(fh, 1):
            indices = _sample_indices(text, ends, dims.n)
            if indices is None:
                _scan_samples(path, raw, lineno, dims.n)
            parts.append(indices)
    if not parts:
        raise ValueError(f"{path}: no bitstrings found")
    return SampleSet(dims, np.concatenate(parts))


#: 10**0 .. 10**22, each an exact double since 5**22 < 2**53
_POW10 = np.array([float(10 ** k) for k in range(23)])
#: Veltkamp's splitting constant 2**27 + 1
_SPLIT = 134217729.0
#: '0000' .. '9999' as 4-byte words, so that a lookup copies one group
_DIGIT_GROUPS = np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(48)
).view(np.uint32).ravel()
#: trailing zeros of each of '0000' .. '9999'
_TRAILING_ZEROS = np.logical_and.accumulate(
    _DIGIT_GROUPS.view(np.uint8).reshape(-1, 4)[:, ::-1] == ord("0"), axis=1
).sum(axis=1, dtype=np.uint8)
#: 'e-00' .. 'e-99' as 4-byte words
_EXPONENTS = np.frombuffer(
    "".join(f"e-{k:02d}" for k in range(100)).encode("ascii"), dtype=np.uint32
)
#: characters in the longest '%.17g' of a float64, '-4.9406564584124654e-324'
_FIELD = 24
#: The writer's and reader's kernels take the values whose '%.17g' is
#: d.ddd...e-XX with XX from 5 to 26, those of [1e-26, 1e-4): a Haar file
#: at n = 20 holds next to no entry from 1e-4 up.  No double below 1e-4
#: rounds up to 1e-04 in 17 digits (the one below prints 9.99...91e-05).
_KERNEL_X = (5, 26)
_KERNEL_RANGE = (float(f"1e-{_KERNEL_X[1]}"), float(f"1e-{_KERNEL_X[0] - 1}"))
#: row k keeps the first k + 1 characters of a field and 'e-XX' after them
_PREFIXES = np.tri(_FIELD, dtype=bool)
_PREFIXES[:, 18:22] = True


def _tenth(s):
    """10**-s as a double-double (hi, lo): each is an integer quotient,
    which Python rounds correctly, and lo = 10**-s - hi exactly, rounded."""
    hi = 1 / 10**s
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10**s) / (den * 10**s)


#: 10**-s for s = 0 .. 44 as double-doubles hi + lo
_TENTHS_HI, _TENTHS_LO = np.array([_tenth(s) for s in range(45)]).T


def _two_product(a, b):
    """(x, y) with x = fl(a * b) and x + y = a * b exactly.

    Dekker's TwoProduct with Veltkamp splits (Dekker, "A floating-point
    technique for extending the available precision", Numer. Math. 18,
    1971); exact while nothing overflows or underflows.
    """
    x = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return x, a_lo * b_lo - (((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _scaled(p, s):
    """floor(p * 10**s) as int64, and the fraction above it to ~1e-15.

    For p >= 1e-26 and 17 <= s <= 44, with a = min(s, 22) and b = s - a,
    10**a and 10**b are exact doubles, and two TwoProducts give
    p * 10**s = h2 + l2 + l1 * 10**b exactly, where p * 10**a = h1 + l1.
    Once p * 10**s >= 2**53 the leading h2 is an integer, and the rest
    r = l2 + fl(l1 * 10**b), below 32 in size, is off by ~1e-15 at most.
    That moves the floor only where the fraction lies as near 0 or 1,
    and round(p * 10**s) comes out the same either way.
    """
    a = np.minimum(s, 22)
    ten_b = _POW10[s - a]
    h1, l1 = _two_product(p, _POW10[a])
    h2, l2 = _two_product(h1, ten_b)
    r = l2 + l1 * ten_b
    whole = np.floor(r)
    return h2.astype(np.int64) + whole.astype(np.int64), r - whole


def _format_g17(values, chars, keep):
    """Fill the ``(len(values), _FIELD)`` uint8 and bool arrays (or views)
    ``chars`` and ``keep`` so that row i of ``chars[keep]`` is the ASCII of
    ``'%.17g' % values[i]``, for a 1-D float64 array ``values``.

    Every x in ``_KERNEL_RANGE`` is formatted by whole-array operations:
    with s = 16 - floor(log10 x), its 17 significant digits are
    D = round(x * 10**s), from the product of ``_scaled``, and a D that
    rounds up to 10**17 becomes 10**16 one decade higher.  Left to
    ``'%.17g' % x`` itself are: an x whose unrounded floor(x * 10**s)
    lies outside [10**16, 10**17), because log10 was one off next to a
    power of ten (the double nearest 1e-6 is 9.9999999999999995e-07, and
    its rounded D = 10**16 would print 1e-06); a possible tie, whose
    fraction lies within 1e-9 of 1/2; and every x outside the range:
    zeros, -0.0, subnormals and every x from 1e-4 up.  The kernel's layout
    is %g's ``d.dddddddddddddddde-XX``, less trailing zeros (counted per
    4-digit group by lookup), and the '.' when no digit follows it.
    """
    x = np.asarray(values, dtype=np.float64)
    low, high = _KERNEL_RANGE
    fast = (x >= low) & (x < high)
    p = np.where(fast, x, 0.5)  # a stand-in, so that log10 sees no zero
    s = 16 - np.floor(np.log10(p)).astype(np.int64)
    floor, frac = _scaled(p, s)
    # an s that log10 put one off has its unrounded floor out of range
    fast &= (floor >= 10**16) & (floor < 10**17)
    fast &= np.abs(frac - 0.5) >= 1e-9
    digits = floor + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    decade = s - 16 - carry  # -X, the exponent's magnitude

    # the 16 digits after the first as four 4-digit groups, looked up
    first = digits // 10**16
    rest = digits - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = [high // 10**4, 0, low // 10**4, 0]
    groups[1] = high - groups[0] * 10**4
    groups[3] = low - groups[2] * 10**4
    chars[:, 0] = first + ord("0")
    chars[:, 1] = ord(".")
    chars[:, 2:18].view(np.uint32)[...] = _DIGIT_GROUPS[np.stack(groups, 1)]
    np.take(_EXPONENTS, decade, out=chars[:, 18:22].view(np.uint32)[:, 0],
            mode="clip")
    # trailing zeros of the 16 digits: a group of four adds the previous's
    trail = _TRAILING_ZEROS[groups[0]]
    for group in groups[1:]:
        zeros = _TRAILING_ZEROS[group]
        trail = zeros + (zeros == 4) * trail
    last = 16 - trail  # digits kept after the '.', which goes with none
    keep[...] = _PREFIXES[last + (last > 0)]
    slow = np.flatnonzero(~fast)
    if slow.size:
        # '%.17g' has no spaces, so the padding marks the end of the text
        text = "".join(["%-24.17g" % v for v in x[slow].tolist()])
        chars[slow] = np.frombuffer(text.encode("ascii"), dtype=np.uint8
                                    ).reshape(slow.size, _FIELD)
        keep[slow] = chars[slow] != ord(" ")


def write_probabilities(P, path):
    """Write the header, then ``bits,p`` with p as ``'%.17g'`` per row.

    Each chunk of ``_CHUNK_ROWS`` rows is one byte array, written through a
    keep mask.  Chunks start at multiples of their size, so the low
    min(n, 14) bit characters, the comma and the newline are set once; a
    chunk fills in its constant high bits and its values.
    """
    n, N = P.dims.n, P.dims.N
    low = min(n, _CHUNK_ROWS.bit_length() - 1)
    rows = np.empty((min(N, _CHUNK_ROWS), n + _FIELD + 2), dtype=np.uint8)
    keep = np.ones(rows.shape, dtype=bool)
    rows[:, n - low:n] = _bit_chars(np.arange(len(rows)), low)[:, :low]
    rows[:, n] = ord(",")
    rows[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(_HEADER + b"\n")
        for start in range(0, N, len(rows)):
            # the high bits, those of the chunk's first index
            rows[:, :n - low] = _bit_chars(np.array([start]), n)[:, :n - low]
            _format_g17(P.probs[start:start + len(rows)], rows[:, n + 1:-1],
                        keep[:, n + 1:-1])
            fh.write(rows[keep])


def _scan_probabilities(path, raw, lineno, n, filled):
    """Raise the error of the first malformed line in a batch.

    ``filled`` marks the indices of the rows before the batch, so that a
    duplicate ahead of the malformed line is reported first.  It is empty
    until the first good batch sets the dimensions.
    """
    seen = set()
    for lineno, line in enumerate(raw.tobytes().split(b"\n"), start=lineno):
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
            raise ValueError(f"{path}:{lineno}: duplicate bitstring "
                             f"{_text(bits)}")
        seen.add(j)
        if not (math.isfinite(p) and p >= -NEGATIVE_TOL):
            raise ValueError(f"{path}:{lineno}: bad probability {_text(val)}")
    raise AssertionError("batch failed its checks but every line parses")


def _eight_digits(words):
    """(values, ok) for uint64 words of eight ASCII characters, the first
    in the lowest byte: ok where all eight are digits, and then the number
    they spell.

    One mask test finds the digits, and two multiply-and-shift steps join
    them into pairs and the pairs into a number (Lemire, "Number parsing
    at a gigabyte per second", arXiv:2101.11408).
    """
    ok = ((words + np.uint64(0x4646464646464646))
          | (words - np.uint64(0x3030303030303030))
          ) & np.uint64(0x8080808080808080) == 0
    w = words - np.uint64(0x3030303030303030)
    w = w * np.uint64(10) + (w >> np.uint64(8))
    pairs = np.uint64(0x000000FF000000FF)
    w = ((w & pairs) * np.uint64(100 + (1000000 << 32))
         + ((w >> np.uint64(16)) & pairs) * np.uint64(1 + (10000 << 32)))
    return w >> np.uint64(32), ok


def _times_tenth(M, s):
    """M * 10**-s for int64 M below 2**63, rounded from a double-double
    product; within an ulp or so, and nearly always the nearest double."""
    hi = M.astype(np.float64)
    lo = (M - hi.astype(np.int64)).astype(np.float64)  # exact
    tenth_hi, tenth_lo = _TENTHS_HI[s], _TENTHS_LO[s]
    z, err = _two_product(hi, tenth_hi)
    z += err + (hi * tenth_lo + lo * tenth_hi)
    return z


def _decimal_values(text, first, ends):
    """(values, fast) for the value tokens ``text[first:ends]`` of a uint8
    array with ``_SLACK`` bytes after its last line; ``fast`` marks the
    values parsed here, which equal ``float(token)``.

    A token is read from gathered words: its first digit and '.', the 16
    digits after them as two 8-byte words, the bytes past the token set to
    '0' (the zeros '%.17g' drops), and 'e-XX' at its end.  In the layout
    '%.17g' prints for ``_KERNEL_RANGE``, ``d.ddd...e-XX`` (no '.' after a
    lone digit), with X in ``_KERNEL_X`` and at most 17 digits, it is
    exactly M * 10**-s, with M its 17 significant digits as an integer and
    s = 16 + X.  The candidate z = ``_times_tenth(M, s)`` is kept only
    where ``_scaled(z, s)``, the writer's own scaling, rounds z * 10**s to
    M: a floor in [10**16, 10**17), a fraction at least 1e-9 from 1/2, and
    floor + (fraction > 1/2) == M.  The token then lies within half a unit
    in its 17th digit of z, at most 5e-17 * z, which is less than half the
    spacing of doubles next to z (2**-54 * z or more), so the double
    nearest the token, ``float(token)``, is z.
    """
    lengths = ends - first
    more = lengths - 6  # digits after the first
    head = text[first] - np.uint8(ord("0"))
    # 'e-XX'; an offset below 0 (a token too short) wraps into the slack
    exponent = _gather(text, ends - 4, 1, "<u4")[0]
    tens = ((exponent >> np.uint32(16)) & np.uint32(0xFF)) - np.uint32(48)
    units = (exponent >> np.uint32(24)) - np.uint32(48)
    X = (tens * np.uint32(10) + units).astype(np.int64)
    ok = ((exponent & np.uint32(0xFFFF) == int.from_bytes(b"e-", "little"))
          & (tens <= 9) & (units <= 9) & (head <= 9) & (lengths >= 5)
          & ((text[first + 1] == ord(".")) | (lengths == 5))
          & (X >= _KERNEL_X[0]) & (X <= _KERNEL_X[1]) & (more <= 16))
    words = _gather(text, first + 2, 2)
    digits = _LOW_BYTES[np.clip(more - [[0], [8]], 0, 8)]
    words &= digits
    words |= _ZERO_CHARS & ~digits
    groups, digit_words = _eight_digits(words)
    ok &= digit_words[0] & digit_words[1]
    M = (head.astype(np.uint64) * np.uint64(10**16)
         + groups[0] * np.uint64(10**8) + groups[1]).astype(np.int64)
    M[~ok] = 10**16  # with s = 17, stand-ins that keep the arithmetic in range
    s = np.where(ok, 16 + X, 17)
    z = _times_tenth(M, s)
    floor, frac = _scaled(z, s)
    ok &= (floor >= 10**16) & (floor < 10**17)
    ok &= np.abs(frac - 0.5) >= 1e-9
    ok &= floor + (frac > 0.5) == M
    return z, ok


def _parse_probability_rows(text, ends, n):
    """(indices, values) of the stripped nonblank lines ``bits,value`` of
    the uint8 array ``text`` that end at the offsets ``ends``, with
    ``_SLACK`` bytes after the last; None if any is malformed.

    A line is well formed when its only comma sits at column n after n
    '0'/'1' characters and its value is a finite float >= -NEGATIVE_TOL.
    The bitstrings are words gathered at the line starts; each value token
    that ``_decimal_values`` leaves goes to ``float``.
    """
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if (n < 1 or (ends - starts <= n).any()
            or np.count_nonzero(text[:ends[-1]] == ord(",")) != ends.size
            or (text[starts + n] != ord(",")).any()):
        return None
    indices = _bit_indices(_gather(text, starts, -(-n // 8)), n)
    if indices is None:
        return None
    first = starts + (n + 1)
    values, fast = _decimal_values(text, first, ends)
    slow = np.flatnonzero(~fast)
    if slow.size:
        tokens = memoryview(text)
        try:
            values[slow] = [float(tokens[a:b]) for a, b
                            in zip(first[slow].tolist(), ends[slow].tolist())]
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
            raise ValueError(f"{path}: expected header "
                             f"'bitstring,probability', got {_text(header)}")
        for raw, lineno, text, ends in _batches(fh, 2):
            if dims is None:
                n = text[:ends[0]].tobytes().find(b",")
                # a well-formed first row that sets n above the cap is the
                # first offending line, whatever follows it in the batch
                if _parse_probability_rows(text, ends[:1], n) is not None:
                    dims = _dims_at(path, raw, lineno, n)
                    probs = np.empty(dims.N)
                    filled = np.zeros(dims.N, dtype=bool)
            else:
                n = dims.n
            parsed = _parse_probability_rows(text, ends, n)
            if parsed is not None:
                indices, values = parsed
                # rows in file order cannot repeat each other; in any other
                # order a sort finds repeats far faster than np.unique
                repeats = False
                if not (indices[1:] > indices[:-1]).all():
                    ordered = np.sort(indices)
                    repeats = (ordered[1:] == ordered[:-1]).any()
                if repeats or filled[indices].any():
                    parsed = None
            if parsed is None:
                _scan_probabilities(path, raw, lineno, n, filled)
            filled[indices] = True
            probs[indices] = values
    if dims is None:
        raise ValueError(f"{path}: no probability rows found")
    count = np.count_nonzero(filled)
    if count != dims.N:
        raise ValueError(f"{path}: expected {dims.N} rows covering all "
                         f"bitstrings, got {count}")
    try:
        return OutputDistribution(dims, probs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
