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
        if values.dtype.kind not in "biu":
            whole = np.isfinite(values) & (np.trunc(values) == values)
            if not whole.all():
                bad = float(values[~whole][0])
                raise ValueError(f"bitstring index {bad!r} is not an integer")
        check_bitstring_range(values, self.dims.N)
        self.bitstrings = values.astype(np.int64, copy=False)

    @property
    def T(self):
        return int(self.bitstrings.size)


def check_bitstring_range(bitstrings, N):
    """Raise unless every index in the ``bitstrings`` array lies in [0, N)."""
    if bitstrings.size and (bitstrings.min() < 0 or bitstrings.max() >= N):
        raise ValueError("bitstring index out of range")


def depolarize(probs, F):
    """Global depolarizing noise F * P + (1 - F) / N along the last axis."""
    out = probs * F
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


def bitstring_to_index(s):
    return int(s, 2)


# Rows per write chunk and bytes per read batch: each step runs whole-array
# operations over many rows while its temporaries stay a few MiB.
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


def _bit_values(chars):
    """0/1 values of an array of ASCII '0'/'1' characters.

    Returns None if any other character occurs, so that the caller can name
    the offending line.
    """
    bits = chars - np.uint8(ord("0"))
    return None if (bits > 1).any() else bits


def _bits_to_indices(bits):
    """Integer indices of the rows of a ``(rows, n)`` array of 0/1 values,
    most significant bit first, for n <= 32."""
    words = np.zeros((len(bits), 32), dtype=np.uint8)
    words[:, 32 - bits.shape[1]:] = bits
    return np.packbits(words).view(">u4").astype(np.int64)


def _text(raw):
    """Quoted form of raw file bytes for an error message."""
    return repr(raw.decode("utf-8", "backslashreplace"))


def _batches(fh, lineno):
    """Yield (raw, first line number, text, newline offsets) per batch.

    A batch is the next ``_BATCH_BYTES`` read, cut after its last newline;
    the rest opens the next batch, a line longer than a read extends its
    batch, and a short read, which ends the file, is not cut.  ``raw``
    holds the batch's whole lines, the file's last one with a newline
    added.  ``text`` is ``raw`` with every line stripped and the blank
    lines dropped, and ``ends`` the offset of each of its newlines.  A
    batch with no whitespace but the newline that ends each line, and no
    blank line, is its own ``text``; any other is rebuilt line by line.
    """
    tail = []
    while True:
        chunk = fh.read(_BATCH_BYTES)
        # a blocking read comes up short only at the end of the file
        end = len(chunk) < _BATCH_BYTES
        cut = len(chunk) if end else chunk.rfind(b"\n") + 1
        if not cut and not end:
            tail.append(chunk)  # part of a line longer than a read
            continue
        raw = b"".join([*tail, memoryview(chunk)[:cut]])
        tail = [chunk[cut:]]
        del chunk
        if not raw:
            return
        if not raw.endswith(b"\n"):
            raw += b"\n"
        buf = np.frombuffer(raw, dtype=np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        lines = ends.size
        text = raw
        # every whitespace byte sorts at or below b" "
        if (ends[0] == 0 or (ends[1:] - ends[:-1] == 1).any()
                or np.count_nonzero(buf <= ord(" ")) != lines):
            rows = [s for s in map(bytes.strip, raw.split(b"\n")) if s]
            text = b"\n".join(rows) + b"\n" if rows else b""
            ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8)
                                  == ord("\n"))
        yield raw, lineno, text, ends
        lineno += lines


def _dims_at(path, text, lineno, n):
    """SystemDims(n), with an error naming the first nonblank line of a
    batch that starts at line ``lineno``."""
    try:
        return SystemDims(n)
    except ValueError as exc:
        lineno += text.count(b"\n", 0, len(text) - len(text.lstrip()))
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


def _sample_bits(text, rows, n):
    """``(rows, n)`` 0/1 bits of a batch's stripped lines; None unless every
    line is n '0'/'1' characters."""
    # The lines hold no other newline, so with the size right and a newline
    # ending every n + 1 bytes, each line is n long.
    buf = np.frombuffer(text, dtype=np.uint8)
    if buf.size != rows * (n + 1):
        return None
    chars = buf.reshape(rows, n + 1)
    if (chars[:, n] != ord("\n")).any():
        return None
    return _bit_values(chars[:, :n])


def read_samples(path, dims=None):
    """Sample file: one bitstring of '0'/'1' per line.

    Blank lines and surrounding whitespace are ignored.  Without ``dims``
    the first bitstring sets n.  Errors name the offending ``path:line``.
    """
    parts = [np.empty(0, dtype=np.int64)]
    with open(path, "rb") as fh:
        for raw, lineno, text, ends in _batches(fh, 1):
            if not ends.size:
                continue
            if dims is None:
                n = int(ends[0])
                # a well-formed first line that sets n above the cap is the
                # first offending line, whatever follows it in the batch
                if _sample_bits(text[:n + 1], 1, n) is not None:
                    dims = _dims_at(path, raw, lineno, n)
            else:
                n = dims.n
            bits = _sample_bits(text, ends.size, n)
            if bits is None:
                _scan_samples(path, raw.split(b"\n"), lineno, n)
            parts.append(_bits_to_indices(bits))
    if dims is None:
        raise ValueError(f"{path}: no bitstrings found")
    return SampleSet(dims, np.concatenate(parts))


#: 10**0 .. 10**22, each an exact double since 5**22 < 2**53
_POW10 = np.array([float(10 ** k) for k in range(23)])
#: Veltkamp's splitting constant 2**27 + 1
_SPLIT = 134217729.0
#: '0000' .. '9999' as 4-byte words, so that a lookup copies one group
_DIGIT_GROUPS = np.frombuffer(
    "".join(f"{k:04d}" for k in range(10**4)).encode("ascii"), dtype=np.uint32
)
#: 'e-00' .. 'e-99' as 4-byte words
_EXPONENTS = np.frombuffer(
    "".join(f"e-{k:02d}" for k in range(100)).encode("ascii"), dtype=np.uint32
)
#: characters in the longest '%.17g' of a float64, '-4.9406564584124654e-324'
_FIELD = 24
#: The writer's and reader's kernels take the values whose '%.17g' is
#: d.ddd...e-XX with XX from 5 to 26, those of [1e-26, 1e-4): a Haar file
#: at n = 20 holds next to no entry from 1e-4 up.  No double below 1e-4
#: rounds up to 1e-04 in 17 digits (the one below it prints
#: 9.9999999999999991e-05).
_KERNEL_X = (5, 26)
_KERNEL_RANGE = (float(f"1e-{_KERNEL_X[1]}"), float(f"1e-{_KERNEL_X[0] - 1}"))
#: row k keeps the first k + 1 characters of a field
_PREFIXES = np.tri(_FIELD, dtype=bool)


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


def _format_g17(values):
    """The text of ``'%.17g' % x`` for each float64 x of a 1-D array.

    Returns ``(chars, keep)``, two ``(len(values), _FIELD)`` arrays: row i
    of ``chars[keep]`` is the ASCII of ``'%.17g' % values[i]``.

    Every x in ``_KERNEL_RANGE`` is formatted by whole-array operations:
    with s = 16 - floor(log10 x), its 17 significant digits are
    D = round(x * 10**s), from the product of ``_scaled``, and a D that
    rounds up to 10**17 becomes 10**16 one decade higher.  Left to
    ``'%.17g' % x`` itself are: an x whose unrounded floor(x * 10**s)
    lies outside [10**16, 10**17), because log10 was one off next to a
    power of ten (the double nearest 1e-6 is 9.9999999999999995e-07, and
    its rounded D = 10**16 would print 1e-06); a possible tie, whose
    fraction lies within 1e-9 of 1/2; and every x outside the range:
    zeros, -0.0, subnormals and every x from 1e-4 up.

    The kernel's layout is %g's ``d.dddddddddddddddde-XX``, with trailing
    zeros dropped, and the '.' when no digit follows it.
    """
    x = np.asarray(values, dtype=np.float64)
    rows = x.size
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
    groups = np.empty((rows, 4), dtype=np.int64)
    head, tail = np.divmod(digits, 10**8)
    head, groups[:, 1] = np.divmod(head, 10**4)
    first, groups[:, 0] = np.divmod(head, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(tail, 10**4)

    chars = np.empty((rows, _FIELD), dtype=np.uint8)
    chars[:, 0] = first + ord("0")
    chars[:, 1] = ord(".")
    chars[:, 2:18] = _DIGIT_GROUPS[groups].view(np.uint8)
    chars[:, 18:22] = np.take(_EXPONENTS, decade)[:, None].view(np.uint8)
    # index of the last nonzero digit of the 17; the '.' stops the search
    last = 16 - np.argmax(chars[:, 17::-1] != ord("0"), axis=1)
    end = np.where(last > 0, last + 1, 0)  # last character kept
    keep = np.take(_PREFIXES, end, axis=0)
    keep[:, 18:22] = True
    slow = np.flatnonzero(~fast)
    if slow.size:
        # '%.17g' has no spaces, so the padding marks the end of the text
        text = "".join(["%-24.17g" % v for v in x[slow].tolist()])
        chars[slow] = np.frombuffer(text.encode("ascii"), dtype=np.uint8
                                    ).reshape(slow.size, _FIELD)
        keep[slow] = chars[slow] != ord(" ")
    return chars, keep


def write_probabilities(P, path):
    """Write the header, then ``bits,p`` with p as ``'%.17g'`` per row."""
    n = P.dims.n
    with open(path, "wb") as fh:
        fh.write(_HEADER + b"\n")
        for start in range(0, P.dims.N, _CHUNK_ROWS):
            chunk = P.probs[start:start + _CHUNK_ROWS]
            rows = np.empty((chunk.size, n + _FIELD + 2), dtype=np.uint8)
            keep = np.ones(rows.shape, dtype=bool)
            rows[:, :n] = _bit_chars(np.arange(start, start + chunk.size), n)
            rows[:, n] = ord(",")
            rows[:, n + 1:-1], keep[:, n + 1:-1] = _format_g17(chunk)
            rows[:, -1] = ord("\n")
            fh.write(rows[keep])


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


def _decimal_tokens(padded, first, lengths):
    """(M, s, ok) for the value tokens that start at column ``first`` of
    the rows of a zero-padded C-ordered uint8 array ``padded``.

    ``lengths`` holds each token's length.  ``ok`` marks the tokens in
    the layout ``'%.17g'`` prints for ``_KERNEL_RANGE``, ``d.ddd...e-XX``
    (no '.' after a lone digit), with X in ``_KERNEL_X`` and at most 17
    digits.  Each such token is exactly M * 10**-s, with M its 17
    significant digits (the dropped trailing zeros put back) as an integer
    and s = 16 + X.
    Elsewhere M is 10**16 and s is 17, stand-ins that keep later
    arithmetic in range.
    """
    rows, width = padded.shape
    tokens = padded[:, first:]
    # the scientific layout ends in 'e-XX'
    flat = padded.reshape(-1)
    at = (np.arange(rows) * width + (first - 4)
          + np.clip(lengths, 4, _FIELD))
    e, minus, tens, units = (flat[at + k] for k in range(4))
    tens -= np.uint8(ord("0"))
    units -= np.uint8(ord("0"))
    ok = ((e == ord("e")) & (minus == ord("-")) & (tens <= 9) & (units <= 9)
          & (lengths >= 5) & ((tokens[:, 1] == ord(".")) | (lengths == 5)))
    X = tens.astype(np.int64) * 10 + units
    more = lengths - 6  # digits after the first
    # the 17 digits, after seven '0's that fill three 8-byte words
    digits = np.empty((rows, 24), dtype=np.uint8)
    digits[:, :7] = ord("0")
    digits[:, 7] = tokens[:, 0]
    digits[:, 8:] = tokens[:, 2:18]
    ok &= (X >= _KERNEL_X[0]) & (X <= _KERNEL_X[1]) & (more <= 16)
    # the trailing zeros that '%.17g' drops
    short = np.flatnonzero(more < 16)
    digits[short, 8:] = np.where(np.arange(16) < more[short, None],
                                 digits[short, 8:], np.uint8(ord("0")))
    groups, digit_words = _eight_digits(digits.view("<u8"))
    ok &= digit_words.all(axis=1)
    M = (groups[:, 0] * np.uint64(10**16) + groups[:, 1] * np.uint64(10**8)
         + groups[:, 2]).astype(np.int64)
    M[~ok] = 10**16
    return M, np.where(ok, 16 + X, 17), ok


def _times_tenth(M, s):
    """M * 10**-s for int64 M below 2**63, rounded from a double-double
    product; within an ulp or so, and nearly always the nearest double."""
    hi = M.astype(np.float64)
    lo = (M - hi.astype(np.int64)).astype(np.float64)  # exact
    tenth_hi, tenth_lo = _TENTHS_HI[s], _TENTHS_LO[s]
    z, err = _two_product(hi, tenth_hi)
    z += err + (hi * tenth_lo + lo * tenth_hi)
    return z


def _parse_values(padded, first, lengths):
    """(values, fast) for the value tokens that start at column ``first``
    of the rows of a zero-padded C-ordered uint8 array ``padded``.

    ``lengths`` holds each token's length.  ``fast`` marks the tokens
    parsed here, whose values equal ``float(token)``; the other values are
    meaningless and left to the caller.

    The tokens are those of ``_decimal_tokens``, exactly M * 10**-s.  The
    candidate z = ``_times_tenth(M, s)`` is kept only where
    ``_scaled(z, s)``, the writer's own scaling, rounds z * 10**s to M: a
    floor in [10**16, 10**17), a fraction at least 1e-9 from 1/2, and
    floor + (fraction > 1/2) == M.  The token then lies within half a unit
    in its 17th digit of z, at most 5e-17 * z, which is less than half the
    spacing of doubles next to z (2**-54 * z or more), so the double
    nearest the token, ``float(token)``, is z.
    """
    M, s, fast = _decimal_tokens(padded, first, lengths)
    z = _times_tenth(M, s)
    floor, frac = _scaled(z, s)
    fast &= (floor >= 10**16) & (floor < 10**17)
    fast &= np.abs(frac - 0.5) >= 1e-9
    fast &= floor + (frac > 0.5) == M
    return z, fast


def _padded_rows(text, starts, lengths, width):
    """The lines of ``text`` as the rows of a zero-padded ``(lines, width)``
    uint8 array, newline included, scattered with one mask: the reverse of
    the writer's ``rows[keep]``.  A longer line keeps its first ``width``
    bytes."""
    buf = np.frombuffer(text, dtype=np.uint8)
    keep = np.arange(width) <= np.minimum(lengths, width - 1)[:, None]
    long = np.flatnonzero(lengths >= width)
    if long.size:
        # drop the bytes past each long line's row; +1 and -1 bound each cut
        cut = np.zeros(buf.size + 1, dtype=np.int8)
        cut[starts[long] + width] = 1
        cut[starts[long] + lengths[long] + 1] = -1
        buf = buf[np.cumsum(cut[:-1], dtype=np.int8) == 0]
    padded = np.zeros(keep.shape, dtype=np.uint8)
    padded[keep] = buf
    return padded


def _parse_probability_rows(text, ends, n):
    """(bits, values) of a batch's stripped nonblank lines ``bits,value``,
    each ending at its offset in ``ends``; None if any is malformed.

    A line is well formed when its only comma sits at column n after n
    '0'/'1' characters and its value is a finite float >= -NEGATIVE_TOL.
    ``bits`` is a ``(lines, n)`` array of 0/1 values.  The lines become the
    rows of a padded array, so that each column group is checked and
    parsed at once; ``_parse_values`` reads the values, and each token it
    leaves goes to ``float``.
    """
    if n < 1:
        return None
    buf = np.frombuffer(text, dtype=np.uint8)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    if (lengths <= n).any():
        return None
    if np.count_nonzero(buf == ord(",")) != ends.size:
        return None
    if (buf[starts + n] != ord(",")).any():
        return None
    padded = _padded_rows(text, starts, lengths, n + 2 + _FIELD)
    bits = _bit_values(padded[:, :n])
    if bits is None:
        return None
    values, fast = _parse_values(padded, n + 1, lengths - (n + 1))
    slow = np.flatnonzero(~fast)
    if slow.size:
        firsts = (starts[slow] + n + 1).tolist()
        try:
            values[slow] = [float(text[a:b]) for a, b
                            in zip(firsts, ends[slow].tolist())]
        except ValueError:
            return None
    if not (np.isfinite(values).all() and values.min() >= -NEGATIVE_TOL):
        return None
    return bits, values


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
        for raw, lineno, text, ends in _batches(fh, 2):
            if not ends.size:
                continue
            if dims is None:
                n = text.find(b",", 0, ends[0])
                # a well-formed first row that sets n above the cap is the
                # first offending line, whatever follows it in the batch
                first = ends[:1]
                if _parse_probability_rows(text[:first[0] + 1], first,
                                           n) is not None:
                    dims = _dims_at(path, raw, lineno, n)
                    probs = np.empty(dims.N)
                    filled = np.zeros(dims.N, dtype=bool)
            else:
                n = dims.n
            parsed = _parse_probability_rows(text, ends, n)
            if parsed is not None:
                bits, values = parsed
                indices = _bits_to_indices(bits)
                # a sort finds in-batch repeats far faster than np.unique
                ordered = np.sort(indices)
                repeats = (ordered[1:] == ordered[:-1]).any()
                if repeats or filled[indices].any():
                    parsed = None
            if parsed is None:
                _scan_probabilities(path, raw.split(b"\n"), lineno, n,
                                    filled)
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
