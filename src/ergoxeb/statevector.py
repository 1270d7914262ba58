"""Dense statevector simulation of gate programs.

Bit convention: a bitstring x = (x_{n-1}, ..., x_0) maps to the integer
j = sum_k x_k 2^k, i.e. the rightmost character of the written string is the
least significant bit.  All file formats in this package use this convention.
"""

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

DEFAULT_QUBIT_CAP = 24
UNITARY_TOL = 1e-12
NORM_TOL = 1e-10
NEGATIVE_TOL = 1e-15  # rounding noise tolerated below zero in a probability


@dataclass(frozen=True)
class SystemDims:
    """Qubit count n and Hilbert dimension N = 2**n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        if self.n > DEFAULT_QUBIT_CAP:
            raise ValueError(
                f"qubit count {self.n} exceeds cap {DEFAULT_QUBIT_CAP}"
            )

    @property
    def N(self):
        return 1 << self.n


@dataclass
class PureState:
    """Normalized complex amplitude vector over computational basis states."""

    dims: SystemDims
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.dims.N,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({self.dims.N},)"
            )
        # not np.vdot: OpenBLAS threads zdotc from 2**16 amplitudes on
        norm = float((np.abs(self.amplitudes) ** 2).sum())
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm!r} deviates from 1")

    @classmethod
    def zero(cls, dims):
        amps = np.zeros(dims.N, dtype=np.complex128)
        amps[0] = 1.0
        return cls(dims, amps)


def check_probability_rows(probs):
    """Validated probability vectors along the last axis of ``probs``.

    Every row must have entries >= -NEGATIVE_TOL (no NaN) and a sum within
    NORM_TOL of 1.  Tiny negative entries are clipped to zero, and a row
    whose sum is off by more than 1e-12 is divided by it; other rows keep
    their bits.  Both make new arrays, so the caller's array is never
    modified.  Returns the float64 rows.
    """
    probs = np.asarray(probs, dtype=np.float64)
    # min() is NaN when any entry is, which fails the comparison; +inf
    # fails the sum check below
    lowest = probs.min(axis=-1)
    if not (lowest >= -NEGATIVE_TOL).all():
        raise ValueError(
            f"probability entries below -{NEGATIVE_TOL:g} or NaN"
        )
    if (lowest < 0.0).any():
        probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=-1)
    off = np.abs(total - 1.0)
    if (off > 1e-12).any():
        if (off > NORM_TOL).any():
            bad = float(np.ravel(total)[np.ravel(off > NORM_TOL)][0])
            raise ValueError(f"probabilities sum to {bad!r}, not 1")
        # dividing by 1.0 leaves the rows within 1e-12 bit for bit
        probs = probs / np.where(off > 1e-12, total, 1.0)[..., None]
    return probs


@dataclass
class OutputDistribution:
    """Probabilities P(x) = |<x|U|0^n>|^2 over all N bitstrings."""

    dims: SystemDims
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (self.dims.N,):
            raise ValueError(
                f"probability vector has shape {probs.shape}, "
                f"expected ({self.dims.N},)"
            )
        self.probs = check_probability_rows(probs)


def _check_gate(n, targets, block):
    """One gate's (targets, block) as ints and complex128; ValueError if its
    targets or its block's shape are malformed."""
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target qubit {t} out of range for n={n}")
    block = np.asarray(block, dtype=np.complex128)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValueError(f"gate block must be square, got shape {block.shape}")
    if block.shape[0] != 1 << len(targets):
        raise ValueError(
            f"block dimension {block.shape[0]} does not match "
            f"{len(targets)} target qubits"
        )
    return targets, block


def _stack_gates(n, gates):
    """``_check_gate`` for every gate, in whole-array steps per width.

    Returns (targets, by_width, stacks): each gate's targets as a tuple of
    ints, the positions of the gates on k qubits under key k, and their
    blocks as one (G, 2**k, 2**k) complex128 array under key k.  Returns
    None if some gate fails ``_check_gate``.
    """
    try:
        targets = [tuple(map(int, qubits)) for qubits, _ in gates]
        blocks = [np.asarray(block, dtype=np.complex128) for _, block in gates]
    except (TypeError, ValueError, OverflowError):
        return None
    by_width = {}
    for i, qubits in enumerate(targets):
        by_width.setdefault(len(qubits), []).append(i)
    stacks = {}
    for k, index in by_width.items():
        d = 1 << k
        if any(blocks[i].shape != (d, d) for i in index):
            return None
        try:
            qubits = np.fromiter(
                itertools.chain.from_iterable(targets[i] for i in index),
                dtype=np.int64, count=len(index) * k,
            ).reshape(len(index), k)
        except OverflowError:  # a target past int64 is out of range
            return None
        ordered = np.sort(qubits, axis=1)
        if ((qubits < 0) | (qubits >= n)).any() \
                or (ordered[:, 1:] == ordered[:, :-1]).any():
            return None
        stacks[k] = np.array([blocks[i] for i in index])
    return targets, by_width, stacks


def _unitarity_errors(stack):
    """max |U^dag U - I| of each matrix of a (G, m, m) stack."""
    # an inf entry makes NaN here, which fails the caller's check
    with np.errstate(invalid="ignore", over="ignore"):
        product = stack.conj().transpose(0, 2, 1) @ stack
        product -= np.eye(stack.shape[1])
        return np.abs(product).max(axis=(1, 2))


@dataclass
class GateProgram:
    """A circuit: an ordered gate list, applied to |0^n>.

    Each gate is (targets, block) where ``targets`` lists distinct qubit
    indices and ``block`` is a dense unitary of dimension 2**len(targets).
    Bit j of a block's row/column index is the value of qubit targets[j].
    Every gate's targets and shape are checked before any block's
    unitarity, and the first failing gate in list order is reported.  The
    blocks of the gates on k qubits are copied into one (G, 2**k, 2**k)
    stack, in list order, and ``gates`` holds views of it.
    """

    dims: SystemDims
    gates: list = field(default_factory=list)
    # k -> the stacked blocks of the gates on k qubits, which the kernel
    # gathers from
    _stacks: dict = field(default=None, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        n = self.dims.n
        checked = _stack_gates(n, self.gates)
        if checked is None:
            # _check_gate raises for the first malformed gate
            checked = _stack_gates(n, [_check_gate(n, targets, block)
                                       for targets, block in self.gates])
        targets, by_width, stacks = checked
        errs = np.empty(len(targets))
        for k, index in by_width.items():
            errs[index] = _unitarity_errors(stacks[k])
        bad = np.flatnonzero(~(errs <= UNITARY_TOL))  # NaN entries fail too
        if bad.size:
            raise ValueError(
                f"gate block non-unitary: max |U^dag U - I| = {errs[bad[0]]:g}"
            )
        blocks = [None] * len(targets)
        for k, index in by_width.items():
            for i, block in zip(index, stacks[k]):
                blocks[i] = block
        self.gates = list(zip(targets, blocks))
        self._stacks = stacks


FUSE_WIDTH = 5  # widest qubit window merged into one dense block
_WIDEN_BELOW = 3  # a window starting below this qubit is widened to qubit 0
_ITEM_MACS = 1 << 15  # complex multiply-adds per matmul batch item


def _contract(src, n, targets, block, out=None):
    """Return ``block`` applied to qubits ``targets`` of ``src``, by einsum.

    ``src`` is a (2,)*n + batch tensor whose axis n-1-q is qubit q; the
    result, written to ``out`` when given, has the same shape.
    """
    k = len(targets)
    labels = list(range(src.ndim))
    # Row/column axis a of the reshaped block is bit k-1-a of its index,
    # i.e. qubit targets[k-1-a].
    axes = [n - 1 - t for t in reversed(targets)]
    new = list(range(src.ndim, src.ndim + k))
    out_labels = labels.copy()
    for a, label in zip(axes, new):
        out_labels[a] = label
    return np.einsum(block.reshape((2,) * (2 * k)), new + axes, src, labels,
                     out_labels, out=out)


def _runs(targets):
    """Group the gates with per-gate target tuples ``targets`` into runs,
    returned as (start, stop, gate positions).

    A run starts at the first gate not yet applied.  It then takes every
    gate that is next on each of its qubits (all earlier gates on them are
    applied) and keeps the run's window [start, stop) within FUSE_WIDTH
    qubits; a window starting below _WIDEN_BELOW is counted from qubit 0,
    as ``_apply_gates`` widens it there.  Such a gate shares no qubit with
    the earlier gates it moves ahead of, so they commute and the product
    is unchanged.  The next gates of the qubits are swept from low qubit
    to high until a sweep takes none.  A run lists its gates in the order
    they were taken, so each qubit sees its gates in list order.  A gate
    spanning more than FUSE_WIDTH qubits, or a global phase with no
    targets, is a run of its own with start and stop None.
    """
    spans = []
    stacks = {}  # qubit -> positions of its gates not yet taken, next last
    for i, qubits in enumerate(targets):
        if qubits and max(qubits) - min(qubits) < FUSE_WIDTH:
            spans.append((min(qubits), max(qubits) + 1))
        else:
            spans.append((None, None))
        for q in qubits:
            stacks.setdefault(q, []).append(i)
    n = max(stacks, default=-1) + 1
    stacks = [stacks.get(q, [])[::-1] for q in range(n)]
    # per gate, the number of its qubits whose next gate is an earlier one
    waits = [len(qubits) for qubits in targets]
    for stack in stacks:
        if stack:
            waits[stack[-1]] -= 1
    taken = [False] * len(targets)

    def take(i):
        taken[i] = True
        for q in targets[i]:
            stack = stacks[q]
            stack.pop()
            if stack:
                waits[stack[-1]] -= 1

    runs = []
    first = 0
    while True:
        while first < len(targets) and taken[first]:
            first += 1
        if first == len(targets):
            return tuple(runs)
        lo, hi = spans[first]
        run = [first]
        take(first)
        grew = lo is not None
        while grew:
            grew = False
            # a gate on a qubit outside this range cannot fit the window
            for q in range(max(0, hi - FUSE_WIDTH), min(n, lo + FUSE_WIDTH)):
                stack = stacks[q]
                if not stack or waits[stack[-1]]:
                    continue
                i = stack[-1]
                g_lo, g_hi = spans[i]
                if g_lo is None:
                    continue
                new_lo, new_hi = min(lo, g_lo), max(hi, g_hi)
                if new_hi - (0 if new_lo < _WIDEN_BELOW else new_lo) \
                        <= FUSE_WIDTH:
                    lo, hi = new_lo, new_hi
                    run.append(i)
                    take(i)
                    grew = True
        runs.append((lo, hi, tuple(run)))


# The plan depends on the targets alone, and every member of a brickwork
# ensemble has the same targets; a scan builds one ensemble at a time, so
# a few entries suffice.
@functools.lru_cache(maxsize=8)
def _schedule(targets):
    """The runs of ``_runs(targets)`` and the plan that builds their
    blocks.

    Returns (runs, layouts, windows).  ``runs`` holds each run as (start,
    stop, gate positions).  The window runs are grouped by layout: the
    window's width, counted from qubit 0 below _WIDEN_BELOW, and the
    window-relative targets of its gates in run order.  ``layouts`` holds
    each layout as (width, window count, steps), a step per gate position
    as ``_layout_step`` makes it; ``windows`` holds each run's (window
    start, layout, slot among the layout's windows), or None for a run of
    its own.
    """
    runs = _runs(targets)
    rows = []  # per gate, its row in the stack of the gates of its width
    seen = {}
    for qubits in targets:
        rows.append(seen.get(len(qubits), 0))
        seen[len(qubits)] = rows[-1] + 1
    groups = {}  # layout -> (its number, the gate positions of its windows)
    windows = []
    for start, stop, positions in runs:
        if start is None:
            windows.append(None)
            continue
        low = 0 if start < _WIDEN_BELOW else start
        layout = (stop - low, tuple(tuple(t - low for t in targets[i])
                                    for i in positions))
        number, members = groups.setdefault(layout, (len(groups), []))
        windows.append((low, number, len(members)))
        members.append(positions)
    layouts = tuple(
        (width, len(members), tuple(
            _layout_step(qubits, np.array([rows[p[j]] for p in members]))
            for j, qubits in enumerate(relative)))
        for (width, relative), (_, members) in groups.items()
    )
    return runs, layouts, tuple(windows)


def _layout_step(qubits, rows):
    """(low, k, rows, gather) for one gate position of a layout.

    The gate acts on window qubits ``qubits`` (bit j of its block index is
    qubit qubits[j]); ``rows`` locate its blocks in the stack of k-qubit
    gates.  If the qubits ascend without a gap from ``low``, gather is
    None.  Otherwise gather = (index, agree) expands each block to the
    span [low, low + s) of its qubits: entry (x, y) is block[m(x), m(y)]
    with m(x) = sum_j bit(x, qubits[j] - low) << j where x and y agree on
    the span's other qubits, and 0 elsewhere.
    """
    k = len(qubits)
    low = min(qubits)
    if qubits == tuple(range(low, low + k)):
        return low, k, rows, None
    x = np.arange(1 << (max(qubits) + 1 - low))
    m = np.zeros_like(x)
    rest = x.copy()
    for j, q in enumerate(qubits):
        m |= ((x >> (q - low)) & 1) << j
        rest &= ~(1 << (q - low))
    index = (m[:, None] << k) | m[None, :]
    return low, k, rows, (index, rest[:, None] == rest[None, :])


def _build_windows(layouts, stacks):
    """The dense blocks of the fused windows: per layout of ``_schedule``,
    a (B, 2**w, 2**w) stack, one block per window.

    Bit i of a block's row/column index is qubit i of its window.  The B
    blocks start as identities, whose columns are the batch axis; each
    gate position of the layout is then applied to all B at once by
    ``_apply_window``, its B gate blocks gathered from ``stacks`` by one
    index (and expanded to their span by ``_layout_step``'s gather).
    """
    built = []
    for width, count, steps in layouts:
        d = 1 << width
        cur = np.zeros((count, d, d), dtype=np.complex128)
        cur[:, np.arange(d), np.arange(d)] = 1.0
        nxt = np.empty_like(cur)
        for low, k, rows, gather in steps:
            blocks = stacks[k][rows]
            if gather is not None:
                index, agree = gather
                blocks = np.where(agree, blocks.reshape(count, -1)[:, index],
                                  0.0)
            _apply_window(cur, nxt, low, d, blocks)
            cur, nxt = nxt, cur
        built.append(cur)
    return built


def _apply_window(src, dst, start, batch, matrix):
    """Write ``matrix`` applied to qubits [start, start + w) of src to dst.

    ``src`` and ``dst`` are C-ordered buffers of states times a trailing
    batch of ``batch`` columns; ``matrix`` is 2**w square.  A (B, 2**w,
    2**w) stack of matrices applies its b-th matrix to the b-th of B equal
    parts of the buffers.
    """
    d = matrix.shape[-1]
    stack = matrix.shape[:-2]
    lo = (1 << start) * batch
    per_item = max(1, _ITEM_MACS // (d * d))
    # Batch items of at most _ITEM_MACS multiply-adds run on the calling
    # thread: OpenBLAS hands a complex product to its worker threads once
    # M*N*K reaches 2**16, and window blocks are built here too.  Threaded,
    # these small products gain ~10% on an idle 2-CPU machine, but a
    # worker then spins after every call, and a brickwork pass at n=16 ran
    # ~2.6x slower while one other process kept a CPU busy.  Small items
    # also keep BLAS's pack buffers small.
    if lo == 1:
        rows = min(src.size * d // matrix.size, per_item)
        shape = stack + (-1, rows, d)
        np.matmul(src.reshape(shape),
                  np.swapaxes(matrix, -1, -2)[..., None, :, :],
                  out=dst.reshape(shape))
        return
    c = min(lo, per_item)
    shape = stack + (-1, d, lo // c, c)
    np.matmul(matrix[..., None, None, :, :],
              np.swapaxes(src.reshape(shape), -3, -2),
              out=np.swapaxes(dst.reshape(shape), -3, -2))


def _apply_gates(amps, program):
    """Apply the gates of ``program`` in order to ``amps`` and return the
    resulting array.

    ``amps`` has shape (N,) or (N, B); a trailing axis is a batch of B
    independent states.  Each window run of ``_runs`` becomes one dense
    block on its qubit window (``_build_windows``), applied with one
    ``np.matmul(..., out=)`` on a (hi, 2**w, lo) view, lo being 2**start
    times B.  A run may take gates ahead of earlier gates on other qubits,
    which commute with them, so the result is the list-order product up to
    rounding.  Results go to a second buffer; the two buffers swap roles
    after every step, so ``amps`` itself is overwritten once there are two
    steps.
    """
    n = program.dims.n
    gates = program.gates
    runs, layouts, windows = _schedule(tuple(t for t, _ in gates))
    blocks = _build_windows(layouts, program._stacks)
    tensor = (2,) * n + amps.shape[1:]
    columns = amps.size >> n
    cur = amps.reshape(-1)
    nxt = np.empty_like(cur)
    for (_, _, positions), window in zip(runs, windows):
        if window is None:
            # A gate spanning more than FUSE_WIDTH qubits, such as (0, 23),
            # is contracted on the (2,)*n view: the only route that applies
            # it without a dense block of dimension 2**span.
            _contract(cur.reshape(tensor), n, *gates[positions[0]],
                      out=nxt.reshape(tensor))
        else:
            # A window starting below _WIDEN_BELOW starts at qubit 0: the
            # contraction would run as thousands of tiny per-item matmuls,
            # and a wider block on qubits [0, stop) is cheaper.
            start, layout, slot = window
            _apply_window(cur, nxt, start, columns, blocks[layout][slot])
        cur, nxt = nxt, cur
    return cur.reshape(amps.shape)


def output_distribution(program):
    """Ideal output distribution of ``program`` applied to |0^n>."""
    dims = program.dims
    amps = np.zeros(dims.N, dtype=np.complex128)
    amps[0] = 1.0
    amps = _apply_gates(amps, program)
    # OutputDistribution checks that the probabilities sum to 1
    return OutputDistribution(dims, np.abs(amps) ** 2)


def program_unitary(program):
    """Dense N x N unitary of the whole program (small n only)."""
    dims = program.dims
    if dims.n > 12:
        raise ValueError("dense composition limited to n <= 12")
    # Column c is the image of basis state c: all N columns form the batch
    # axis of one kernel call.
    return _apply_gates(np.eye(dims.N, dtype=np.complex128), program)


# ---------------------------------------------------------------------------
# JSON serialization: [{"n": ..., "gates": [{"targets": [...], "matrix": ...}]}]
# with matrix entries as [re, im] pairs, row-major.  Readers reject any
# other key.
# ---------------------------------------------------------------------------

def _matrix_to_json(matrix):
    return [
        [[float(v.real), float(v.imag)] for v in row] for row in matrix
    ]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


def _matrix_from_json(rows):
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and len(row) == len(rows) for row in rows)):
        raise ValueError("matrix must be a square list of rows")
    parts = []
    for row in rows:
        for pair in row:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(map(_is_number, pair))):
                raise ValueError(
                    f"matrix entry {pair!r} is not an [re, im] number pair"
                )
            parts.extend(pair)
    # the float pairs viewed as complex keep both parts' bits exactly
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(
        len(rows), len(rows)
    )


def _check_keys(doc, required, optional=()):
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    for key in required:
        if key not in doc:
            raise ValueError(f"missing key {key!r}")


def _gate_from_dict(doc):
    _check_keys(doc, ("targets", "matrix"))
    targets = doc["targets"]
    if not (isinstance(targets, list) and all(map(_is_int, targets))):
        raise ValueError("targets must be a list of integers")
    return tuple(targets), _matrix_from_json(doc["matrix"])


def program_to_dict(program):
    return {
        "n": program.dims.n,
        "gates": [
            {"targets": list(t), "matrix": _matrix_to_json(b)}
            for t, b in program.gates
        ],
    }


def program_from_dict(doc):
    """The GateProgram of one JSON document; ValueError if malformed."""
    _check_keys(doc, ("n",), ("gates",))
    if not _is_int(doc["n"]):
        raise ValueError(f"n must be an integer, got {doc['n']!r}")
    dims = SystemDims(doc["n"])
    docs = doc.get("gates", [])
    if not isinstance(docs, list):
        raise ValueError("gates must be a JSON list")
    gates = []
    for j, gate in enumerate(docs):
        try:
            gates.append(_gate_from_dict(gate))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"gate {j}: {exc}") from None
    return GateProgram(dims=dims, gates=gates)


def save_programs(programs, path):
    with open(path, "w") as fh:
        json.dump([program_to_dict(p) for p in programs], fh)


def load_programs(path):
    """Gate programs of a JSON file; a malformed one is named by its index."""
    with open(path) as fh:
        try:
            docs = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(docs, list):
        raise ValueError(f"{path}: expected a JSON list of gate programs")
    programs = []
    for i, doc in enumerate(docs):
        try:
            programs.append(program_from_dict(doc))
        except ValueError as exc:
            raise ValueError(f"{path}: program {i}: {exc}") from None
    return programs
