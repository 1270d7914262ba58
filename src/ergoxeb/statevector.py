"""Dense statevector simulation of gate programs.

Bit convention: a bitstring x = (x_{n-1}, ..., x_0) maps to the integer
j = sum_k x_k 2^k, i.e. the rightmost character of the written string is the
least significant bit.  All file formats in this package use this convention.
"""

import json
from dataclasses import dataclass, field

import numpy as np

DEFAULT_QUBIT_CAP = 24
UNITARY_TOL = 1e-12
NORM_TOL = 1e-10


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
        norm = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm!r} deviates from 1")

    @classmethod
    def zero(cls, dims):
        amps = np.zeros(dims.N, dtype=np.complex128)
        amps[0] = 1.0
        return cls(dims, amps)


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
        lowest = float(probs.min())
        if lowest < -1e-15:
            raise ValueError("probability entries below -1e-15")
        # Clamp tiny negative rounding noise, renormalize if needed; both
        # make new arrays, so the caller's array is never modified.
        if lowest < 0.0:
            probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            if abs(total - 1.0) > NORM_TOL:
                raise ValueError(f"probabilities sum to {total!r}, not 1")
            probs = probs / total
        self.probs = probs


def _check_unitary(matrix, tol=UNITARY_TOL):
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"gate block must be square, got shape {matrix.shape}")
    m = matrix.shape[0]
    err = np.max(np.abs(matrix.conj().T @ matrix - np.eye(m)))
    if err > tol:
        raise ValueError(f"gate block non-unitary: max |U^dag U - I| = {err:g}")
    return matrix


@dataclass
class GateProgram:
    """A circuit: either an ordered gate list or one full dense unitary.

    Each gate is (targets, block) where ``targets`` lists distinct qubit
    indices and ``block`` is a dense unitary of dimension 2**len(targets).
    Bit j of a block's row/column index is the value of qubit targets[j].
    """

    dims: SystemDims
    gates: list = field(default_factory=list)
    unitary: np.ndarray | None = None

    def __post_init__(self):
        checked = []
        for targets, block in self.gates:
            targets = tuple(int(t) for t in targets)
            if len(set(targets)) != len(targets):
                raise ValueError(f"duplicate target qubits: {targets}")
            for t in targets:
                if not 0 <= t < self.dims.n:
                    raise ValueError(
                        f"target qubit {t} out of range for n={self.dims.n}"
                    )
            block = _check_unitary(block)
            if block.shape[0] != 1 << len(targets):
                raise ValueError(
                    f"block dimension {block.shape[0]} does not match "
                    f"{len(targets)} target qubits"
                )
            checked.append((targets, block))
        self.gates = checked
        if self.unitary is not None:
            self.unitary = _check_unitary(self.unitary, tol=1e-10)
            if self.unitary.shape[0] != self.dims.N:
                raise ValueError(
                    f"full unitary dimension {self.unitary.shape[0]} != N="
                    f"{self.dims.N}"
                )

    @classmethod
    def from_unitary(cls, dims, unitary):
        return cls(dims=dims, gates=[], unitary=unitary)


def apply_block(state, targets, block):
    """Apply a dense unitary block to the target qubits of ``state``."""
    dims = state.dims
    targets = tuple(int(t) for t in targets)
    for t in targets:
        if not 0 <= t < dims.n:
            raise ValueError(f"target qubit {t} out of range for n={dims.n}")
    gate = (targets, np.asarray(block, np.complex128))
    return PureState(dims, _apply_gates(state.amplitudes, dims.n, [gate]))


def _apply_gates(amps, n, gates):
    """Apply ``gates`` in order to ``amps`` and return the resulting array.

    ``amps`` has shape (N,) or (N, B); a trailing axis is a batch of B
    independent states.  The amplitudes are viewed as a (2,)*n tensor whose
    axis n-1-q is qubit q, and each block is contracted into a second
    buffer with ``np.einsum(..., out=)``.  The two buffers swap roles after
    every gate, so ``amps`` itself is overwritten once there are two gates.
    """
    batch = amps.shape[1:]
    cur = amps.reshape((2,) * n + batch)
    nxt = np.empty_like(cur)
    labels = list(range(n + len(batch)))
    for targets, block in gates:
        k = len(targets)
        # Row/column axis a of the reshaped block is bit k-1-a of its index,
        # i.e. qubit targets[k-1-a].
        axes = [n - 1 - t for t in reversed(targets)]
        new = list(range(n + 1, n + 1 + k))
        out_labels = labels.copy()
        for a, label in zip(axes, new):
            out_labels[a] = label
        np.einsum(block.reshape((2,) * (2 * k)), new + axes, cur, labels,
                  out_labels, out=nxt)
        cur, nxt = nxt, cur
    return cur.reshape(amps.shape)


def output_distribution(program):
    """Ideal output distribution of ``program`` applied to |0^n>."""
    dims = program.dims
    if program.unitary is not None:
        amps = program.unitary[:, 0].copy()
    else:
        amps = np.zeros(dims.N, dtype=np.complex128)
        amps[0] = 1.0
    amps = _apply_gates(amps, dims.n, program.gates)
    norm = float(np.vdot(amps, amps).real)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm drifted to {norm!r} during simulation")
    return OutputDistribution(dims, np.abs(amps) ** 2)


def program_unitary(program):
    """Dense N x N unitary of the whole program (small n only)."""
    dims = program.dims
    if dims.n > 12:
        raise ValueError("dense composition limited to n <= 12")
    u = program.unitary.copy() if program.unitary is not None else np.eye(
        dims.N, dtype=np.complex128
    )
    # Column c of u is the image of basis state c: all N columns form the
    # batch axis of one kernel call.
    return _apply_gates(u, dims.n, program.gates)


# ---------------------------------------------------------------------------
# JSON serialization: {"n": ..., "gates": [{"targets": [...], "matrix": ...}]}
# with matrix entries as [re, im] pairs, row-major.
# ---------------------------------------------------------------------------

def _matrix_to_json(matrix):
    return [
        [[float(v.real), float(v.imag)] for v in row] for row in matrix
    ]


def _matrix_from_json(rows):
    return np.array(
        [[complex(re, im) for re, im in row] for row in rows],
        dtype=np.complex128,
    )


def program_to_dict(program):
    doc = {
        "n": program.dims.n,
        "gates": [
            {"targets": list(t), "matrix": _matrix_to_json(b)}
            for t, b in program.gates
        ],
    }
    if program.unitary is not None:
        doc["unitary"] = _matrix_to_json(program.unitary)
    return doc


def program_from_dict(doc):
    dims = SystemDims(int(doc["n"]))
    gates = [
        (tuple(g["targets"]), _matrix_from_json(g["matrix"]))
        for g in doc.get("gates", [])
    ]
    unitary = None
    if "unitary" in doc:
        unitary = _matrix_from_json(doc["unitary"])
    return GateProgram(dims=dims, gates=gates, unitary=unitary)


def save_programs(programs, path):
    with open(path, "w") as fh:
        json.dump([program_to_dict(p) for p in programs], fh)


def load_programs(path):
    with open(path) as fh:
        docs = json.load(fh)
    if not isinstance(docs, list):
        raise ValueError(f"{path}: expected a JSON list of gate programs")
    return [program_from_dict(d) for d in docs]
