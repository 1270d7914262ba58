"""Circuit ensembles: Haar, Pauli group, brickwork circuits, fixed files.

Every sampler is a pure function of (base_seed, index): per-member seeds are
derived with a splitmix64-style mixer so members can be drawn in any order
and in parallel.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .statevector import (
    GateProgram,
    SystemDims,
    load_programs,
    output_distribution,
    program_unitary,
)

HAAR_DENSE_CAP = 1 << 12

_PAULI = {
    0: np.eye(2, dtype=np.complex128),
    1: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    2: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    3: np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def mix64(base_seed, index):
    """Mix a base seed with a member index into an independent 64-bit seed."""
    z = (int(base_seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & (2**64 - 1)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return z ^ (z >> 31)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str  # haar | pauli | brickwork | fixed
    dims: SystemDims
    depth: int = 0
    base_seed: int = 0
    source_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("haar", "pauli", "brickwork", "fixed"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "brickwork" and self.depth < 1:
            raise ValueError("brickwork ensemble needs depth >= 1")
        if self.kind == "fixed" and not self.source_path:
            raise ValueError("fixed ensemble needs a source_path")

    @functools.cached_property
    def _programs(self):
        """The fixed ensemble's gate programs, parsed once per spec."""
        return load_programs(self.source_path)


def sample_haar_unitary(N, rng, size=None):
    """Haar-random N x N unitary via Ginibre + QR with phase correction.

    ``size`` gives a batch shape (an int or a tuple): the result then has
    shape ``(*size, N, N)``, drawn by one normal call and one stacked QR.
    Each matrix takes its real part and then its imaginary part from the
    stream, so ``size=(k,)`` gives the k matrices that k calls with
    ``size=None`` would give, in order.
    """
    if N > HAAR_DENSE_CAP:
        raise ValueError(f"dense Haar sampling limited to N <= {HAAR_DENSE_CAP}")
    batch = () if size is None else tuple(np.atleast_1d(size))
    g = rng.standard_normal((*batch, 2, N, N))
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_state_probs(N, rng, size=None):
    """Output probabilities of Haar-random circuits, all N entries at once.

    P over all x follows the uniform (Dirichlet(1, ..., 1)) law on the
    simplex, the law of |<x|U|0>|^2 for a Haar U.  It is drawn as N
    independent standard exponentials divided by their sum, in place, so
    the result is the only N-array allocated.  Returns shape (N,) or
    (size, N).
    """
    shape = (N,) if size is None else (size, N)
    z = rng.standard_exponential(shape)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def haar_sample_values(N, instances, per, rng):
    """Haar output probabilities at sampled bitstrings, with no N-vector.

    Returns ``(u, ps, pu)``, each of shape (instances, per), for independent
    P ~ Dirichlet(1, ..., 1) over N outcomes, one per row: ``ps`` holds P at
    ``per`` i.i.d. draws from P, ``pu`` holds P at ``per`` uniform draws and
    ``u`` holds ``per`` uniforms.  ``np.where(u < F, ps, pu)`` is then P at
    ``per`` i.i.d. draws from F * P + (1 - F) / N, with the same P and
    uniforms for every F.  The cost is O(instances * per log per) for any
    N < 2^63.

    The signal labels follow the Polya urn of Dirichlet(1^N) (Blackwell &
    MacQueen, Ann. Stat. 1, 353, 1973): draw j (from 0) copies a uniformly
    chosen earlier draw with probability j / (N + j) and is otherwise a
    uniform label.  One integer k uniform on [0, N + j) decides both: k < j
    copies draw k, else the label is k - j.  Copies of copies resolve by
    pointer jumping.  Given all labels, P on the distinct labels c and on
    the U unvisited ones is Dirichlet(1 + signal count of c, ..., U), since
    the uniform labels are independent of P; it is drawn as normalized
    Gamma variates.
    """
    u = rng.random((instances, per))
    cols = np.arange(per)
    k = rng.integers(0, N + cols, size=(instances, per))
    fresh = k - cols
    ptr = np.where(fresh < 0, k, cols)
    while True:
        jumped = np.take_along_axis(ptr, ptr, axis=1)
        if np.array_equal(jumped, ptr):
            break
        ptr = jumped
    labels = np.concatenate([np.take_along_axis(fresh, ptr, axis=1),
                             rng.integers(0, N, size=(instances, per))],
                            axis=1)
    order = np.argsort(labels, axis=1)
    ranked = np.take_along_axis(labels, order, axis=1)
    first = np.ones(ranked.shape, dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    run = np.cumsum(first.ravel()) - 1  # distinct label id, row-major
    signal = np.bincount(run[(order < per).ravel()], minlength=run[-1] + 1)
    gamma = rng.standard_gamma(1.0 + signal)
    visited = first.sum(axis=1)
    starts = np.cumsum(visited) - visited
    total = (np.add.reduceat(gamma, starts)
             + rng.standard_gamma((N - visited).astype(np.float64)))
    values = (gamma / np.repeat(total, visited))[run]
    probs = np.empty(labels.shape)
    np.put_along_axis(probs, order, values.reshape(labels.shape), axis=1)
    return u, probs[:, :per], probs[:, per:]


def _pauli_program(dims, index):
    if not 0 <= index < 4**dims.n:
        raise IndexError(f"Pauli index {index} out of range for n={dims.n}")
    gates = []
    rem = index
    for q in range(dims.n):
        gates.append(((q,), _PAULI[rem % 4]))
        rem //= 4
    return GateProgram(dims=dims, gates=gates)


def _brickwork_program(dims, depth, rng):
    pairs = [(a, a + 1) for layer in range(depth)
             for a in range(layer % 2, dims.n - 1, 2)]
    blocks = sample_haar_unitary(4, rng=rng, size=len(pairs))
    return GateProgram(dims=dims, gates=list(zip(pairs, blocks)))


def sample_member(spec, index):
    """Deterministically sample the index-th member's gate program.

    The Haar kind has no gate program: its members exist only as output
    distributions, drawn by ``member_probs``.
    """
    if spec.kind == "haar":
        raise ValueError(
            "the haar ensemble has no gate program; use member_probs"
        )
    if spec.kind == "pauli":
        return _pauli_program(spec.dims, index)
    if spec.kind == "fixed":
        programs = spec._programs
        if not 0 <= index < len(programs):
            raise IndexError(
                f"index {index} out of range for fixed ensemble of "
                f"{len(programs)} programs"
            )
        program = programs[index]
        if program.dims != spec.dims:
            raise ValueError(
                f"{spec.source_path}: program {index} acts on "
                f"{program.dims.n} qubits, expected {spec.dims.n}"
            )
        return program
    rng = _rng(mix64(spec.base_seed, index))
    return _brickwork_program(spec.dims, spec.depth, rng)


def member_probs(spec, index):
    """Ideal output distribution of one ensemble member.

    This is what the scan drivers (``harness.run_ergodicity_scan``) use.
    For the Haar kind only the first unitary column matters, and its
    squared moduli follow the uniform (Dirichlet) law on the simplex, drawn
    as normalized exponentials by ``haar_state_probs``.  Other kinds return
    ``output_distribution(sample_member(spec, index))``.
    """
    if spec.kind == "haar":
        rng = _rng(mix64(spec.base_seed, index))
        return haar_state_probs(spec.dims.N, rng)
    return output_distribution(sample_member(spec, index)).probs


def _moment_tensor(u, t):
    a = u
    for _ in range(t - 1):
        a = np.kron(a, u)
    udag = u.conj().T
    b = udag
    for _ in range(t - 1):
        b = np.kron(b, udag)
    return np.kron(a, b)


def haar_moment_tensor(N, t):
    """Exact Haar value of E[U^t (x) Udag^t], laid out as ``_moment_tensor``.

    Weingarten calculus (Collins & Sniady 2006; Hunter-Jones,
    arXiv:1905.12053): with P_s the N^t x N^t operators that permute the t
    tensor factors and W the pseudo-inverse of their Gram matrix
    tr(P_s^T P_r), which is singular when N < t, entry ((a, c), (b, d)) is
    the sum over s, r of W[s, r] P_s[a, d] P_r[b, c].
    """
    d = N**t
    index = np.arange(d).reshape((N,) * t)
    perms = np.zeros((math.factorial(t), d, d))
    for s, order in enumerate(itertools.permutations(range(t))):
        perms[s, index.transpose(order).ravel(), np.arange(d)] = 1.0
    weights = np.linalg.pinv(np.einsum("sij,rij->sr", perms, perms))
    moment = np.einsum("st,sad,tbc->acbd", weights, perms, perms,
                       optimize=True)
    return moment.reshape(d * d, d * d)


def design_moment_discrepancy(spec, t):
    """Exact max-entry gap between an ensemble's t-th moment tensor and
    Haar's (``haar_moment_tensor``).

    The Pauli and fixed ensembles are finite, so their side is the mean of
    ``_moment_tensor`` over every member: all 4^n Paulis, or every program
    of the file.  Haar's tensor is the reference, so its gap is 0.0.  A
    tensor has dim^2 entries, dim = N^(2t), at most 2^20.
    """
    if t < 1:
        raise ValueError(f"design order t must be >= 1, got {t}")
    dims = spec.dims
    dim = dims.N ** (2 * t)
    if dim * dim > 1 << 20:
        raise ValueError(
            f"moment tensor of {dim}^2 entries exceeds the 2^20 cap"
        )
    if spec.kind == "haar":
        return 0.0
    if spec.kind == "brickwork":
        raise ValueError("no exact moment tensor for the brickwork ensemble")
    count = 4**dims.n if spec.kind == "pauli" else len(spec._programs)
    if not count:
        raise ValueError(f"{spec.source_path}: no gate programs")
    ens_mean = sum(
        _moment_tensor(program_unitary(sample_member(spec, i)), t)
        for i in range(count)
    ) / count
    return float(np.abs(ens_mean - haar_moment_tensor(dims.N, t)).max())
