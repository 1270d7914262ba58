import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ergoxeb.ensembles import EnsembleSpec, sample_haar_unitary, sample_member
from ergoxeb.statevector import (
    FUSE_WIDTH,
    _WIDEN_BELOW,
    GateProgram,
    OutputDistribution,
    SystemDims,
    _apply_gates,
    _schedule,
    output_distribution,
    program_from_dict,
    program_to_dict,
    program_unitary,
    save_programs,
)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _pcg(seed):
    """The PCG64 stream of ``seed``, as ``ensembles`` seeds its draws."""
    return np.random.Generator(np.random.PCG64(seed))


def test_identity_program():
    p = output_distribution(GateProgram(SystemDims(2), gates=[]))
    np.testing.assert_allclose(p.probs, [1, 0, 0, 0], atol=1e-15)


def test_hadamard_all_uniform():
    prog = GateProgram(SystemDims(2), gates=[((0,), H), ((1,), H)])
    np.testing.assert_allclose(
        output_distribution(prog).probs, [0.25] * 4, atol=1e-12
    )


def test_x_on_qubit0_bit_convention():
    # j = sum_k x_k 2^k: flipping qubit 0 of |00> lands on index 1 ("01")
    prog = GateProgram(SystemDims(2), gates=[((0,), X)])
    np.testing.assert_allclose(output_distribution(prog).probs, [0, 1, 0, 0],
                               atol=1e-15)


def test_identity_block_bit_exact():
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    prog = GateProgram(SystemDims(3),
                       gates=[((1,), np.eye(2, dtype=np.complex128))])
    assert np.array_equal(_apply_gates(amps.copy(), prog), amps)


def test_hadamard_involution():
    rng = np.random.default_rng(1)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    prog = GateProgram(SystemDims(2), gates=[((1,), H)])
    out = _apply_gates(_apply_gates(amps.copy(), prog), prog)
    np.testing.assert_allclose(out, amps, atol=1e-12)


def test_target_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        GateProgram(SystemDims(2), gates=[((2,), X)])


def test_non_unitary_block_rejected():
    with pytest.raises(ValueError, match="non-unitary"):
        GateProgram(SystemDims(1), gates=[((0,), np.array([[1, 0], [0, 2.0]]))])


def test_batched_unitarity_reports_first_failing_block():
    # unitary blocks of three sizes, with two bad ones of different sizes;
    # the error is that of the earlier bad block in list order
    rng = np.random.default_rng(3)
    sizes = [1, 2, 1, 3, 2, 1]
    gates = [(tuple(range(k)), sample_haar_unitary(1 << k, rng=rng))
             for k in sizes]
    gates[3] = ((0, 1, 2), 1.5 * gates[3][1])  # U^dag U - I = 1.25 I
    gates[4] = ((0, 1), 2.0 * gates[4][1])  # 3 I
    with pytest.raises(ValueError, match=r"= 1\.25$"):
        GateProgram(SystemDims(3), gates=gates)
    gates[3] = ((0, 1, 2), np.full((8, 8), np.nan))
    with pytest.raises(ValueError, match="non-unitary.* = nan$"):
        GateProgram(SystemDims(3), gates=gates)
    assert len(GateProgram(SystemDims(3), gates=gates[:3]).gates) == 3


def test_malformed_gate_reported_before_non_unitary_block():
    # targets and shapes are checked for every gate before unitarity
    bad = np.array([[1, 0], [0, 2.0]])
    with pytest.raises(ValueError, match="out of range"):
        GateProgram(SystemDims(2), gates=[((0,), bad), ((2,), X)])
    with pytest.raises(ValueError, match="must be square"):
        GateProgram(SystemDims(2), gates=[((0,), bad), ((1,), X[:1])])


def test_first_malformed_gate_reported_across_widths():
    # blocks are stacked per width after every gate is checked; the error
    # is that of the first malformed gate in list order, whatever its width
    block = np.eye(4, dtype=np.complex128)
    with pytest.raises(ValueError, match="dimension 2 does not match 2"):
        GateProgram(SystemDims(2), gates=[((0,), X), ((0, 1), X),
                                          ((5,), X), ((1, 1), block)])
    with pytest.raises(ValueError, match="duplicate"):
        GateProgram(SystemDims(2), gates=[((0,), X), ((1, 1), block),
                                          ((5,), X)])
    with pytest.raises(ValueError, match=f"qubit {2**70} out of range"):
        GateProgram(SystemDims(2), gates=[((0,), X), ((2**70,), X)])
    with pytest.raises(ValueError, match="target qubit 'a' is not an int"):
        GateProgram(SystemDims(2), gates=[((0,), X), (("a",), X)])


@pytest.mark.parametrize("target", [1.7, True, np.float64(1.0), "a"])
def test_non_integer_targets_refused(target):
    # int() would truncate 1.7 and True to qubit 1
    with pytest.raises(ValueError) as err:
        GateProgram(SystemDims(2), gates=[((target,), X)])
    assert str(err.value) == f"target qubit {target!r} is not an integer"


def test_numpy_integer_targets_accepted():
    targets = (np.int64(1), np.uint8(0))
    prog = GateProgram(SystemDims(2), gates=[(targets, np.kron(X, H))])
    assert prog.gates[0][0] == (1, 0)
    assert all(type(t) is int for t in prog.gates[0][0])


def test_duplicate_targets_rejected():
    block = np.eye(4, dtype=np.complex128)
    with pytest.raises(ValueError, match="duplicate"):
        GateProgram(SystemDims(2), gates=[((0, 0), block)])


def test_apply_block_repeated_targets_rejected():
    with pytest.raises(ValueError, match="duplicate target qubits"):
        GateProgram(SystemDims(3), gates=[((1, 1), np.eye(4))])


def test_norm_preserved_random_circuit():
    spec = EnsembleSpec("brickwork", SystemDims(4), depth=10, base_seed=5)
    probs = output_distribution(sample_member(spec, 0)).probs
    assert abs(probs.sum() - 1.0) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gate_list_matches_dense_composition(n):
    spec = EnsembleSpec("brickwork", SystemDims(n), depth=6, base_seed=9)
    prog = sample_member(spec, 1)
    via_gates = output_distribution(prog).probs
    via_dense = np.abs(program_unitary(prog)[:, 0]) ** 2
    np.testing.assert_allclose(via_gates, via_dense, atol=1e-10)


def test_dense_composition_refuses_n_13():
    with pytest.raises(ValueError,
                       match="^dense composition limited to n <= 12$"):
        program_unitary(GateProgram(SystemDims(13), gates=[]))


def test_permutation_unitary_hits_single_index():
    dims = SystemDims(3)
    for j in [0, 3, 5, 7]:
        perm = np.zeros((8, 8), dtype=np.complex128)
        order = np.arange(8)
        order[0], order[j] = j, 0
        perm[order, np.arange(8)] = 1.0
        # block bit j is qubit j, so the 3-qubit block is the whole unitary
        probs = output_distribution(
            GateProgram(dims, [((0, 1, 2), perm)])
        ).probs
        assert probs[j] == pytest.approx(1.0)
        assert probs.sum() == pytest.approx(1.0)


def test_brickwork_porter_thomas_shape():
    # n=3 depth 8: rescaled probabilities N*p roughly follow exp(-u);
    # pooled over 4 instances since one instance only yields 8 values
    spec = EnsembleSpec("brickwork", SystemDims(3), depth=8, base_seed=21)
    vals = []
    for i in range(4):
        probs = output_distribution(sample_member(spec, i)).probs
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        vals.append(8 * probs)
    ks = stats.kstest(np.concatenate(vals),
                      lambda u: 1 - np.exp(-u)).statistic
    assert ks < 0.3


def test_program_json_round_trip(tmp_path):
    spec = EnsembleSpec("brickwork", SystemDims(3), depth=4, base_seed=2)
    prog = sample_member(spec, 3)
    doc = json.loads(json.dumps(program_to_dict(prog)))
    back = program_from_dict(doc)
    np.testing.assert_allclose(
        output_distribution(back).probs, output_distribution(prog).probs,
        atol=1e-12,
    )


def test_distribution_clamps_rounding_noise():
    d = OutputDistribution(SystemDims(1), np.array([1.0 + 1e-16, -1e-16]))
    assert d.probs[1] == 0.0
    with pytest.raises(ValueError, match="below"):
        OutputDistribution(SystemDims(1), np.array([1.0 + 5e-13, -5e-13]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distribution_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        OutputDistribution(SystemDims(1), np.array([1.0, bad]))


def test_distribution_leaves_input_unchanged():
    raw = np.array([0.5, 0.5 + 1e-11, -1e-16, 0.0])
    before = raw.copy()
    d = OutputDistribution(SystemDims(2), raw)
    assert np.array_equal(raw, before) and raw[2] == -1e-16
    assert d.probs[2] == 0.0
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_row_check_leaves_input_unchanged():
    # each row of a 2-D array checked on its own: sums within 1e-12 of 1
    # keep their bits, and the rows are never modified
    raw = np.array([[0.5, 0.5 + 1e-11, -1e-16, 0.0],
                    [0.25, 0.25, 0.25, 0.25 + 1e-13],
                    [0.1, 0.2, 0.3, 0.4]])
    before = raw.copy()
    probs = [OutputDistribution(SystemDims(2), row).probs for row in raw]
    assert np.array_equal(raw, before)
    assert probs[0][2] == 0.0
    assert probs[0].sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(probs[1], raw[1])
    assert np.array_equal(probs[2], raw[2])


@pytest.mark.parametrize("bad, message", [
    ([0.5, np.nan, 0.5, 0.0], "below .* or NaN"),
    ([0.5, -1e-3, 0.5, 1e-3], "below .* or NaN"),
    ([0.5, 0.5, 0.5, 0.0], "sum to 1.5, not 1"),
    ([0.5, 0.5, 0.0],
     r"^probability vector has shape \(3,\), expected \(4,\)$"),
])
def test_row_check_rejects_a_bad_row(bad, message):
    with pytest.raises(ValueError, match=message):
        OutputDistribution(SystemDims(2), np.array(bad))


def _element_formula_unitary(n, targets, block):
    """U[x, y] = block[m(x), m(y)] when x, y agree off the targets, else 0.

    m(x) = sum_j bit(x, targets[j]) << j.  Built from index arithmetic
    alone, without the simulator's kernel.
    """
    x = np.arange(1 << n)
    m = np.zeros_like(x)
    rest = x.copy()
    for j, t in enumerate(targets):
        m |= ((x >> t) & 1) << j
        rest &= ~(1 << t)
    agree = rest[:, None] == rest[None, :]
    return np.where(agree, block[m[:, None], m[None, :]], 0.0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gate_kernel_matches_element_formula(data):
    # any order of 1-3 targets, adjacent or not, reversed or not; several
    # gates in a row exercise the kernel's buffer swaps.  Windows starting
    # at qubits 1-2 are widened to qubit 0; from n=6 on, runs split where
    # their window would exceed FUSE_WIDTH qubits, and gates spanning more
    # than FUSE_WIDTH qubits are contracted between fused runs.
    n = data.draw(st.integers(1, 8), label="n")
    gates = []
    for _ in range(data.draw(st.integers(1, 8), label="gates")):
        k = data.draw(st.integers(1, min(3, n)), label="k")
        span = data.draw(st.integers(k, n), label="span")
        low = data.draw(st.integers(0, n - span), label="low")
        window = range(low, low + span)
        targets = tuple(data.draw(st.permutations(window))[:k])
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        gates.append((targets, sample_haar_unitary(1 << k, rng=_pcg(seed))))
    dims = SystemDims(n)
    expected = np.eye(dims.N, dtype=np.complex128)
    for targets, block in gates:
        expected = _element_formula_unitary(n, targets, block) @ expected
    prog = GateProgram(dims, gates=gates)
    np.testing.assert_allclose(program_unitary(prog), expected, atol=1e-12)
    np.testing.assert_allclose(output_distribution(prog).probs,
                               np.abs(expected[:, 0]) ** 2, atol=1e-12)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(dims.N) + 1j * rng.standard_normal(dims.N)
    amps /= np.linalg.norm(amps)
    targets, block = gates[0]
    np.testing.assert_allclose(
        _apply_gates(amps.copy(), GateProgram(dims, gates=[gates[0]])),
        _element_formula_unitary(n, targets, block) @ amps,
        atol=1e-12,
    )


def test_qubit_cap():
    with pytest.raises(ValueError, match="cap"):
        SystemDims(25)


def _element_formula_product(n, gates):
    expected = np.eye(1 << n, dtype=np.complex128)
    for targets, block in gates:
        expected = _element_formula_unitary(n, targets, block) @ expected
    return expected


def test_brickwork_fused_windows_match_element_formula():
    # n=8 brickwork: gates of several layers fuse into windows of up to
    # FUSE_WIDTH qubits, and windows starting at qubits 1-2 are widened
    # down to qubit 0 and count their width from there
    spec = EnsembleSpec("brickwork", SystemDims(8), depth=40, base_seed=17)
    prog = sample_member(spec, 2)
    expected = _element_formula_product(8, prog.gates)
    np.testing.assert_allclose(program_unitary(prog), expected, atol=1e-12)
    np.testing.assert_allclose(output_distribution(prog).probs,
                               np.abs(expected[:, 0]) ** 2, atol=1e-12)


def test_wide_and_unordered_gates_match_element_formula():
    # (0, 7) spans 8 qubits, more than FUSE_WIDTH, and is contracted on
    # the whole state.  (6, 4) shares no qubit with (0, 7) or (3, 1, 2), so
    # it moves ahead of them into (5,)'s run on [4, 7); (3, 1, 2), widened
    # to qubit 0, would stretch that run past FUSE_WIDTH.  (2,) and (1,)
    # join (3, 1, 2) on [1, 4), (1,) ahead of the second (0, 7).  (7,) is
    # next on its qubit after the first (0, 7), and would stretch [1, 4),
    # widened, to 8 qubits.
    n = 8
    gates = [((5,), H), ((0, 7), sample_haar_unitary(4, rng=_pcg(1))),
             ((3, 1, 2), sample_haar_unitary(8, rng=_pcg(2))), ((2,), X),
             ((6, 4), sample_haar_unitary(4, rng=_pcg(3))), ((7,), H),
             ((0, 7), sample_haar_unitary(4, rng=_pcg(4))), ((1,), H)]
    prog = GateProgram(SystemDims(n), gates=gates)
    windows = [(start, stop) for start, stop, _ in _runs_of(prog.gates)]
    assert windows == [(4, 7), (None, None), (1, 4), (7, 8), (None, None)]
    expected = _element_formula_product(n, gates)
    np.testing.assert_allclose(program_unitary(prog), expected, atol=1e-12)
    np.testing.assert_allclose(output_distribution(prog).probs,
                               np.abs(expected[:, 0]) ** 2, atol=1e-12)


def _runs_of(gates):
    return _schedule(tuple(targets for targets, _ in gates))[0]


def _window_width(start, stop):
    return stop - (0 if start < _WIDEN_BELOW else start)


def _random_program(n, rng):
    # local 1-3 qubit gates, gates spanning more than FUSE_WIDTH qubits
    # (from n=6 on) and global phases, in random order
    gates = []
    for _ in range(rng.integers(1, 30)):
        kind = rng.random()
        if kind < 0.08:
            gates.append(((), np.exp(2j * np.pi * rng.random()).reshape(1, 1)))
            continue
        if kind < 0.2 and n > FUSE_WIDTH:
            a = int(rng.integers(0, n - FUSE_WIDTH))
            b = int(rng.integers(a + FUSE_WIDTH, n))
            targets = (a, b) if rng.random() < 0.5 else (b, a)
        else:
            k = int(rng.integers(1, min(3, n) + 1))
            span = int(rng.integers(k, min(n, 4) + 1))
            low = int(rng.integers(0, n - span + 1))
            window = rng.permutation(np.arange(low, low + span))
            targets = tuple(int(t) for t in window[:k])
        gates.append((targets, sample_haar_unitary(1 << len(targets),
                                                   rng=rng)))
    return GateProgram(SystemDims(n), gates=gates)


@pytest.mark.parametrize("n", range(3, 9))
def test_fused_runs_keep_qubit_order_and_width(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(12):
        prog = _random_program(n, rng)
        gates = prog.gates
        runs = _runs_of(gates)
        order = [i for _, _, run in runs for i in run]
        assert sorted(order) == list(range(len(gates)))
        for q in range(n):
            on_q = [i for i in order if q in gates[i][0]]
            assert on_q == sorted(on_q)
        applied = set()
        for start, stop, run in runs:
            applied.update(run)
            if start is None:
                (targets, _), = [gates[i] for i in run]
                assert not targets or max(targets) - min(targets) >= FUSE_WIDTH
                continue
            targets = [t for i in run for t in gates[i][0]]
            assert (start, stop) == (min(targets), max(targets) + 1)
            assert len(run) == 1 or _window_width(start, stop) <= FUSE_WIDTH
            # every gate left out is either behind a gate not yet applied
            # on one of its qubits, or would widen the window too far
            blocked = set()
            for i, (targets, _) in enumerate(gates):
                if i in applied:
                    continue
                if targets and blocked.isdisjoint(targets) \
                        and max(targets) - min(targets) < FUSE_WIDTH:
                    lo = min(start, min(targets))
                    hi = max(stop, max(targets) + 1)
                    assert _window_width(lo, hi) > FUSE_WIDTH
                blocked.update(targets)
        expected = _element_formula_product(n, gates)
        np.testing.assert_allclose(program_unitary(prog), expected,
                                   atol=1e-12)
        np.testing.assert_allclose(output_distribution(prog).probs,
                                   np.abs(expected[:, 0]) ** 2, atol=1e-12)


def test_brickwork_member_fuses_into_few_runs():
    # gates move ahead of earlier ones on other qubits: a depth-80 member
    # at n=16 (600 gates) is at most 100 runs, where merging only
    # consecutive gates made 320; every gate is in one run
    spec = EnsembleSpec("brickwork", SystemDims(16), depth=80, base_seed=3)
    for index in range(2):
        gates = sample_member(spec, index).gates
        runs = _runs_of(gates)
        assert len(runs) <= 100
        assert sorted(i for _, _, run in runs for i in run) \
            == list(range(len(gates)))


def test_brickwork_windows_share_few_cached_layouts():
    # a depth-80 member at n=16 has ~96 windows but few layouts (width and
    # window-relative targets), and every member shares one cached plan
    spec = EnsembleSpec("brickwork", SystemDims(16), depth=80, base_seed=3)
    plans = [_schedule(tuple(t for t, _ in sample_member(spec, i).gates))
             for i in range(2)]
    runs, layouts, windows = plans[0]
    assert len(layouts) <= 16
    assert plans[1][1] is layouts
    assert sum(count for _, count, _ in layouts) \
        == sum(window is not None for window in windows) == len(runs)


def test_fixed_programs_with_different_targets_get_own_layouts(tmp_path):
    # two programs of one fixed file, with reversed, gapped and 3-qubit
    # targets, are grouped separately, and each matches the element formula
    n = 6
    rng = np.random.default_rng(8)
    targets = [[(0, 1), (3, 1), (2, 4, 3), (5,), (1, 0), (4, 5)],
               [(2, 0), (5, 3), (1, 2), (0, 3, 1), (4,), (1, 0)]]
    programs = [GateProgram(SystemDims(n), gates=[
        (t, sample_haar_unitary(1 << len(t), rng=rng)) for t in row])
        for row in targets]
    path = tmp_path / "programs.json"
    save_programs(programs, path)
    spec = EnsembleSpec("fixed", SystemDims(n), source_path=str(path))
    members = [sample_member(spec, i) for i in range(2)]
    plans = [_schedule(tuple(t for t, _ in m.gates)) for m in members]
    assert plans[0] is not plans[1] and plans[0][0] != plans[1][0]
    assert any(gather is not None for plan in plans
               for _, _, steps in plan[1] for *_, gather in steps)
    for member in members:
        expected = _element_formula_product(n, member.gates)
        np.testing.assert_allclose(program_unitary(member), expected,
                                   atol=1e-12)
        np.testing.assert_allclose(output_distribution(member).probs,
                                   np.abs(expected[:, 0]) ** 2, atol=1e-12)


def test_programs_without_gates_run():
    # an n=1 brickwork member has no qubit pairs, so no gates
    spec = EnsembleSpec("brickwork", SystemDims(1), depth=4, base_seed=2)
    member = sample_member(spec, 0)
    assert member.gates == []
    np.testing.assert_array_equal(output_distribution(member).probs, [1, 0])
    empty = GateProgram(SystemDims(3))
    np.testing.assert_array_equal(program_unitary(empty), np.eye(8))
    np.testing.assert_array_equal(output_distribution(empty).probs,
                                  np.eye(8)[0])


def test_brickwork_collision_probability_porter_thomas():
    # For a Haar-random state N * sum(P^2) has mean 2N/(N+1) and standard
    # deviation ~2/sqrt(N); a depth-5n brickwork member sits within 5 of it
    n = 12
    N = 1 << n
    spec = EnsembleSpec("brickwork", SystemDims(n), depth=60, base_seed=31)
    probs = output_distribution(sample_member(spec, 0)).probs
    collision = N * float(np.sum(probs**2))
    assert abs(collision - 2 * N / (N + 1)) <= 5 * 2 / np.sqrt(N)


def test_window_products_stay_below_blas_threading(monkeypatch):
    # OpenBLAS runs a complex product on its worker threads once M*N*K
    # reaches 2**16; every matmul item of the gate kernel must stay below,
    # for a single state (lo == 1 and lo > 1 windows) and for a batch
    from ergoxeb import statevector

    sizes, builds = [], []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b, out):
            size = a.shape[-2] * a.shape[-1] * b.shape[-1]
            # a build applies a (B, 1, 1, m, m) stack of gate blocks
            (builds if a.ndim == 5 else sizes).append(size)
            return np.matmul(a, b, out=out)

    monkeypatch.setattr(statevector, "np", RecordingNumpy())
    spec = EnsembleSpec("brickwork", SystemDims(12), depth=24, base_seed=5)
    output_distribution(sample_member(spec, 0))
    single = len(sizes)
    spec = EnsembleSpec("brickwork", SystemDims(10), depth=10, base_seed=5)
    program_unitary(sample_member(spec, 0))
    assert 0 < single < len(sizes)
    assert max(sizes) < 1 << 16
    assert builds and max(builds) < 1 << 16

