import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ergoxeb.ensembles import EnsembleSpec, sample_haar_unitary, sample_member
from ergoxeb.statevector import (
    GateProgram,
    OutputDistribution,
    PureState,
    SystemDims,
    apply_block,
    output_distribution,
    program_from_dict,
    program_to_dict,
    program_unitary,
)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


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
    s = apply_block(PureState.zero(SystemDims(2)), (0,), X)
    np.testing.assert_allclose(np.abs(s.amplitudes) ** 2, [0, 1, 0, 0],
                               atol=1e-15)


def test_identity_block_bit_exact():
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    s = PureState(SystemDims(3), amps.copy())
    out = apply_block(s, (1,), np.eye(2, dtype=np.complex128))
    assert np.array_equal(out.amplitudes, amps)


def test_hadamard_involution():
    rng = np.random.default_rng(1)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    s = PureState(SystemDims(2), amps.copy())
    out = apply_block(apply_block(s, (1,), H), (1,), H)
    np.testing.assert_allclose(out.amplitudes, amps, atol=1e-12)


def test_target_out_of_range():
    s = PureState.zero(SystemDims(2))
    with pytest.raises(ValueError, match="out of range"):
        apply_block(s, (2,), X)


def test_non_unitary_block_rejected():
    with pytest.raises(ValueError, match="non-unitary"):
        GateProgram(SystemDims(1), gates=[((0,), np.array([[1, 0], [0, 2.0]]))])


def test_duplicate_targets_rejected():
    block = np.eye(4, dtype=np.complex128)
    with pytest.raises(ValueError, match="duplicate"):
        GateProgram(SystemDims(2), gates=[((0, 0), block)])


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


def test_permutation_unitary_hits_single_index():
    dims = SystemDims(3)
    for j in [0, 3, 5, 7]:
        perm = np.zeros((8, 8), dtype=np.complex128)
        order = np.arange(8)
        order[0], order[j] = j, 0
        perm[order, np.arange(8)] = 1.0
        probs = output_distribution(GateProgram.from_unitary(dims, perm)).probs
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


def test_distribution_leaves_input_unchanged():
    raw = np.array([0.5, 0.5 + 1e-11, -1e-16, 0.0])
    before = raw.copy()
    d = OutputDistribution(SystemDims(2), raw)
    assert np.array_equal(raw, before) and raw[2] == -1e-16
    assert d.probs[2] == 0.0
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)


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
    # gates in a row exercise the kernel's buffer swaps
    n = data.draw(st.integers(1, 6), label="n")
    gates = []
    for _ in range(data.draw(st.integers(1, 4), label="gates")):
        k = data.draw(st.integers(1, min(3, n)), label="k")
        targets = tuple(data.draw(st.permutations(range(n)))[:k])
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        gates.append((targets, sample_haar_unitary(1 << k, seed=seed)))
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
    state = PureState(dims, amps / np.linalg.norm(amps))
    targets, block = gates[0]
    np.testing.assert_allclose(
        apply_block(state, targets, block).amplitudes,
        _element_formula_unitary(n, targets, block) @ state.amplitudes,
        atol=1e-12,
    )


def test_qubit_cap():
    with pytest.raises(ValueError, match="cap"):
        SystemDims(25)
