"""State containers and kernels against dense oracles."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.circuit import parse
from qsim.engine import run
from qsim.errors import CapacityError
from qsim.gates import GateKind, matrix_of
from qsim.measure import bloch_measure, probabilities, sample
from qsim.noise import decohere
from qsim.protocols import BellIndex, teleport_algebraic
from qsim.states import (
    DensityMatrix,
    PureState,
    apply_1q,
    apply_cnot,
    embed,
    is_separable,
    reduced_density_1q,
    zero_density,
    zero_state,
)

from oracles import (
    cnot_swap_by_axes,
    lift_1q,
    lift_cnot,
    random_density_mat,
    random_phase_unitary,
    random_pure_vec,
    reduced_1q_brute_force,
    product_fit_distance,
    separable_by_svd,
)

H = matrix_of(GateKind.H)
X = matrix_of(GateKind.X)
Z = matrix_of(GateKind.Z)
ID = matrix_of(GateKind.ID)

SQRT1_2 = 1 / np.sqrt(2)


class TestConstruction:
    def test_zero_state_one_qubit(self):
        np.testing.assert_allclose(zero_state(1).amps, [1, 0], atol=1e-15)

    def test_zero_state_three_qubits(self):
        s = zero_state(3)
        assert s.amps.shape == (8,)
        np.testing.assert_allclose(s.amps[0], 1.0)
        np.testing.assert_allclose(s.amps[1:], 0.0)

    @pytest.mark.parametrize("n", [0, 17, -1, True, 2.0])
    def test_zero_state_capacity(self, n):
        with pytest.raises(CapacityError):
            zero_state(n)

    @pytest.mark.parametrize("n", [0, 11, True, 2.0])
    def test_zero_density_capacity(self, n):
        with pytest.raises(CapacityError):
            zero_density(n)

    def test_buffer_must_fit_the_register(self):
        # the size is read from the buffer, so a shape that is not (2^n,) or
        # (2^n, 2^n) is the one refusal; a 0-d buffer reaches it as shape (1,)
        for kind, axes, shapes in ((PureState, 1, [(0,), (3,), (2, 2)]),
                                   (DensityMatrix, 2, [(), (4,), (2, 4), (3, 3)])):
            for shape in shapes:
                with pytest.raises(ValueError, match=rf"buffer of shape \(.*\) is not "
                                                     rf"\(2\^n,\) \* {axes}"):
                    kind(np.zeros(shape))

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    def test_size_is_read_from_the_buffer(self, n, seed):
        rng = np.random.default_rng(seed)
        psi, rho = PureState(random_pure_vec(rng, n)), DensityMatrix(random_density_mat(rng, n))
        for state in (psi, rho):
            assert state.num_qubits == n
            assert state.copy().num_qubits == n
            assert embed(state, range(n), range(n + 1)).num_qubits == n + 1
        if n:
            assert psi.to_density().num_qubits == n
        else:
            with pytest.raises(CapacityError):
                psi.to_density()

    def test_to_density_capacity(self):
        assert zero_state(10).to_density().mat.shape == (1 << 10, 1 << 10)
        with pytest.raises(CapacityError, match=r"density engine supports 1\.\.10 qubits, got 11"):
            zero_state(11).to_density()

    @pytest.mark.parametrize("wires", [[], [2], [0, 3], [1, 2, 3], [0, 1, 2, 3]])
    def test_embed_puts_zero_on_the_added_wires(self, wires):
        rng = np.random.default_rng(len(wires))
        k = len(wires)
        vec, rho = random_pure_vec(rng, k), random_density_mat(rng, k)

        def buffer_index(i):  # i's bits on `wires`, or None if another bit is 1
            bits = [(i >> (3 - w)) & 1 for w in range(4)]
            if any(b for w, b in enumerate(bits) if w not in wires):
                return None
            return sum(bits[w] << (k - 1 - j) for j, w in enumerate(wires))

        old = [buffer_index(i) for i in range(16)]
        expected_vec = [0 if a is None else vec[a] for a in old]
        expected_rho = [[0 if None in (a, b) else rho[a, b] for b in old] for a in old]
        np.testing.assert_array_equal(embed(PureState(vec), wires, range(4)).amps,
                                      expected_vec)
        np.testing.assert_array_equal(embed(DensityMatrix(rho), wires, range(4)).mat,
                                      expected_rho)

    @pytest.mark.parametrize("wires, new_wires", [([5], [0, 1]), ([1, 0], [0, 1]), ([0], [0])])
    def test_embed_refuses_wires_it_cannot_place(self, wires, new_wires):
        with pytest.raises(ValueError, match="cannot place"):
            embed(zero_state(2), wires, new_wires)

    def test_from_amplitudes_checks_norm(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState.from_amplitudes([1.0, 1.0])
        # the size rule of PureState, then the capacity rule of every register
        for length in (3, 6):
            with pytest.raises(ValueError, match=r"buffer of shape \(.*\) is not \(2\^n,\) \* 1"):
                PureState.from_amplitudes([1.0] + [0.0] * (length - 1))
        for length, n in ((1, 0), (1 << 17, 17)):
            with pytest.raises(CapacityError,
                               match=rf"^statevector engine supports 1\.\.16 qubits, got {n}$"):
                PureState.from_amplitudes([1.0] + [0.0] * (length - 1))


NON_STATES = [None, [1, 0], 2, SimpleNamespace()]
TAKES_A_STATE = {
    "apply_1q": lambda s: apply_1q(s, H, 0),
    "apply_cnot": lambda s: apply_cnot(s, 0, 1),
    "reduced_density_1q": lambda s: reduced_density_1q(s, 0),
    "probabilities": lambda s: probabilities(s, [0]),
    "sample": lambda s: sample(s, [0], 16, seed=0),
    "bloch_measure": lambda s: bloch_measure(s, 0),
    "decohere": lambda s: decohere(s, 0, 0.1, 0.1),
}


@pytest.mark.parametrize("call", list(TAKES_A_STATE.values()), ids=list(TAKES_A_STATE))
@pytest.mark.parametrize("bad", NON_STATES, ids=lambda bad: type(bad).__name__)
def test_a_non_state_is_a_type_error_naming_its_type(call, bad):
    # refused by the one kind check, before any attribute is read
    with pytest.raises(TypeError, match=f"got {type(bad).__name__}$"):
        call(bad)


TAKES_ONE_KIND = {  # name: (call, the kind it takes, a state of the other kind)
    "is_separable": (is_separable, "PureState", zero_density(2)),
    "teleport_algebraic": (lambda s: teleport_algebraic(s, BellIndex(0, 0), BellIndex(0, 0)),
                           "PureState", zero_density(1)),
    "run-ideal": (lambda s: run(parse("qubits 2\nh q0\nmeasure q0\n"), "ideal", initial=s),
                  "PureState", zero_density(2)),
    "run-real": (lambda s: run(parse("qubits 2\nh q0\nmeasure q0\n"), "real", initial=s),
                 "DensityMatrix", zero_state(2)),
    "decohere": (lambda s: decohere(s, 0, 0.1, 0.1), "DensityMatrix", zero_state(1)),
}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in TAKES_ONE_KIND for bad in ("None", "SimpleNamespace", "other kind")
    if not (name.startswith("run") and bad == "None")  # initial=None is |0...0>
])
def test_the_wrong_kind_is_a_type_error_naming_both(name, bad):
    # refused by circuit._expect, which names the kind the function takes
    call, kind, other = TAKES_ONE_KIND[name]
    arg = {"None": None, "SimpleNamespace": SimpleNamespace(), "other kind": other}[bad]
    with pytest.raises(TypeError, match=f"^expected a {kind}, got {type(arg).__name__}$"):
        call(arg)


@pytest.mark.parametrize("kind, buf", [(PureState, [1, 0]), (DensityMatrix, np.eye(2))],
                         ids=["PureState", "DensityMatrix"])
def test_a_state_compares_by_identity(kind, buf):
    state = kind(buf)
    assert (state == state) is True
    assert (kind(buf) == kind(buf)) is False
    assert (state != kind(buf)) is True


class TestApply1q:
    def test_hadamard_on_zero(self):
        s = apply_1q(zero_state(1), H, 0)
        np.testing.assert_allclose(s.amps, [SQRT1_2, SQRT1_2], atol=1e-12)

    def test_x_is_not(self):
        s = apply_1q(zero_state(1), X, 0)
        np.testing.assert_allclose(s.amps, [0, 1], atol=1e-12)

    def test_z_turns_plus_into_minus(self):
        s = apply_1q(apply_1q(zero_state(1), H, 0), Z, 0)
        # oracle: direct 2x2 multiply
        expected = Z @ (H @ np.array([1, 0], dtype=complex))
        np.testing.assert_allclose(s.amps, expected, atol=1e-12)

    def test_qubit_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_1q(zero_state(2), H, 2)
        with pytest.raises(ValueError, match="integers"):
            apply_1q(zero_state(2), H, 0.0)
        with pytest.raises(ValueError, match="integers"):
            apply_cnot(zero_state(2), 0.0, 1)
        with pytest.raises(ValueError, match="integers"):
            decohere(zero_density(2), 1.0, 0.1, 0.1)
        with pytest.raises(ValueError, match="integers"):
            apply_1q(zero_state(2), H, True)
        with pytest.raises(ValueError, match="must be 2x2"):
            apply_1q(zero_state(2), np.eye(4), 0)
        with pytest.raises(TypeError, match="expected a PureState or DensityMatrix, got SimpleNamespace"):
            apply_1q(SimpleNamespace(num_qubits=2), H, 0)
        with pytest.raises(TypeError, match="expected a PureState or DensityMatrix, got SimpleNamespace"):
            reduced_density_1q(SimpleNamespace(num_qubits=2), 0)
        assert apply_1q(zero_state(2), H, np.int64(1)).amps[1] == pytest.approx(SQRT1_2)

    def test_matches_dense_oracle_on_pure_states(self):
        rng = np.random.default_rng(11)
        kinds = list(GateKind)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            q = int(rng.integers(n))
            vec = random_pure_vec(rng, n)
            for u in (matrix_of(kinds[int(rng.integers(len(kinds)))]),
                      random_phase_unitary(rng, anti=False),
                      random_phase_unitary(rng, anti=True), ID):
                expected = lift_1q(u, n, q) @ vec
                got = apply_1q(PureState(vec.copy()), u, q)
                np.testing.assert_allclose(got.amps, expected, atol=1e-12)
            assert np.array_equal(got.amps, vec)  # id leaves the buffer alone

    def test_matches_dense_oracle_on_density_matrices(self):
        rng = np.random.default_rng(12)
        kinds = [GateKind.X, GateKind.H, GateKind.T, GateKind.S]
        for _ in range(40):
            n = int(rng.integers(1, 4))
            q = int(rng.integers(n))
            rho = random_density_mat(rng, n)
            for u in (matrix_of(kinds[int(rng.integers(len(kinds)))]),
                      random_phase_unitary(rng, anti=False),
                      random_phase_unitary(rng, anti=True), ID):
                big = lift_1q(u, n, q)
                expected = big @ rho @ big.conj().T
                got = apply_1q(DensityMatrix(rho.copy()), u, q)
                np.testing.assert_allclose(got.mat, expected, atol=1e-12)
            assert np.array_equal(got.mat, rho)  # id leaves the buffer alone


KERNEL_SHAPES = ("identity", "diagonal", "anti-diagonal", "unit anti-diagonal", "hadamard",
                 "unscaled hadamard", "unscaled hadamard after diagonal", "dense")


def shaped_matrix(rng, shape: str) -> np.ndarray:
    """A random 2x2 matrix of the shape named `shape`. "identity", "unit
    anti-diagonal" and both unscaled hadamards are shapes engine.run
    passes, each with its own kernel; "diagonal", "anti-diagonal",
    "hadamard" and "dense" take the dense formula. It need not be
    unitary: the kernels never assume it."""
    if shape == "identity":
        return ID
    if shape == "hadamard":  # a == b == c == -d, with a random complex scale
        return complex(*rng.normal(size=2)) * np.array([[1, 1], [1, -1]])
    if shape == "unscaled hadamard":
        return np.array([[1, 1], [1, -1]])
    x = complex(*rng.normal(size=2))
    if shape == "unscaled hadamard after diagonal":  # [[1, 1], [1, -1]]·diag(1, x)
        return np.array([[1, x], [1, -x]])
    if shape == "unit anti-diagonal":  # [[0, 1], [x, 0]]: one copy, one multiply
        return np.array([[0, 1], [x, 0]])
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if shape == "diagonal":
        return u * np.eye(2)
    return u * (1 - np.eye(2)) if shape == "anti-diagonal" else u


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_every_kernel_matches_the_dense_oracle_on_every_wire(data):
    # Every wire, so both layouts run: low wires (post < 16) walk the
    # transposed halves. Up to 8 wires for a statevector, and up to 5 for
    # rho, whose column wires are the low wires of a 10-wire register.
    density = data.draw(st.booleans(), label="density")
    n = data.draw(st.integers(1, 5 if density else 8), label="n")
    shape = data.draw(st.sampled_from(KERNEL_SHAPES), label="shape")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u = shaped_matrix(rng, shape)
    start = random_density_mat(rng, n) if density else random_pure_vec(rng, n)
    for q in range(n):
        big = lift_1q(u, n, q)
        if density:
            got = apply_1q(DensityMatrix(start.copy()), u, q).mat
            expected = big @ start @ big.conj().T
        else:
            got = apply_1q(PureState(start.copy()), u, q).amps
            expected = big @ start
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        if shape == "identity":
            assert np.array_equal(got, start)  # id leaves the buffer alone


class TestApplyCnot:
    def test_flips_target_when_control_set(self):
        vec = np.zeros(4, dtype=complex)
        vec[2] = 1.0  # |10>
        s = apply_cnot(PureState(vec), 0, 1)
        np.testing.assert_allclose(s.amps, [0, 0, 0, 1], atol=1e-15)  # |11>

    def test_entangles_plus_zero_into_bell(self):
        s = apply_cnot(apply_1q(zero_state(2), H, 0), 0, 1)
        np.testing.assert_allclose(s.amps, [SQRT1_2, 0, 0, SQRT1_2], atol=1e-12)

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            apply_cnot(zero_state(2), 1, 1)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            c, t = rng.choice(n, size=2, replace=False)
            vec = random_pure_vec(rng, n)
            expected = lift_cnot(n, int(c), int(t)) @ vec
            got = apply_cnot(PureState(vec.copy()), int(c), int(t))
            np.testing.assert_allclose(got.amps, expected, atol=1e-12)

    def test_matches_permutation_oracle_on_density(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            c, t = rng.choice(n, size=2, replace=False)
            rho = random_density_mat(rng, n)
            big = lift_cnot(n, int(c), int(t))
            expected = big @ rho @ big.conj().T
            got = apply_cnot(DensityMatrix(rho.copy()), int(c), int(t))
            np.testing.assert_allclose(got.mat, expected, atol=1e-12)


    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_swap_on_the_bit_tensor(self, n):
        # the (pre, 2, mid, 2, post) swap moves the same elements as the one
        # indexed on the (2,) * wires tensor, on every ordered wire pair
        rng = np.random.default_rng(n)
        vec = random_pure_vec(rng, n)
        rho = random_density_mat(rng, n)
        for c in range(n):
            for t in range(n):
                if c == t:
                    continue
                expected = vec.copy()
                cnot_swap_by_axes(expected.reshape((2,) * n), c, t)
                got = apply_cnot(PureState(vec.copy()), c, t)
                assert np.array_equal(got.amps, expected)
                expected = rho.copy()
                for off in (0, n):
                    cnot_swap_by_axes(expected.reshape((2,) * (2 * n)), off + c, off + t)
                got = apply_cnot(DensityMatrix(rho.copy()), c, t)
                assert np.array_equal(got.mat, expected)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_density_gates_are_pure_gates_on_the_doubled_register(data):
    # rho's buffer is a 2n-wire register: a gate on rho is the same gate on
    # row wire q and its conjugate on column wire n + q, bit for bit. Neither
    # rho nor u is physical: the kernels never assume hermiticity or unitarity.
    n = data.draw(st.integers(1, 5), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    dim = 1 << n
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    shape = data.draw(st.sampled_from(["dense", "diagonal", "anti-diagonal"]), label="shape")
    if shape != "dense":  # the kernels that skip the zero entries
        u *= np.eye(2) if shape == "diagonal" else 1 - np.eye(2)
    q = data.draw(st.integers(0, n - 1), label="q")
    got = apply_1q(DensityMatrix(rho.copy()), u, q)
    doubled = apply_1q(apply_1q(PureState(rho.reshape(-1).copy()), u, q),
                       u.conj(), n + q)
    assert np.array_equal(got.mat.reshape(-1), doubled.amps)
    if n >= 2:
        c, t = data.draw(st.permutations(range(n)), label="c, t")[:2]
        got = apply_cnot(DensityMatrix(rho.copy()), c, t)
        doubled = apply_cnot(apply_cnot(PureState(rho.reshape(-1).copy()), c, t),
                             n + c, n + t)
        assert np.array_equal(got.mat.reshape(-1), doubled.amps)


class TestPartialTrace:
    def test_product_state_factors(self):
        s = apply_1q(zero_state(2), H, 0)  # |+> x |0>
        kept = reduced_density_1q(s.to_density(), 0)
        plus = np.array([SQRT1_2, SQRT1_2])
        np.testing.assert_allclose(kept, np.outer(plus, plus), atol=1e-12)

    def test_bell_half_is_maximally_mixed(self):
        bell = apply_cnot(apply_1q(zero_state(2), H, 0), 0, 1).to_density()
        for keep in (0, 1):
            np.testing.assert_allclose(
                reduced_density_1q(bell, keep), np.eye(2) / 2, atol=1e-12)

    def test_matches_index_summation_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            keep = int(rng.integers(n))
            vec = random_pure_vec(rng, n)
            rho = np.outer(vec, vec.conj())
            expected = reduced_1q_brute_force(rho, n, keep)
            got = reduced_density_1q(DensityMatrix(rho), keep)
            np.testing.assert_allclose(got, expected, atol=1e-12)
            np.testing.assert_allclose(np.trace(got).real, 1.0, atol=1e-10)

    def test_product_density_returns_kept_factor(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            rho_a = random_density_mat(rng, 1)
            rho_b = random_density_mat(rng, 1)
            joint = DensityMatrix(np.kron(rho_a, rho_b))
            np.testing.assert_allclose(
                reduced_density_1q(joint, 0), rho_a, atol=1e-12)
            np.testing.assert_allclose(
                reduced_density_1q(joint, 1), rho_b, atol=1e-12)

    def test_reduced_density_agrees_between_state_kinds(self):
        rng = np.random.default_rng(17)
        vec = random_pure_vec(rng, 3)
        pure = PureState(vec.copy())
        dense = DensityMatrix(np.outer(vec, vec.conj()))
        for q in range(3):
            np.testing.assert_allclose(
                reduced_density_1q(pure, q), reduced_density_1q(dense, q), atol=1e-12)


class TestSeparability:
    def test_explicit_product_is_separable(self):
        # (|00> + |10>)/sqrt(2) = (|0> + |1>)|0>/sqrt(2)
        s = PureState.from_amplitudes([SQRT1_2, 0, SQRT1_2, 0])
        assert is_separable(s)

    def test_basis_state_is_separable(self):
        assert is_separable(PureState.from_amplitudes([0, 1, 0, 0]))  # |01>

    def test_bell_state_is_entangled(self):
        bell = PureState.from_amplitudes([SQRT1_2, 0, 0, SQRT1_2])
        assert not is_separable(bell)
        # brute force: no product state comes close
        rng = np.random.default_rng(18)
        assert product_fit_distance(bell.amps, 20000, rng) > 0.3

    def test_only_two_qubit_states(self):
        for n in (1, 3):
            with pytest.raises(ValueError, match=f"^expected a 2-qubit PureState, got {n} qubits$"):
                is_separable(zero_state(n))
        with pytest.raises(TypeError, match="^expected a PureState, got DensityMatrix$"):
            is_separable(zero_density(2))

    def test_agrees_with_product_fit_oracle_on_1000_states(self):
        rng = np.random.default_rng(19)
        separable = entangled = 0
        for i in range(1000):
            if i % 2 == 0:
                a = random_pure_vec(rng, 1)
                b = random_pure_vec(rng, 1)
                vec = np.kron(a, b)
            else:
                vec = random_pure_vec(rng, 2)
            state = PureState(vec)
            oracle_says = separable_by_svd(vec)
            assert is_separable(state, tol=1e-8) == oracle_says
            separable += oracle_says
            entangled += not oracle_says
        # the sample actually exercises both answers
        assert separable >= 500
        assert entangled >= 490


class TestNormPreservation:
    def test_random_gate_sequences_keep_unit_norm(self):
        rng = np.random.default_rng(20)
        kinds = list(GateKind)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            s = PureState(random_pure_vec(rng, n))
            for _ in range(30):
                if n >= 2 and rng.random() < 0.3:
                    c, t = rng.choice(n, size=2, replace=False)
                    apply_cnot(s, int(c), int(t))
                else:
                    kind = kinds[int(rng.integers(len(kinds)))]
                    apply_1q(s, matrix_of(kind), int(rng.integers(n)))
            assert abs(s.norm() - 1.0) <= 1e-10
            assert np.all(np.isfinite(s.amps.view(float)))
