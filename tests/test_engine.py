"""The interpreter: processor rules, start states, and agreement with
the dense oracle on both processors."""

from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.circuit import (Circuit, Cnot, DeviceModel, Gate1, MeasureZ, QubitNoise,
                          default_device, parse)
from qsim import engine, states
from qsim.engine import PROCESSORS, run
from qsim.errors import CapacityError, ValidationError
from qsim.gates import GateKind, matrix_of
from qsim.measure import probabilities
from qsim.noise import NoiseConfig, amplitude_damping, decohere, dephasing
from qsim.states import (DensityMatrix, PureState, _apply_1q, _apply_cnot, apply_1q,
                         apply_cnot)

from oracles import (EXACT_ATOL, SINGLE_KINDS, engine_calls, evolve_dense,
                     exact_amplitudes, exact_probabilities, random_circuit,
                     random_density_mat, random_pure_vec)

BELL_TEXT = "qubits 2\nh q0\ncx q0 q1\nmeasure q0\nmeasure q1\n"


def test_measurement_markers_are_inert():
    with_meas = run(parse(BELL_TEXT))
    without = run(parse("qubits 2\nh q0\ncx q0 q1\n"))
    np.testing.assert_allclose(with_meas.amps, without.amps, atol=1e-15)


def test_gate_after_measure_is_refused():
    circuit = parse("qubits 1\nmeasure q0\nx q0\n")
    with pytest.raises(ValidationError) as info:
        run(circuit)
    assert info.value.circuit is circuit  # the CLI reports against it


def test_ideal_engine_ignores_device_constraints():
    # cx targeting q1 is illegal on the packaged device but fine ideally
    state = run(parse(BELL_TEXT), processor="ideal")
    assert isinstance(state, PureState)
    np.testing.assert_allclose(np.abs(state.amps) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)


def test_real_engine_returns_density_matrix():
    circuit = parse("qubits 3\nh q0\ncx q0 q2\nmeasure q0\nmeasure q2\n")
    state = run(circuit, processor="real", device=default_device())
    assert isinstance(state, DensityMatrix)
    assert state.trace() == pytest.approx(1.0, abs=1e-10)


def test_unknown_processor_rejected():
    with pytest.raises(ValueError, match="processor"):
        run(parse(BELL_TEXT), processor="warp")


def test_custom_initial_state_is_not_mutated():
    rng = np.random.default_rng(41)
    vec = random_pure_vec(rng, 2)
    initial = PureState(vec.copy())
    run(parse(BELL_TEXT), initial=initial)
    np.testing.assert_allclose(initial.amps, vec, atol=0)


def test_initial_state_size_must_match():
    with pytest.raises(ValueError, match="initial state"):
        run(parse(BELL_TEXT), initial=PureState(np.array([1, 0])))
    with pytest.raises(ValueError, match="2-qubit DensityMatrix"):
        run(parse("qubits 2\nh q0\nmeasure q0\n"), "real", initial=PureState(np.eye(4)[0]))


def test_initial_state_wider_than_the_engine_is_refused():
    # the register is checked against the engine's cap before the initial
    # state is read, as a fresh register is; np.zeros leaves its pages unwritten
    wide = Circuit(17, [MeasureZ(0)])
    with pytest.raises(CapacityError, match=r"statevector engine supports 1\.\.16 qubits, got 17"):
        run(wide, initial=PureState(np.zeros(1 << 17, dtype=complex)))
    device = _open_device([(0.0, 0.0)] * 11)
    with pytest.raises(CapacityError, match=r"density engine supports 1\.\.10 qubits, got 11"):
        run(parse("qubits 11\nh q0\nmeasure q10\n"), "real", device,
            initial=DensityMatrix(np.zeros((1 << 11, 1 << 11), dtype=complex)))


def test_sixteen_qubit_register_runs():
    # only the last wire leaves |0>: embed places it on all 16 at the end
    state = run(parse("qubits 16\nh q15\nmeasure q15\n"))
    expected = np.zeros(1 << 16, dtype=complex)
    expected[:2] = matrix_of(GateKind.H)[:, 0]
    np.testing.assert_array_equal(state.amps, expected)


def test_density_capacity_cap():
    # 10 density wires, the 20 axes of embed's view, with only q9 touched
    gamma, lam = 0.1, 0.05
    device = _open_device([(gamma, lam)] * 10)
    rho = run(parse("qubits 10\nh q9\nmeasure q9\n"), "real", device)
    expected = np.zeros((1 << 10, 1 << 10), dtype=complex)
    coherence = 0.5 * np.sqrt(1 - gamma) * (1 - 2 * lam)
    expected[:2, :2] = [[1 - (1 - gamma) / 2, coherence], [coherence, (1 - gamma) / 2]]
    np.testing.assert_allclose(rho.mat, expected, rtol=0, atol=1e-15)

    text = "qubits 11\n" + "".join(f"id q{i}\n" for i in range(11)) + "measure q0\n"
    wide = DeviceModel("wide", 11, frozenset({2}), 1e-7,
                       tuple(QubitNoise(0.0, 0.0) for _ in range(11)))
    with pytest.raises(CapacityError, match=r"density engine supports 1\.\.10 qubits, got 11"):
        run(parse(text), processor="real", device=wide)


PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None)
RATES = st.sampled_from([0.0]) | st.floats(0.0, 1.0)


def gates_on(n):
    one = st.builds(Gate1, st.sampled_from(SINGLE_KINDS), st.integers(0, n - 1))
    if n == 1:
        return one
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    return one | pair.map(lambda p: Cnot(*p))


def _open_device(rates) -> DeviceModel:
    """A device with every CNOT target allowed and one rate pair per wire."""
    n = len(rates)
    return DeviceModel("open", n, frozenset(range(n)), 1e-7,
                       tuple(QubitNoise(g, lam) for g, lam in rates))


@st.composite
def noisy_circuits(draw):
    """A circuit of up to 4 wires, with measurements last, and one rate
    pair per wire of an open-target device."""
    n = draw(st.integers(1, 4))
    instrs = draw(st.lists(gates_on(n), max_size=12))
    measured = draw(st.lists(st.integers(0, n - 1), unique=True))
    rates = draw(st.lists(st.tuples(RATES, RATES), min_size=n, max_size=n))
    return Circuit(n, instrs + [MeasureZ(q) for q in sorted(measured)]), _open_device(rates)


def _check_against_dense_oracle(processor, circuit, device, seed):
    """run() on |0...0> (seed None) or a random start agrees with evolve_dense."""
    n = circuit.num_qubits
    rng = np.random.default_rng(seed)
    ground = np.eye(1 << n, dtype=complex)[0]
    if processor == "ideal":
        start = ground if seed is None else random_pure_vec(rng, n)
        initial = None if seed is None else PureState(start.copy())
        slot = ()
    else:
        start = np.outer(ground, ground) if seed is None else random_density_mat(rng, n)
        initial = None if seed is None else DensityMatrix(start.copy())
        slot = [(q, ch.ops) for q, rate in enumerate(device.qubits)
                for ch in (amplitude_damping(rate.gamma_relax), dephasing(rate.gamma_phase))]
    got = run(circuit, processor, device, initial=initial)
    expected = evolve_dense(circuit, start, slot)
    np.testing.assert_allclose(got.amps if processor == "ideal" else got.mat,
                               expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("processor", PROCESSORS)
@PROPERTY_SETTINGS
@given(case=noisy_circuits(), seed=st.none() | st.integers(0, 2**32 - 1))
def test_run_matches_dense_oracle(processor, case, seed):
    _check_against_dense_oracle(processor, *case, seed)


DIAGONAL_KINDS = tuple(k for k in SINGLE_KINDS
                       if not (matrix_of(k)[0, 1] or matrix_of(k)[1, 0]))
# the diagonal and the anti-diagonal kinds: every kind but h
MONOMIAL_KINDS = tuple(k for k in SINGLE_KINDS
                       if not (matrix_of(k)[0, 0] and matrix_of(k)[0, 1]))
# what follows a run of diagonal gates on a wire: an anti-diagonal gate
# that joins the pending monomial, an h that needs it applied first, a cx
# with the wire as target (its diagonal factor applied first) or as
# control (it stays pending), or nothing
FOLLOWERS = ("x", "y", "h", "cx target", "cx control", "none")
# what ends a run of monomials on a wire: h, or a cx either way round
MONOMIAL_FOLLOWERS = ("h", "cx target", "cx control", "none")


@st.composite
def run_blocks(draw, kinds, followers):
    """A circuit of up to 4 wires built from blocks: a run of 1-4 gates of
    `kinds` on one wire, then at most one follower touching that wire, so
    that at least half of the gates are of `kinds`."""
    n = draw(st.integers(1, 4))
    wire = st.integers(0, n - 1)
    if n == 1:
        followers = tuple(f for f in followers if not f.startswith("cx"))
    instrs = []
    for q, run_kinds, follower, other in draw(st.lists(st.tuples(
            wire, st.lists(st.sampled_from(kinds), min_size=1, max_size=4),
            st.sampled_from(followers), wire), max_size=8)):
        instrs += [Gate1(k, q) for k in run_kinds]
        other = other if other != q else (q + 1) % n
        if follower in ("x", "y", "h"):
            instrs.append(Gate1(GateKind(follower), q))
        elif follower == "cx target":
            instrs.append(Cnot(other, q))
        elif follower == "cx control":
            instrs.append(Cnot(q, other))
    rates = draw(st.lists(st.tuples(RATES, RATES), min_size=n, max_size=n))
    return Circuit(n, instrs + [MeasureZ(q) for q in range(n)]), _open_device(rates)


def _check_blocks(processor, circuit, device, seed, kinds):
    """The dense-oracle check, plus the bound on physical slot flushes."""
    gates = [i for i in circuit.instrs if not isinstance(i, MeasureZ)]
    of_kinds = [i for i in gates if isinstance(i, Gate1) and i.kind in kinds]
    assert 2 * len(of_kinds) >= len(gates)
    with mock.patch.object(engine, "decohere", wraps=decohere) as slot:
        _check_against_dense_oracle(processor, circuit, device, seed)
    noisy = sum(1 for rate in device.qubits if rate.gamma_relax or rate.gamma_phase)
    assert slot.call_count <= (2 * len(gates) + noisy if processor == "real" else 0)


@pytest.mark.parametrize("processor", PROCESSORS)
@PROPERTY_SETTINGS
@given(case=run_blocks(DIAGONAL_KINDS, FOLLOWERS), seed=st.none() | st.integers(0, 2**32 - 1))
def test_deferred_phases_match_dense_oracle(processor, case, seed):
    _check_blocks(processor, *case, seed, DIAGONAL_KINDS)


@pytest.mark.parametrize("processor", PROCESSORS)
@PROPERTY_SETTINGS
@given(case=run_blocks(MONOMIAL_KINDS, MONOMIAL_FOLLOWERS),
       seed=st.none() | st.integers(0, 2**32 - 1))
def test_pending_monomials_match_dense_oracle(processor, case, seed):
    _check_blocks(processor, *case, seed, MONOMIAL_KINDS)


@pytest.mark.parametrize("text", [
    "s q0\nx q0\ns q0\nh q0\n",  # i·X pending before h: the i must survive
    "x q0\ncx q0 q1\n",  # a flip pending on the control reaches the target
])
def test_pending_flip_keeps_every_amplitude(text):
    circuit = parse("qubits 2\n" + text)
    expected = evolve_dense(circuit, np.eye(4, dtype=complex)[0])
    np.testing.assert_allclose(run(circuit).amps, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("hs, expected", [(2, 0.25), (4, 0.0625)])
def test_even_h_count_rounds_no_sqrt_half(hs, expected):
    text = f"qubits {hs}\n" + "".join(f"h q{q}\n" for q in range(hs))
    circuit = parse(text + "".join(f"measure q{q}\n" for q in range(hs)))
    probs = probabilities(run(circuit), circuit.measured_qubits())
    assert len(probs) == 1 << hs
    assert set(probs.values()) == {expected}


CLIFFORD_PAULI_KINDS = (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.ID)


@st.composite
def even_h_circuits(draw):
    """A circuit of x y z h id cx on 1-8 wires with an even number of h
    gates, every wire measured."""
    n = draw(st.integers(1, 8))
    one = st.builds(Gate1, st.sampled_from(CLIFFORD_PAULI_KINDS), st.integers(0, n - 1))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    instrs = draw(st.lists(one | pair.map(lambda p: Cnot(*p)) if n > 1 else one, max_size=40))
    if sum(isinstance(i, Gate1) and i.kind is GateKind.H for i in instrs) % 2:
        instrs.append(Gate1(GateKind.H, draw(st.integers(0, n - 1))))
    return Circuit(n, instrs + [MeasureZ(q) for q in range(n)])


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(circuit=even_h_circuits())
def test_even_h_count_gives_exact_dyadic_probabilities(circuit):
    # every weight of such a stabilizer state is k / 2**n; with the 1/√2
    # factors folded as powers of two, none is rounded
    n = circuit.num_qubits
    probs = probabilities(run(circuit), circuit.measured_qubits())
    assert all((p * 2**n).is_integer() for p in probs.values())
    assert sum(probs.values()) == 1.0


@PROPERTY_SETTINGS
@given(instrs=st.lists(st.builds(Gate1, st.sampled_from(MONOMIAL_KINDS), st.integers(0, 3)),
                       max_size=40))
def test_monomial_gates_make_at_most_one_pass_per_wire(instrs):
    with engine_calls("_apply_1q", 2) as kernel:
        run(Circuit(4, instrs))
    wires = [wire for wire, _ in kernel]
    assert len(wires) == len(set(wires))


def test_flip_twice_makes_no_pass():
    with mock.patch.object(engine, "_apply_1q", wraps=_apply_1q) as kernel:
        run(parse("qubits 1\nx q0\nx q0\n"))
    assert kernel.call_count == 0


@pytest.mark.parametrize("processor", PROCESSORS)
def test_run_restores_the_ufunc_buffer_size(processor):
    circuit = parse("qubits 3\nh q0\ncx q0 q2\nx q2\nh q2\nmeasure q0\nmeasure q2\n")
    seen = []

    def kernel(state, u, q):
        seen.append(np.getbufsize())
        return _apply_1q(state, u, q)

    old = np.setbufsize(2 * 8192)  # not numpy's default, so a reset to it shows
    try:
        with mock.patch.object(engine, "_apply_1q", side_effect=kernel):
            run(circuit, processor)
        assert np.getbufsize() == 2 * 8192
        assert seen and set(seen) == {engine.UFUNC_BUFSIZE}
        with mock.patch.object(engine, "_apply_1q", side_effect=RuntimeError("kernel")):
            with pytest.raises(RuntimeError, match="kernel"):
                run(circuit, processor)
        assert np.getbufsize() == 2 * 8192
    finally:
        np.setbufsize(old)


@st.composite
def late_wire_circuits(draw, max_wires):
    """A circuit whose wires leave |0> late: block k reaches only the
    first `awake` wires of a random order, with `awake` growing from block
    to block, so the others idle in |0> for long stretches. x and y are
    drawn often, so flips pend on wires still in |0> at a flush and at the
    end, and cx pairs often meet a control or target still in |0>."""
    n = draw(st.integers(2, max_wires))
    order = draw(st.permutations(range(n)))
    kinds = st.sampled_from([GateKind.X, GateKind.Y]) | st.sampled_from(SINGLE_KINDS)
    instrs = []
    for awake in sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=5))):
        wire = st.sampled_from(order[:awake])
        one = st.builds(Gate1, kinds, wire)
        pair = st.lists(st.sampled_from(order[:awake + 1]), min_size=2, max_size=2, unique=True)
        instrs += draw(st.lists(one | pair.map(lambda p: Cnot(*p)), max_size=6))
    rate = st.just((0.0, 0.0)) | st.tuples(RATES, RATES)  # noiseless wires keep their flips
    rates = draw(st.lists(rate, min_size=n, max_size=n))
    return Circuit(n, instrs), _open_device(rates)


@pytest.mark.parametrize("processor, max_wires", [("ideal", 9), ("real", 6)])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_wires_in_zero_match_the_all_active_run(processor, max_wires, data):
    circuit, device = data.draw(late_wire_circuits(max_wires))
    n = circuit.num_qubits
    ground = np.eye(1 << n, dtype=complex)[0]
    if processor == "ideal":
        initial, read = PureState(ground), (lambda s: s.amps)
    else:
        initial, read = DensityMatrix(np.outer(ground, ground)), (lambda s: s.mat)
    with engine_calls("decohere", 1) as slot:
        _check_against_dense_oracle(processor, circuit, device, None)
    noisy = sum(1 for rate in device.qubits if rate.gamma_relax or rate.gamma_phase)
    assert len(slot) <= (2 * len(circuit.instrs) + noisy if processor == "real" else 0)
    np.testing.assert_allclose(read(run(circuit, processor, device)),
                               read(run(circuit, processor, device, initial=initial)),
                               rtol=0, atol=1e-15)


def _assert_direct_equals_public(circuit, processor, device):
    """run drives the unchecked kernels with entries it computes in
    Python from gates.ENTRIES and its frame; the public apply_1q takes a
    complex array and passes the entries its tolist gives. Both must give
    the same bits."""

    def kernel(state, m, q):
        return apply_1q(state, np.array(m, dtype=complex), q)

    with mock.patch.object(engine, "_apply_1q", side_effect=kernel), \
            mock.patch.object(engine, "_apply_cnot", side_effect=apply_cnot):
        public = run(circuit, processor, device)
    direct = run(circuit, processor, device)
    read = (lambda s: s.amps) if processor == "ideal" else (lambda s: s.mat)
    assert np.array_equal(read(direct), read(public))
    assert read(direct).tobytes() == read(public).tobytes()  # signed zeros too


@pytest.mark.parametrize("processor, max_wires", [("ideal", 9), ("real", 6)])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_direct_kernel_calls_equal_the_public_path(processor, max_wires, data):
    circuit, device = data.draw(late_wire_circuits(max_wires))
    # flips still pending when the run ends
    circuit.instrs += [Gate1(GateKind.X, 0), Gate1(GateKind.Y, circuit.num_qubits - 1)]
    _assert_direct_equals_public(circuit, processor, device)


def _is_engine_shape(m):
    """Whether m is diag(1, d), [[0, 1], [c, 0]] or [[1, x], [1, -x]],
    which takes in the unscaled Hadamard at x == 1."""
    (a, b), (c, d) = m
    return a == 1 and b == c == 0 or a == d == 0 and b == 1 or a == c == 1 and b == -d


@pytest.mark.parametrize("processor, max_wires", [("ideal", 9), ("real", 6)])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_run_passes_the_pair_kernel_only_its_four_shapes(processor, max_wires, data):
    circuit, device = data.draw(late_wire_circuits(max_wires))
    with mock.patch.object(states, "_pair_update", wraps=states._pair_update) as kernel:
        run(circuit, processor, device)
    matrices = [call.args[1] for call in kernel.call_args_list]
    assert all(map(_is_engine_shape, matrices)), matrices


@pytest.mark.parametrize("processor", PROCESSORS)
@pytest.mark.parametrize("text", [
    "h q0\nx q0\nh q0\n",  # Z pending as ints: settled as diag(1, -1.0)
    "h q1\nh q0\nx q0\nh q0\ncx q0 q1\n",  # and a cx on top
    "x q0\ncx q0 q1\nh q1\nx q1\n",  # a flip copied by cx, then X·H
])
def test_integer_frames_keep_their_signed_zeros(processor, text):
    device = _open_device([(0.0, 0.0), (0.01, 0.02)])
    _assert_direct_equals_public(parse("qubits 2\n" + text), processor, device)


@pytest.mark.parametrize("text", [
    "h q1\nx q0\ncx q0 q1\n",  # the flip reaches q1 after the slots q1 has pending
    "x q0\ny q0\nh q1\n",  # diag(-i, i) on q0 in |0>: rho picks up -i and i
])
def test_noiseless_wire_in_zero_on_the_real_processor(text):
    device = _open_device([(0.0, 0.0), (0.3, 0.1)])
    _check_against_dense_oracle("real", parse("qubits 2\n" + text), device, None)


def test_one_touched_wire_is_a_one_wire_buffer():
    device = _open_device([(0.01, 0.02)] * 10)
    with engine_calls("_apply_1q", 2) as kernel, engine_calls("decohere", 1) as slot:
        run(parse("qubits 10\nh q4\nmeasure q4\n"), "real", device)
    assert [(wire, args[0].num_qubits) for wire, args in kernel] == [(4, 1)]
    assert [wire for wire, _ in slot] == [4]


@pytest.mark.parametrize("processor", PROCESSORS)
def test_cx_on_wires_in_zero_makes_no_pass(processor):
    device = _open_device([(0.01, 0.02)] * 10)
    with engine_calls("_apply_1q", 2) as kernel, engine_calls("_apply_cnot", 1) as cx, \
            engine_calls("decohere", 1) as slot:
        state = run(parse("qubits 10\ncx q0 q1\n"), processor, device)
    assert kernel == cx == slot == []
    weights = np.abs(state.amps) ** 2 if processor == "ideal" else state.mat.diagonal().real
    assert weights[0] == 1.0 and not weights[1:].any()


@pytest.mark.parametrize("processor", PROCESSORS)
def test_thousands_of_hadamards_keep_the_norm(processor):
    # h runs unscaled: without renormalization the buffer would grow by
    # 2^1050 on psi and 2^2100 on rho, past the float range
    circuit = parse("qubits 2\n" + "h q0\nt q0\nh q1\ncx q0 q1\n" * 1050 + "measure q0\n")
    device = _open_device([(1e-4, 1e-4)] * 2)
    with engine_calls("_apply_1q", 2) as kernel:
        _check_against_dense_oracle(processor, circuit, device, None)
    assert sum(_pass_shape(args[1]) == "h" for _, args in kernel) == 2100
    state = run(circuit, processor, device)
    drift = abs(state.norm() - 1) if processor == "ideal" else abs(state.trace() - 1)
    assert drift < 1e-9


def _pass_shape(u) -> str:
    (a, b), (c, d) = np.asarray(u).tolist()
    return "diagonal" if b == c == 0 else "anti-diagonal" if a == d == 0 else "h"


@pytest.mark.parametrize("text, passes", [
    ("s q0\nh q0\n", [(0, "h")]),
    ("h q0\ns q0\nh q0\n", [(0, "h"), (0, "h")]),  # H·diag(1, i): one fused pass
    # H·X·diag(c, b) = Z·H·diag(c, b) fuses too, and leaves Z for the end
    ("h q0\nx q0\nt q0\nh q0\n", [(0, "h"), (0, "h"), (0, "diagonal")]),
    ("h q0\nt q1\ns q1\nz q1\n", [(0, "h")]),  # a diagonal on a wire in |0>: the scalar only
    ("h q0\nx q0\nz q0\nx q0\n", [(0, "h"), (0, "diagonal")]),  # -Z = -1·diag(1, -1)
])
def test_settled_phases_make_one_pass(text, passes):
    circuit = parse("qubits 2\n" + text)
    with engine_calls("_apply_1q", 2) as kernel:
        _check_against_dense_oracle("ideal", circuit, None, None)
    assert [(wire, _pass_shape(args[1])) for wire, args in kernel] == passes


def test_z_on_a_cx_target_passes_to_the_control():
    # cx·Z_t = Z_c·Z_t·cx: the Z stays pending on q1, and q0 picks one up
    seen = []

    def kernel(state, u, q):
        seen.append((q, _pass_shape(u)))
        return _apply_1q(state, u, q)

    def cx(state, c, t):
        seen.append(("cx", c, t))
        return _apply_cnot(state, c, t)

    circuit = parse("qubits 2\nh q0\nh q1\nz q1\ncx q0 q1\n")
    with mock.patch.object(engine, "_apply_1q", side_effect=kernel), \
            mock.patch.object(engine, "_apply_cnot", side_effect=cx):
        _check_against_dense_oracle("ideal", circuit, None, None)
    assert seen[:3] == [(0, "h"), (1, "h"), ("cx", 0, 1)]
    assert sorted(seen[3:]) == [(0, "diagonal"), (1, "diagonal")]  # settled at the end


@pytest.mark.parametrize("processor", PROCESSORS)
@PROPERTY_SETTINGS
@given(case=noisy_circuits(), seed=st.none() | st.integers(0, 2**32 - 1))
def test_every_pass_has_a_unit_leading_entry(processor, case, seed):
    # the leading entry of a settled monomial and the 1/√2 of each h go to
    # the register-wide scalar: a settle is one half-pass diag(1, x) or a
    # copy plus [[0, 1], [x, 0]], and an h is [[1, x], [1, -x]]
    with engine_calls("_apply_1q", 2) as kernel:
        _check_against_dense_oracle(processor, *case, seed)
    for _, args in kernel:
        (a, b), _ = np.asarray(args[1]).tolist()
        assert (a or b) == 1


def test_exact_oracle_matches_the_dense_oracle():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, int(rng.integers(0, 30)))
        np.testing.assert_allclose(exact_amplitudes(circuit),
                                   evolve_dense(circuit, np.eye(1 << n, dtype=complex)[0]),
                                   rtol=0, atol=1e-12)


ACCEPTANCE_ATOL = 1e-10  # exact-mode distributions, tests/test_acceptance.py


@st.composite
def clifford_t_circuits(draw):
    """A random circuit on 1-10 wires: up to 200 gates, one more of every
    kind and a cx when n > 1, shuffled, then a nonempty set of wires
    measured."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instrs = random_circuit(rng, n, draw(st.integers(0, 200)), measure=False).instrs
    instrs += [Gate1(kind, int(rng.integers(n))) for kind in SINGLE_KINDS]
    if n > 1:
        instrs.append(Cnot(*map(int, rng.choice(n, size=2, replace=False))))
    measured = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return Circuit(n, [instrs[i] for i in rng.permutation(len(instrs))]
                   + [MeasureZ(q) for q in sorted(measured)])


@pytest.mark.parametrize("processor", PROCESSORS)
@settings(PROPERTY_SETTINGS, max_examples=100)
@given(circuit=clifford_t_circuits())
def test_probabilities_match_the_exact_oracle(processor, circuit):
    n, measured = circuit.num_qubits, circuit.measured_qubits()
    device = _open_device([(0.01, 0.02)] * n)
    state = run(circuit, processor, device, NoiseConfig.from_device(device, enabled=False))
    got = probabilities(state, measured)
    exact = exact_probabilities(circuit, measured)
    assert set(got) <= set(exact)
    worst = max(abs(Decimal(got.get(key, 0.0)) - p) for key, p in exact.items())
    assert worst <= ACCEPTANCE_ATOL
    assert worst <= EXACT_ATOL
