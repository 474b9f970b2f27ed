"""The interpreter: processor rules, start states, and agreement with
the dense oracle on both processors."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.circuit import (Circuit, Cnot, DeviceModel, Gate1, MeasureZ, QubitNoise,
                          default_device, parse)
from qsim import engine
from qsim.engine import PROCESSORS, run
from qsim.errors import CapacityError, ValidationError
from qsim.gates import GateKind, matrix_of
from qsim.noise import amplitude_damping, decohere, dephasing
from qsim.states import DensityMatrix, PureState, apply_1q

from oracles import SINGLE_KINDS, evolve_dense, random_density_mat, random_pure_vec

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
    initial = PureState(2, vec.copy())
    run(parse(BELL_TEXT), initial=initial)
    np.testing.assert_allclose(initial.amps, vec, atol=0)


def test_initial_state_size_must_match():
    with pytest.raises(ValueError, match="initial state"):
        run(parse(BELL_TEXT), initial=PureState(1, np.array([1, 0])))
    with pytest.raises(ValueError, match="2-qubit DensityMatrix"):
        run(parse("qubits 2\nh q0\nmeasure q0\n"), "real", initial=PureState(2, np.eye(4)[0]))


def test_sixteen_qubit_register_runs():
    state = run(parse("qubits 16\nh q15\nmeasure q15\n"))
    assert state.amps.size == 1 << 16
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_density_capacity_cap():
    text = "qubits 11\n" + "".join(f"id q{i}\n" for i in range(11)) + "measure q0\n"
    from qsim.circuit import DeviceModel, QubitNoise

    wide = DeviceModel("wide", 11, frozenset({2}), 1e-7,
                       tuple(QubitNoise(0.0, 0.0) for _ in range(11)))
    with pytest.raises(CapacityError):
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
        initial = None if seed is None else PureState(n, start.copy())
        slot = ()
    else:
        start = np.outer(ground, ground) if seed is None else random_density_mat(rng, n)
        initial = None if seed is None else DensityMatrix(n, start.copy())
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


@PROPERTY_SETTINGS
@given(instrs=st.lists(st.builds(Gate1, st.sampled_from(MONOMIAL_KINDS), st.integers(0, 3)),
                       max_size=40))
def test_monomial_gates_make_at_most_one_pass_per_wire(instrs):
    with mock.patch.object(engine, "apply_1q", wraps=apply_1q) as kernel:
        run(Circuit(4, instrs))
    wires = [c.args[2] for c in kernel.call_args_list]
    assert len(wires) == len(set(wires))


def test_flip_twice_makes_no_pass():
    with mock.patch.object(engine, "apply_1q", wraps=apply_1q) as kernel:
        run(parse("qubits 1\nx q0\nx q0\n"))
    assert kernel.call_count == 0


@pytest.mark.parametrize("processor", PROCESSORS)
def test_run_restores_the_ufunc_buffer_size(processor):
    circuit = parse("qubits 3\nh q0\ncx q0 q2\nx q2\nh q2\nmeasure q0\nmeasure q2\n")
    seen = []

    def kernel(state, u, q):
        seen.append(np.getbufsize())
        return apply_1q(state, u, q)

    old = np.setbufsize(2 * 8192)  # not numpy's default, so a reset to it shows
    try:
        with mock.patch.object(engine, "apply_1q", side_effect=kernel):
            run(circuit, processor)
        assert np.getbufsize() == 2 * 8192
        assert seen and set(seen) == {engine.UFUNC_BUFSIZE}
        with mock.patch.object(engine, "apply_1q", side_effect=RuntimeError("kernel")):
            with pytest.raises(RuntimeError, match="kernel"):
                run(circuit, processor)
        assert np.getbufsize() == 2 * 8192
    finally:
        np.setbufsize(old)
