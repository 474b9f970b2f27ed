"""Bell states, both teleportation routes, and the idle-decay sweep."""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.circuit import (PROCESSORS, Circuit, DeviceModel, Gate1, MeasureZ, QubitNoise,
                          default_device, parse, validate)
from qsim.cli import simulate_text, sweep_text
from qsim.engine import run
from qsim.errors import CapacityError, ValidationError
from qsim.gates import GateKind, matrix_of
from qsim.measure import _PROB_FLOOR, probabilities, sample
from qsim.protocols import (
    BellIndex,
    bell_state,
    build_teleport_circuit,
    circuit_correction_table,
    correction_for,
    decoherence_sweep,
    run_teleport,
    teleport_algebraic,
)
from qsim.states import DensityMatrix, PureState, is_separable, zero_density

from oracles import phase_insensitive_overlap, random_pure_vec, teleport_branches_dense

CIRCUITS = Path(__file__).resolve().parents[1] / "circuits"
SQRT1_2 = 1 / np.sqrt(2)
ALL_BELL = [BellIndex(n, m) for n in (0, 1) for m in (0, 1)]


def random_input(rng) -> PureState:
    return PureState.from_amplitudes(random_pure_vec(rng, 1))


def apply_correction(vec: np.ndarray, correction) -> np.ndarray:
    out = vec
    for g in correction:
        out = matrix_of(g) @ out
    return out


class TestBellStates:
    def test_plain_pair(self):
        np.testing.assert_allclose(
            bell_state(BellIndex(0, 0)).amps,
            [SQRT1_2, 0, 0, SQRT1_2], atol=1e-12)

    def test_singlet(self):
        np.testing.assert_allclose(
            bell_state(BellIndex(1, 1)).amps,
            [0, SQRT1_2, -SQRT1_2, 0], atol=1e-12)

    def test_amplitudes_are_exactly_the_rounded_inverse_root_two(self):
        for n, m in ALL_BELL:
            expected = np.zeros(4, dtype=complex)
            expected[n], expected[2 + (1 - n)] = SQRT1_2, (-1) ** m * SQRT1_2
            assert bell_state(BellIndex(n, m)).amps.tobytes() == expected.tobytes()

    def test_mutually_orthonormal(self):
        vecs = [bell_state(i).amps for i in ALL_BELL]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_all_four_are_entangled(self):
        for idx in ALL_BELL:
            assert not is_separable(bell_state(idx))

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            bell_state(BellIndex(2, 0))
        with pytest.raises(ValueError, match="integers 0 or 1"):
            bell_state(BellIndex(True, 0))
        with pytest.raises(ValueError, match="integers 0 or 1"):
            bell_state(BellIndex(0, 1.0))
        np.testing.assert_array_equal(bell_state(BellIndex(np.int64(1), np.int64(0))).amps,
                                      bell_state(BellIndex(1, 0)).amps)
        with pytest.raises(ValueError, match="integers 0 or 1"):
            correction_for(BellIndex(2, 0), BellIndex(0, 0))
        with pytest.raises(ValueError, match="integers 0 or 1"):
            correction_for(BellIndex(0, 0), BellIndex(0, 5))


class TestAlgebraicTeleport:
    def test_singlet_outcome_needs_no_correction(self):
        rng = np.random.default_rng(61)
        psi = random_input(rng)
        bob, correction = teleport_algebraic(psi, BellIndex(1, 1), BellIndex(1, 1))
        assert correction == ()
        # collapse carries a sign flip; the state is psi up to global phase
        np.testing.assert_allclose(bob.amps, -psi.amps, atol=1e-10)

    def test_bit_flip_outcome(self):
        rng = np.random.default_rng(62)
        psi = random_input(rng)
        bob, correction = teleport_algebraic(psi, BellIndex(1, 1), BellIndex(0, 1))
        assert correction == (GateKind.X,)
        np.testing.assert_allclose(bob.amps,
                                   [psi.amps[1], psi.amps[0]], atol=1e-10)
        # plain pairs work as labels, as they do for bell_state
        bob_pair, correction_pair = teleport_algebraic(psi, (1, 1), (0, 1))
        assert correction_pair == correction
        np.testing.assert_array_equal(bob_pair.amps, bob.amps)

    def test_input_must_be_a_normalized_qubit(self):
        with pytest.raises(ValueError, match="not normalized"):
            teleport_algebraic(PureState([1.0, 1.0]), BellIndex(1, 1), BellIndex(0, 0))
        with pytest.raises(ValueError, match="^expected a 1-qubit PureState, got 2 qubits$"):
            teleport_algebraic(bell_state(BellIndex(0, 0)), BellIndex(1, 1), BellIndex(0, 0))
        with pytest.raises(TypeError, match="^expected a PureState, got DensityMatrix$"):
            teleport_algebraic(zero_density(1), BellIndex(1, 1), BellIndex(0, 0))

    def test_singlet_channel_correction_table(self):
        # outcome (n, m) -> fix-up, with the singlet as the shared pair
        expected = {
            (0, 0): (GateKind.X, GateKind.Z),
            (1, 0): (GateKind.Z,),
            (0, 1): (GateKind.X,),
            (1, 1): (),
        }
        for (n, m), fix in expected.items():
            assert correction_for(BellIndex(1, 1), BellIndex(n, m)) == fix

    def test_every_branch_restores_the_input(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            psi = random_input(rng)
            for outcome in ALL_BELL:
                bob, correction = teleport_algebraic(psi, BellIndex(1, 1), outcome)
                fixed = apply_correction(bob.amps, correction)
                overlap = phase_insensitive_overlap(psi.amps, fixed)
                assert overlap >= 1 - 1e-12

    def test_generalizes_to_any_channel(self):
        rng = np.random.default_rng(64)
        for channel in ALL_BELL:
            for outcome in ALL_BELL:
                psi = random_input(rng)
                bob, correction = teleport_algebraic(psi, channel, outcome)
                fixed = apply_correction(bob.amps, correction)
                assert phase_insensitive_overlap(psi.amps, fixed) >= 1 - 1e-12


class TestTeleportCircuit:
    def test_structure_and_device_fit(self):
        c = build_teleport_circuit([GateKind.X])
        assert c.num_qubits == 3
        assert validate(c, default_device()) == []
        mnemonics = [getattr(i, "kind", None) for i in c.instrs]
        assert mnemonics[0] == GateKind.X  # prep
        assert c.measured_qubits() == [0, 1]

    @pytest.mark.parametrize("file, prep", [("teleport_one.qc", GateKind.X),
                                            ("teleport_plus.qc", GateKind.H)])
    def test_shipped_circuit_is_the_builders(self, file, prep):
        # the paper's circuit is written twice: here and in circuits/
        shipped = parse((CIRCUITS / file).read_text(), name=file)
        assert shipped == build_teleport_circuit([prep])

    def test_prep_rejects_two_qubit_gates(self):
        with pytest.raises(ValueError, match="single-qubit"):
            build_teleport_circuit(["cx"])

    def test_empty_prep_sends_ground_state(self):
        # per branch (m, n) the receiver wire holds the inverse fix-up of |0>:
        # |0>, |1>, |0>, |1> -> (|000> + |011> + |100> + |111>)/2
        state = run(build_teleport_circuit([]))
        expected = np.zeros(8, dtype=complex)
        expected[[0, 3, 4, 7]] = 0.5
        np.testing.assert_allclose(state.amps, expected, atol=1e-10)

    def test_pre_measurement_state_splits_into_corrected_branches(self):
        # the joint state must be sum over outcomes (m, n) of
        # |m n> (x) fixup(m,n)^-1 |psi> / 2
        rng = np.random.default_rng(65)
        table = circuit_correction_table()
        for _ in range(25):
            a, b = random_pure_vec(rng, 1)
            initial = PureState(np.kron([a, b], [1, 0, 0, 0]))
            state = run(build_teleport_circuit([]), initial=initial)
            expected = np.zeros(8, dtype=complex)
            for m in (0, 1):
                for n in (0, 1):
                    fix = np.eye(2, dtype=complex)
                    for g in table[f"{m}{n}"]:
                        fix = matrix_of(g) @ fix
                    branch = fix.conj().T @ np.array([a, b])  # undo the fix-up
                    base = (m << 2) | (n << 1)
                    expected[base:base + 2] = branch / 2
            np.testing.assert_allclose(state.amps, expected, atol=1e-10)

    def test_circuit_correction_table_entries(self):
        table = circuit_correction_table()
        assert table == {
            "00": (),
            "01": (GateKind.X,),
            "10": (GateKind.Z,),
            "11": (GateKind.X, GateKind.Z),
        }

    def test_corrections_restore_random_inputs_on_every_branch(self):
        rng = np.random.default_rng(66)
        table = circuit_correction_table()
        for _ in range(100):
            a, b = random_pure_vec(rng, 1)
            initial = PureState(np.kron([a, b], [1, 0, 0, 0]))
            state = run(build_teleport_circuit([]), initial=initial)
            for m in (0, 1):
                for n in (0, 1):
                    base = (m << 2) | (n << 1)
                    branch = state.amps[base:base + 2] * 2  # each branch has weight 1/4
                    fixed = apply_correction(branch, table[f"{m}{n}"])
                    assert phase_insensitive_overlap(np.array([a, b]), fixed) >= 1 - 1e-10


class TestRunTeleport:
    def test_one_ideal_distribution_and_fidelities(self):
        res = run_teleport([GateKind.X], processor="ideal", shots=None)
        assert res.probabilities == pytest.approx(
            {"001": 0.25, "010": 0.25, "101": 0.25, "110": 0.25}, abs=1e-10)
        for branch in res.branches:
            assert branch.probability == pytest.approx(0.25, abs=1e-10)
            assert branch.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_plus_ideal_distribution_is_uniform_over_eight(self):
        res = run_teleport([GateKind.H], processor="ideal", shots=None)
        assert len(res.probabilities) == 8
        for p in res.probabilities.values():
            assert p == pytest.approx(0.125, abs=1e-10)
        for branch in res.branches:
            assert branch.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_minus_ideal_hides_the_sign(self):
        plus = run_teleport([GateKind.H], processor="ideal", shots=None)
        minus = run_teleport([GateKind.X, GateKind.H], processor="ideal", shots=None)
        assert plus.probabilities == pytest.approx(minus.probabilities, abs=1e-10)

    def test_shot_mode_is_reproducible(self):
        a = run_teleport([GateKind.X], shots=2048, seed=5)
        b = run_teleport([GateKind.X], shots=2048, seed=5)
        assert a.histogram == b.histogram
        assert sum(a.histogram.counts.values()) == 2048

    def test_real_engine_degrades_distribution_and_fidelity(self):
        ideal = run_teleport([GateKind.H], processor="ideal", shots=None)
        noisy = run_teleport([GateKind.H], processor="real", shots=None)
        keys = set(ideal.probabilities) | set(noisy.probabilities)
        tv = 0.5 * sum(
            abs(ideal.probabilities.get(k, 0) - noisy.probabilities.get(k, 0))
            for k in keys
        )
        assert tv > 1e-4
        for branch in noisy.branches:
            assert 0.9 < branch.fidelity < 1 - 1e-4


class TestDecoherenceSweep:
    def test_ideal_engine_stays_flat(self):
        res = decoherence_sweep(3, 10, processor="ideal", shots=None)
        for _, p0, p1 in res:
            assert p0 == pytest.approx(0.5, abs=1e-12)
            assert p1 == pytest.approx(0.5, abs=1e-12)
        # exactly: the gate table's rounded 1/√2, squared
        assert {p for _, p0, p1 in res for p in (p0, p1)} == {matrix_of(GateKind.H)[0, 0].real ** 2}

    def test_real_engine_matches_closed_form(self):
        device = default_device()
        gamma = device.qubits[3].gamma_relax
        res = decoherence_sweep(3, 40, processor="real", device=device, shots=None)
        for n, p0, p1 in res:
            assert p0 == pytest.approx(1 - (1 - gamma) ** (n + 1) / 2, abs=1e-12)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(3, 4)])
    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 8), Fraction(1, 4)])
    def test_dyadic_rates_decay_exactly(self, gamma, lam):
        """A power-of-two keep factor 1 - gamma makes every slot exact, so each
        point is the float of its exact value: p1 = (1 - gamma)^(n+1) / 2, read
        as 0.0 below measure's probability floor, and p0 = 1 - p1."""
        device = DeviceModel("dyadic", 4, frozenset(), PACKAGED.gate_time_tau_s,
                             (QubitNoise(float(gamma), float(lam)),) * 4)
        for qubit in range(4):
            points = decoherence_sweep(qubit, 200, "real", device)
            assert len(points) == 201
            for n, p0, p1 in points:
                exact = (1 - gamma) ** (n + 1) / 2
                assert p1 == (float(exact) if exact >= _PROB_FLOOR else 0.0)
                assert p0 == float(1 - exact)

    def test_only_the_probe_wire_is_evolved(self, monkeypatch):
        """Every decohere call of a real sweep gets the one-wire equator at
        buffer position 0, whichever wire is probed; the ideal sweep calls none."""
        import qsim.protocols

        calls = []
        decohere = qsim.protocols.decohere

        def spy(rho, q, *args, **kwargs):
            calls.append((type(rho), rho.num_qubits, q))
            return decohere(rho, q, *args, **kwargs)

        monkeypatch.setattr(qsim.protocols, "decohere", spy)
        for qubit in range(PACKAGED.num_qubits):
            calls.clear()
            decoherence_sweep(qubit, 5, "real", DEPHASING)
            assert calls == [(DensityMatrix, 1, 0)] * 6
        calls.clear()
        decoherence_sweep(4, 5, "ideal", DEPHASING)
        assert calls == []

    @pytest.mark.parametrize("shots", [None, 1000])
    def test_the_top_wire_of_ten_gives_the_rows_of_independent_runs(self, shots):
        # a register the density engine holds at its cap, probed on its last wire
        device = DeviceModel("ten", 10, frozenset(), PACKAGED.gate_time_tau_s,
                             tuple(QubitNoise(0.01 * (k + 1), 0.02 * k) for k in range(10)))
        for processor in PROCESSORS:
            test_sweep_rows_equal_independent_runs.hypothesis.inner_test(
                processor, 9, 3, shots, 7, device)

    def test_the_probe_must_fit_the_engine(self):
        # the probe spans wires 0..q, so a wire past an engine's cap is refused as run refuses it
        wide = DeviceModel("wide", 17, frozenset(), PACKAGED.gate_time_tau_s,
                           (QubitNoise(0.01, 0.0),) * 17)
        with pytest.raises(CapacityError, match=r"^density engine supports 1\.\.10 qubits, got 11$"):
            decoherence_sweep(10, 3, "real", wide)
        with pytest.raises(CapacityError, match=r"^statevector engine supports 1\.\.16 qubits, got 17$"):
            decoherence_sweep(16, 3, "ideal", wide)
        assert len(decoherence_sweep(9, 3, "real", wide)) == len(decoherence_sweep(15, 3, "ideal", wide))

    def test_p0_strictly_increases_without_dephasing(self):
        res = decoherence_sweep(1, 30, processor="real", shots=None)
        p0s = [p0 for _, p0, _ in res]
        assert all(b > a for a, b in zip(p0s, p0s[1:]))

    def test_weakest_qubit_dominates_everywhere(self):
        device = default_device()
        sweeps = {q: decoherence_sweep(q, 30, device=device, shots=None)
                  for q in range(device.num_qubits)}
        for q in (0, 1, 2, 4):
            for (_, p0_other, _), (_, p0_worst, _) in zip(sweeps[q], sweeps[3]):
                assert p0_worst >= p0_other

    def test_sampled_mode_uses_derived_seeds(self):
        a = decoherence_sweep(0, 3, shots=512, seed=9)
        b = decoherence_sweep(0, 3, shots=512, seed=9)
        assert a == b
        for _, p0, p1 in a:
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_csv_layout(self):
        lines = sweep_text(2, 2, default_device(), "ideal", None, 0).splitlines()
        assert lines[0] == "n,t_seconds,p0,p1"
        assert len(lines) == 4
        n, t, p0, p1 = lines[1].split(",")
        assert (n, t) == ("0", "0.0")

    def test_qubit_must_be_on_device(self):
        with pytest.raises(ValidationError) as info:
            decoherence_sweep(7, 3, shots=None)
        assert info.value.violations == validate(info.value.circuit, default_device())
        assert info.value.circuit == Circuit(8, [Gate1(GateKind.H, 7), MeasureZ(7)])
        for processor in PROCESSORS:
            with pytest.raises(ValidationError, match="not present on 5-qubit device"):
                decoherence_sweep(5, 3, processor=processor)
        with pytest.raises(ValueError, match="qubit must be an integer"):
            decoherence_sweep(-1, 3)
        with pytest.raises(ValueError, match="qubit must be an integer"):
            decoherence_sweep(1.5, 2)
        with pytest.raises(ValueError, match="qubit must be an integer"):
            decoherence_sweep(True, 1)
        with pytest.raises(ValueError, match="n_max must be an integer"):
            decoherence_sweep(1, 2.5)
        with pytest.raises(ValueError, match="n_max must be an integer"):
            decoherence_sweep(1, True)
        # the CLI's --n-max cap holds in the library too
        with pytest.raises(ValueError, match=r"^n_max is capped at 200, got 201$"):
            decoherence_sweep(0, 201)

    def test_unknown_processor_is_refused(self):
        message = "processor must be one of ('ideal', 'real'), got 'bogus'"
        with pytest.raises(ValueError, match=re.escape(message)):
            decoherence_sweep(3, 2, processor="bogus")
        with pytest.raises(ValidationError):  # the probe is checked first, as before
            decoherence_sweep(7, 2, processor="bogus")


@pytest.mark.parametrize("processor", PROCESSORS)
def test_one_validator_pass_per_run(monkeypatch, processor):
    """run, simulate_text, run_teleport and decoherence_sweep each call
    validate once, accepted or refused: the sweep's own pass stands in
    for run's, and simulate_text's for the engine's."""
    import qsim.circuit
    import qsim.protocols

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(qsim.circuit, "validate", spy)  # what check calls
    monkeypatch.setattr(qsim.protocols, "validate", spy)
    device = default_device()
    accepted = parse((CIRCUITS / "teleport_one.qc").read_text())
    gate_after_measure = Circuit(1, [MeasureZ(0), Gate1(GateKind.H, 0)])
    no_readout = Circuit(1, [Gate1(GateKind.H, 0)])
    runs = [
        lambda: run(accepted, processor, device),
        lambda: simulate_text(accepted, device, processor, "json", 64, 0),
        lambda: run_teleport((GateKind.H,), processor, 64, 0, device),
        lambda: decoherence_sweep(3, 2, processor, device),
    ]
    for call in runs:
        calls.clear()
        call()
        assert len(calls) == 1
    refusals = [
        lambda: run(gate_after_measure, processor, device),
        lambda: simulate_text(gate_after_measure, device, processor, "json", 64, 0),
        lambda: simulate_text(no_readout, device, processor, "json", 64, 0),
        lambda: decoherence_sweep(6, 2, processor, device),  # off the 5-qubit device
    ]
    for call in refusals:
        calls.clear()
        with pytest.raises(ValidationError):
            call()
        assert len(calls) == 1


PACKAGED = default_device()
DEPHASING = DeviceModel(
    "dephasing", PACKAGED.num_qubits, PACKAGED.allowed_cnot_targets, PACKAGED.gate_time_tau_s,
    tuple(QubitNoise(q.gamma_relax, 0.01) for q in PACKAGED.qubits))


@pytest.mark.parametrize("processor", PROCESSORS)
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(qubit=st.integers(0, 4), n_max=st.integers(0, 30),
       shots=st.none() | st.integers(1, 4096), seed=st.integers(0, 2**32 - 1),
       device=st.sampled_from([PACKAGED, DEPHASING]))
def test_sweep_rows_equal_independent_runs(processor, qubit, n_max, shots, seed, device):
    """One evolved register gives the rows of n_max + 1 separate runs,
    bit for bit."""
    expected = []
    for n in range(n_max + 1):
        instrs = [Gate1(GateKind.H, qubit)] + [Gate1(GateKind.ID, qubit)] * n
        state = run(Circuit(qubit + 1, instrs + [MeasureZ(qubit)]), processor, device)
        if shots is None:
            probs = probabilities(state, [qubit])
            expected.append((n, probs.get("0", 0.0), probs.get("1", 0.0)))
        else:
            counts = sample(state, [qubit], shots, seed ^ n).counts
            expected.append((n, counts.get("0", 0) / shots, counts.get("1", 0) / shots))
    res = decoherence_sweep(qubit, n_max, processor, device, shots, seed)
    assert res == expected


@pytest.mark.parametrize("processor", PROCESSORS)
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(prep=st.lists(st.sampled_from(list(GateKind)), max_size=4),
       rates=st.lists(st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
                      min_size=5, max_size=5))
def test_teleport_branches_match_dense_oracle(processor, prep, rates):
    """Every branch of run_teleport equals the projector-and-partial-trace
    construction on the same 8x8 state, on both processors."""
    device = DeviceModel("random-rates", PACKAGED.num_qubits, PACKAGED.allowed_cnot_targets,
                         PACKAGED.gate_time_tau_s, tuple(QubitNoise(g, lam) for g, lam in rates))
    state = run(build_teleport_circuit(prep), processor, device)
    rho = state.mat if isinstance(state, DensityMatrix) else np.outer(state.amps, state.amps.conj())
    psi_in = apply_correction(np.array([1.0, 0.0], dtype=complex), prep)
    expected = teleport_branches_dense(rho, psi_in, circuit_correction_table())
    result = run_teleport(prep, processor, shots=None, device=device)
    assert [b.outcome for b in result.branches] == sorted(expected)
    for b in result.branches:
        weight, fidelity = expected[b.outcome]
        assert b.probability == pytest.approx(weight, abs=1e-12)
        assert b.fidelity == pytest.approx(fidelity, abs=1e-12)
        if processor == "ideal":
            assert b.fidelity == pytest.approx(1.0, abs=1e-12)
