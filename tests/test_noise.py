"""Kraus channels and the noisy density-matrix engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.circuit import Circuit, Cnot, DeviceModel, Gate1, MeasureZ, QubitNoise, parse
from qsim.engine import run
from qsim.errors import DeviceError, ValidationError
from qsim.gates import GateKind, matrix_of
from qsim.measure import probabilities
from qsim.noise import (
    KrausChannel,
    NoiseConfig,
    amplitude_damping,
    decohere,
    dephasing,
)
from qsim.states import (DensityMatrix, apply_1q, apply_cnot, reduced_density_1q,
                         zero_density, zero_state)

from oracles import apply_channel_dense, engine_calls, random_circuit, random_density_mat

PLUS_RHO = np.full((2, 2), 0.5, dtype=complex)
EDGE_RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
PHASE_KINDS = (GateKind.ID, GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG)


def single_slot(rho, n, q, gamma, lam):
    """One slot on wire q in closed form, operation for operation as
    decohere applies a single slot: the bit-exact reference for slots=1."""
    out = rho.copy()
    m = out.reshape(1 << q, 2, 1 << (n - 1 - q), 1 << q, 2, 1 << (n - 1 - q))
    m[:, 0, :, :, 0] += gamma * m[:, 1, :, :, 1]
    m[:, 1, :, :, 1] *= 1.0 - gamma
    coherence = math.sqrt(1.0 - gamma) * (1.0 - 2.0 * lam)
    m[:, 0, :, :, 1] *= coherence
    m[:, 1, :, :, 0] *= coherence
    return out


def toy_device(gamma_relax, gamma_phase=None, targets=(), tau=1e-7):
    n = len(gamma_relax)
    gamma_phase = gamma_phase or [0.0] * n
    return DeviceModel(
        name="toy",
        num_qubits=n,
        allowed_cnot_targets=frozenset(targets),
        gate_time_tau_s=tau,
        qubits=tuple(QubitNoise(g, p) for g, p in zip(gamma_relax, gamma_phase)),
    )


class TestChannels:
    def test_zero_damping_is_identity(self):
        rho = DensityMatrix(PLUS_RHO.copy())
        decohere(rho, 0, 0.0, 0.0)
        np.testing.assert_allclose(rho.mat, PLUS_RHO, atol=1e-12)

    def test_full_damping_relaxes_excited_state(self):
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        decohere(rho, 0, 1.0, 0.0)
        np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_partial_damping_on_plus(self):
        # 2x2 oracle: K0 rho K0† + K1 rho K1† computed by hand
        gamma = 0.1
        rho = DensityMatrix(PLUS_RHO.copy())
        decohere(rho, 0, gamma, 0.0)
        assert rho.mat[0, 0].real == pytest.approx(0.55, abs=1e-12)
        assert abs(rho.mat[0, 1]) == pytest.approx(np.sqrt(0.9) / 2, abs=1e-12)

    def test_zero_dephasing_is_identity(self):
        rho = DensityMatrix(PLUS_RHO.copy())
        decohere(rho, 0, 0.0, 0.0)
        np.testing.assert_allclose(rho.mat, PLUS_RHO, atol=1e-12)

    def test_half_dephasing_kills_coherence(self):
        rho = DensityMatrix(PLUS_RHO.copy())
        decohere(rho, 0, 0.0, 0.5)
        np.testing.assert_allclose(rho.mat, np.eye(2) / 2, atol=1e-12)

    def test_quarter_dephasing_scales_coherence(self):
        rho = DensityMatrix(PLUS_RHO.copy())
        decohere(rho, 0, 0.0, 0.25)
        assert rho.mat[0, 1].real == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(np.diag(rho.mat).real, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rates_out_of_range(self, bad):
        with pytest.raises(ValueError):
            amplitude_damping(bad)
        with pytest.raises(ValueError):
            dephasing(bad)

    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="K†K"):
            KrausChannel((np.eye(2, dtype=complex) * 0.5,))
        for ops in ((np.eye(3, dtype=complex),), "x", ([[1, 0], [0, 1]],)):
            with pytest.raises(ValueError, match="must be 2x2"):
                KrausChannel(ops)

    def test_completeness_of_constructed_channels(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            for ch in (amplitude_damping(float(rng.random())),
                       dephasing(float(rng.random()))):
                acc = sum(k.conj().T @ k for k in ch.ops)
                np.testing.assert_allclose(acc, np.eye(2), atol=1e-10)


class TestApplyChannel:
    def test_trace_preserved_on_entangled_state(self):
        bell = apply_cnot(
            apply_1q(zero_state(2), matrix_of(GateKind.H), 0), 0, 1
        ).to_density()
        for q in (0, 1):
            rho = bell.copy()
            decohere(rho, q, 0.3, 0.0)
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_kraus_lift(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            q = int(rng.integers(n))
            damp = rng.random() < 0.5
            rate = float(rng.random())
            ch = amplitude_damping(rate) if damp else dephasing(rate)
            rates = (rate, 0.0) if damp else (0.0, rate)
            rho = random_density_mat(rng, n)
            expected = apply_channel_dense(rho, ch.ops, n, q)
            got = decohere(DensityMatrix(rho.copy()), q, *rates)
            np.testing.assert_allclose(got.mat, expected, atol=1e-12)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), gamma=EDGE_RATES, lam=EDGE_RATES,
           seed=st.integers(0, 2**32 - 1))
    def test_slot_matches_both_dense_channels(self, data, gamma, lam, seed):
        n = data.draw(st.integers(1, 4), label="n")
        q = data.draw(st.integers(0, n - 1), label="q")
        rho = random_density_mat(np.random.default_rng(seed), n)
        rho = (rho + rho.conj().T) / 2  # exactly Hermitian
        expected = apply_channel_dense(
            apply_channel_dense(rho, amplitude_damping(gamma).ops, n, q),
            dephasing(lam).ops, n, q)
        got = decohere(DensityMatrix(rho.copy()), q, gamma, lam).mat
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert np.array_equal(got, got.conj().T)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), gamma=EDGE_RATES, lam=EDGE_RATES, slots=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_k_slots_are_k_single_slots(self, data, gamma, lam, slots, seed):
        n = data.draw(st.integers(1, 4), label="n")
        q = data.draw(st.integers(0, n - 1), label="q")
        rho = random_density_mat(np.random.default_rng(seed), n)
        one = decohere(DensityMatrix(rho.copy()), q, gamma, lam, slots=1).mat
        assert np.array_equal(one, single_slot(rho, n, q, gamma, lam))
        stepped = rho
        for _ in range(slots):
            stepped = single_slot(stepped, n, q, gamma, lam)
        got = decohere(DensityMatrix(rho.copy()), q, gamma, lam, slots=slots).mat
        np.testing.assert_allclose(got, stepped, rtol=0, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            decohere(zero_density(1), 1, 0.1, 0.0)
        for bad in (0, -1, 2.0, True):
            with pytest.raises(ValueError, match="slots"):
                decohere(zero_density(1), 0, 0.1, 0.0, slots=bad)

    def test_refuses_a_pure_state(self):
        with pytest.raises(TypeError, match="^expected a DensityMatrix, got PureState$"):
            decohere(zero_state(1), 0, 0.1, 0.0)

    @pytest.mark.parametrize("gamma, lam, message", [
        (2.0, 0.0, r"gamma=2\.0 outside \[0, 1\]"),
        (-0.5, 0.0, r"gamma=-0\.5 outside \[0, 1\]"),
        (math.nan, 0.0, r"gamma=nan outside \[0, 1\]"),
        (0.1, 1.5, r"lambda=1\.5 outside \[0, 1\]"),
        (0.1, -0.5, r"lambda=-0\.5 outside \[0, 1\]"),
        (0.1, math.nan, r"lambda=nan outside \[0, 1\]"),
    ])
    @pytest.mark.parametrize("slots", [1, 3])
    def test_refuses_a_rate_outside_unit_interval(self, gamma, lam, message, slots):
        # the rule and messages amplitude_damping and dephasing already apply
        with pytest.raises(ValueError, match=message):
            decohere(zero_density(1), 0, gamma, lam, slots=slots)


class TestEvolveNoisy:
    def test_zero_rates_match_pure_projector(self):
        device = toy_device([0.0, 0.0], targets=(0, 1))
        text = "qubits 2\nh q0\ncx q0 q1\nt q1\nmeasure q0\nmeasure q1\n"
        circuit = parse(text)
        rho = run(circuit, "real", device)
        psi = run(circuit)
        np.testing.assert_allclose(
            rho.mat, np.outer(psi.amps, psi.amps.conj()), atol=1e-10)

    def test_disabled_config_matches_pure_projector(self):
        device = toy_device([0.2, 0.3], targets=(0, 1))
        circuit = parse("qubits 2\nh q0\ncx q0 q1\nmeasure q0\nmeasure q1\n")
        rho = run(circuit, "real", device,
                  noise=NoiseConfig.from_device(device, enabled=False))
        psi = run(circuit)
        np.testing.assert_allclose(
            rho.mat, np.outer(psi.amps, psi.amps.conj()), atol=1e-10)

    @pytest.mark.parametrize("n_idles", [0, 1, 5, 17])
    def test_idle_decay_closed_form(self, n_idles):
        # every gate slot damps the excited population by (1 - gamma), and
        # the Hadamard slot counts too: p0 = 1 - (1-gamma)^(n+1)/2
        gamma = 0.08
        device = toy_device([gamma])
        instrs = [Gate1(GateKind.H, 0)] + [Gate1(GateKind.ID, 0)] * n_idles
        circuit = Circuit(1, instrs + [MeasureZ(0)])
        rho = run(circuit, "real", device)
        expected_p0 = 1 - (1 - gamma) ** (n_idles + 1) / 2
        assert rho.mat[0, 0].real == pytest.approx(expected_p0, abs=1e-12)

        # step-by-step 2x2 oracle: dense lift on a single wire
        ref = np.zeros((2, 2), dtype=complex)
        ref[0, 0] = 1.0
        h = np.asarray(matrix_of(GateKind.H))
        ref = h @ ref @ h.conj().T
        ops = amplitude_damping(gamma).ops
        ref = apply_channel_dense(ref, ops, 1, 0)
        for _ in range(n_idles):
            ref = apply_channel_dense(ref, ops, 1, 0)  # id gate leaves ref alone
        np.testing.assert_allclose(rho.mat, ref, atol=1e-12)

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(3, 4), probe=st.integers(0, 3), gamma=st.floats(0.0, 0.02),
           lam=st.floats(0.0, 0.01), length=st.integers(100, 600),
           seed=st.integers(0, 2**32 - 1))
    def test_long_phase_runs_match_closed_form(self, n, probe, gamma, lam, length, seed):
        # h on the probe, then hundreds of id and phase gates on it while h and
        # cx hit the other wires: the probe's slots are all deferred to one
        # flush at the end, which must still give the C5 closed form
        probe %= n
        others = [w for w in range(n) if w != probe]
        rng = np.random.default_rng(seed)
        instrs = [Gate1(GateKind.H, probe)]
        for _ in range(length):
            r = rng.random()
            if r < 0.6:
                instrs.append(Gate1(PHASE_KINDS[int(rng.integers(len(PHASE_KINDS)))], probe))
            elif r < 0.8:
                instrs.append(Gate1(GateKind.H, others[int(rng.integers(len(others)))]))
            else:
                c, t = rng.choice(others, size=2, replace=False)
                instrs.append(Cnot(int(c), int(t)))
        device = toy_device([gamma] * n, [lam] * n, targets=range(n))
        with engine_calls("decohere", 1) as slot:
            rho = run(Circuit(n, instrs), "real", device)
        slots = len(instrs)
        red = reduced_density_1q(rho, probe)
        assert red[0, 0].real == pytest.approx(1 - (1 - gamma) ** slots / 2, abs=1e-12)
        assert abs(red[0, 1]) == pytest.approx(
            0.5 * math.sqrt(1 - gamma) ** slots * (1 - 2 * lam) ** slots, abs=1e-12)
        if gamma or lam:
            assert [wire for wire, _ in slot].count(probe) == 1
            assert len(slot) <= 2 * slots + n

    def test_large_idle_count_drives_p0_to_one_monotonically(self):
        gamma = 0.05
        device = toy_device([gamma])
        last = 0.0
        for n_idles in range(0, 120, 10):
            instrs = [Gate1(GateKind.H, 0)] + [Gate1(GateKind.ID, 0)] * n_idles
            rho = run(Circuit(1, instrs + [MeasureZ(0)]), "real", device)
            p0 = rho.mat[0, 0].real
            assert p0 > last
            last = p0
        assert last > 0.99

    def test_trace_preserved_over_long_circuits(self):
        from oracles import random_circuit

        rng = np.random.default_rng(33)
        device = toy_device([0.01, 0.02, 0.03], gamma_phase=[0.004, 0.0, 0.01],
                            targets=(0, 1, 2))
        for _ in range(10):
            circuit = random_circuit(rng, 3, 60)
            rho = run(circuit, "real", device)
            assert rho.trace() == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(rho.mat, rho.mat.conj().T, atol=1e-10)

    def test_damping_fixed_point_is_ground_state(self):
        rng = np.random.default_rng(34)
        rho = DensityMatrix(random_density_mat(rng, 1))
        excited = rho.mat[1, 1].real
        for _ in range(150):
            decohere(rho, 0, 0.2, 0.0)
            assert rho.mat[1, 1].real <= excited + 1e-15
            excited = rho.mat[1, 1].real
        # coherences only shrink by sqrt(1-gamma) per slot, hence the slack
        np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]), atol=1e-5)

    def test_device_violations_are_rejected(self):
        device = toy_device([0.0, 0.0, 0.0], targets=(2,))
        circuit = parse("qubits 3\ncx q2 q0\nmeasure q0\n")
        with pytest.raises(ValidationError) as exc:
            run(circuit, "real", device)
        assert any("target" in v.message for v in exc.value.violations)

    def test_missing_measurement_does_not_block_state_evolution(self):
        device = toy_device([0.1])
        rho = run(parse("qubits 1\nh q0\n"), "real", device)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_idle_wires_decohere_too(self):
        # gates act on wire 0 only; wire 1 starts excited and still decays
        device = toy_device([0.0, 0.5], targets=(0, 1))
        circuit = Circuit(2, [
            Gate1(GateKind.X, 1),
            Gate1(GateKind.ID, 0),
            Gate1(GateKind.ID, 0),
            MeasureZ(1),
        ])
        rho = run(circuit, "real", device)
        probs = probabilities(rho, [1])
        # excited population halves on each of the three slots
        assert probs["1"] == pytest.approx(0.125, abs=1e-12)

    def test_rates_shorter_than_register_are_a_device_error(self):
        # the device has 2 qubits; wire 2 exists but is never touched, and
        # the validator refuses the register before any rates are read
        device = toy_device([0.1, 0.1], targets=(0, 1))
        circuit = parse("qubits 3\nh q0\nmeasure q0\n")
        with pytest.raises(ValidationError, match="3-qubit register does not fit 2-qubit"):
            run(circuit, "real", device)
        # a hand-built config can still be too short
        with pytest.raises(DeviceError, match="cover 1 qubits, register has 2"):
            NoiseConfig(toy_device([0.1])).slot(2)


# a wire's (relax, phase) rates: edge values, any value, or both zero
WIRE_RATES = st.tuples(EDGE_RATES, EDGE_RATES) | st.just((0.0, 0.0))


@st.composite
def rated_devices(draw, num_qubits):
    """A toy device on which every cx is legal, with drawn rates."""
    rates = draw(st.lists(WIRE_RATES, min_size=num_qubits, max_size=num_qubits))
    return toy_device([g for g, _ in rates], [lam for _, lam in rates],
                      targets=range(num_qubits))


class TestNoiseConfig:
    def test_raw_rates_are_refused_when_built(self):
        with pytest.raises(TypeError, match="needs a DeviceModel, got tuple"):
            NoiseConfig((0.1,), (0.0,))

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(size=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32 - 1),
           depth=st.integers(0, 40))
    def test_a_config_charges_the_rates_of_its_own_device(self, size, data, seed, depth):
        a, b = data.draw(rated_devices(size)), data.draw(rated_devices(size))
        n = data.draw(st.integers(1, size))
        for k in range(1, size + 1):
            expected = {q: (r.gamma_relax, r.gamma_phase) for q, r in enumerate(b.qubits[:k])
                        if (r.gamma_relax, r.gamma_phase) != (0.0, 0.0)}
            assert list(NoiseConfig.from_device(b).slot(k).items()) == list(expected.items())
        circuit = random_circuit(np.random.default_rng(seed), n, depth)
        # an override takes its rates from the config's device, not from `a`
        overridden = run(circuit, "real", a, NoiseConfig(b))
        rebuilt = run(circuit, "real", DeviceModel(a.name, a.num_qubits, a.allowed_cnot_targets,
                                                     a.gate_time_tau_s, b.qubits))
        assert overridden.mat.tobytes() == rebuilt.mat.tobytes()
        # a disabled config runs as the same device with every rate zero
        disabled = run(circuit, "real", b, NoiseConfig(b, enabled=False))
        silent = run(circuit, "real", DeviceModel(b.name, size, b.allowed_cnot_targets,
                                                   b.gate_time_tau_s, (QubitNoise(0.0, 0.0),) * size))
        assert disabled.mat.tobytes() == silent.mat.tobytes()
