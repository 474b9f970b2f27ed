"""Born probabilities, shot sampling, and Bloch tomography."""

import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsim
from qsim.engine import run
from qsim.circuit import parse
from qsim.cli import histogram_json_fields
from qsim.gates import GateKind, matrix_of
from qsim.measure import (
    _PROB_FLOOR,
    RNG_ALGORITHM,
    Histogram,
    _bit_keys,
    bloch_measure,
    probabilities,
    sample,
)
from qsim.states import DensityMatrix, PureState, apply_1q, apply_cnot, zero_density, zero_state

from oracles import (
    marginal_brute_force,
    probabilities_by_format,
    random_density_mat,
    random_pure_vec,
    sample_by_keys,
)

H = matrix_of(GateKind.H)


def plus_state():
    return apply_1q(zero_state(1), H, 0)


def minus_state():
    s = apply_1q(zero_state(1), matrix_of(GateKind.X), 0)
    return apply_1q(s, H, 0)


def bell_state_2q():
    return apply_cnot(apply_1q(zero_state(2), H, 0), 0, 1)


class TestProbabilities:
    def test_plus_is_fifty_fifty(self):
        probs = probabilities(plus_state(), [0])
        assert probs["0"] == pytest.approx(0.5, abs=1e-12)
        assert probs["1"] == pytest.approx(0.5, abs=1e-12)

    def test_teleported_one_distribution(self):
        # pre-measurement state (|001> + |010> - |101> - |110>)/2
        amps = np.zeros(8, dtype=complex)
        amps[[1, 2]] = 0.5
        amps[[5, 6]] = -0.5
        probs = probabilities(PureState(amps), [0, 1, 2])
        assert probs == pytest.approx(
            {"001": 0.25, "010": 0.25, "101": 0.25, "110": 0.25}, abs=1e-12)

    def test_marginal_matches_brute_force_accumulation(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 1))
            measured = sorted(rng.choice(n, size=k, replace=False).tolist())
            vec = random_pure_vec(rng, n)
            expected = marginal_brute_force(np.abs(vec) ** 2, n, measured)
            got = probabilities(PureState(vec), measured)
            for key, p in expected.items():
                assert got.get(key, 0.0) == pytest.approx(p, abs=1e-12)

    def test_density_diagonal_marginals(self):
        rng = np.random.default_rng(52)
        rho = random_density_mat(rng, 3)
        expected = marginal_brute_force(np.real(np.diag(rho)), 3, [1])
        got = probabilities(DensityMatrix(rho), [1])
        for key, p in expected.items():
            assert got.get(key, 0.0) == pytest.approx(p, abs=1e-12)

    def test_sums_to_one_on_random_subsets(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            measured = rng.choice(n, size=k, replace=False).tolist()
            probs = probabilities(PureState(random_pure_vec(rng, n)), measured)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)

    def test_bad_qubit_lists(self):
        s = bell_state_2q()
        with pytest.raises(ValueError, match="empty"):
            probabilities(s, [])
        with pytest.raises(ValueError, match="duplicates"):
            probabilities(s, [0, 0])
        with pytest.raises(ValueError, match="out of range"):
            probabilities(s, [2])
        with pytest.raises(ValueError, match="integers"):
            probabilities(s, [0.0])
        with pytest.raises(ValueError, match="integers"):
            probabilities(s, [0, "1"])
        with pytest.raises(ValueError, match="integers"):
            probabilities(zero_state(2), [True])
        with pytest.raises(ValueError, match=r"no measurable weight on qubits \[0\]"):
            probabilities(DensityMatrix(np.zeros((2, 2))), [0])
        with pytest.raises(ValueError, match=r"no measurable weight on qubits \[0\]"):
            sample(DensityMatrix(np.zeros((2, 2))), [0], 16, seed=0)
        with pytest.raises(ValueError, match="integers"):
            sample(s, [1.0], 16, seed=0)
        with pytest.raises(ValueError, match="integers"):
            bloch_measure(zero_density(2), 0.0)
        with pytest.raises(ValueError, match="integers"):
            bloch_measure(s, 1.0)
        for empty in (DensityMatrix(np.zeros((2, 2))), PureState(np.zeros(2))):
            with pytest.raises(ValueError, match="no measurable weight on qubit 0"):
                bloch_measure(empty, 0)
        with pytest.raises(ValueError, match="non-finite weight on qubit 0"):
            bloch_measure(DensityMatrix(np.full((2, 2), np.nan)), 0)
        with pytest.raises(TypeError, match="expected a PureState or DensityMatrix, got SimpleNamespace"):
            probabilities(SimpleNamespace(num_qubits=1), [0])
        assert probabilities(s, [np.int64(0)]) == pytest.approx({"0": 0.5, "1": 0.5})

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight_is_refused(self, bad):
        # next to finite weights, an inf or NaN entry is refused by name on
        # either state kind, before sample's multinomial or a "no weight" report
        amps = np.array([0.6, 0.8, bad, 0.0], dtype=complex)
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat[3, 3] = bad
        for state in (PureState(amps), DensityMatrix(mat)):
            for measure in (lambda s: probabilities(s, [0, 1]),
                            lambda s: probabilities(s, [1]),
                            lambda s: sample(s, [0], 64, seed=0)):
                with pytest.raises(ValueError, match="non-finite weight on qubits"):
                    measure(state)
            with pytest.raises(ValueError, match="non-finite weight on qubit 0"):
                bloch_measure(state, 0)

    def test_bit_keys_match_format(self):
        rng = np.random.default_rng(5)
        for width in range(1, 17):
            indices = np.concatenate([[0, (1 << width) - 1], rng.integers(0, 1 << width, 50)])
            assert _bit_keys(indices, width) == [format(i, f"0{width}b") for i in indices]
            assert _bit_keys(np.array([], dtype=np.int64), width) == []
        # one key matrix holds every index, up to a full 16-wire register
        for width in (1, 16):
            for size in (16385, 65536):
                indices = rng.integers(0, 1 << width, size)
                assert _bit_keys(indices, width) == [format(i, f"0{width}b") for i in indices]

    def test_a_weight_at_the_floor_is_kept(self):
        # the floor is inclusive in marginal's refusal, in the map and in bloch_measure's refusal
        at_floor = DensityMatrix(np.diag([1e-15, 0.0]))
        assert _PROB_FLOOR == 1e-15
        assert probabilities(at_floor, [0]) == {"0": 1e-15}
        assert bloch_measure(at_floor, 0).z == 1e-15

    def test_key_order_is_ascending_qubit_index(self):
        # |01>: q0=0, q1=1 -> key "01" regardless of the order passed in
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0
        s = PureState(amps)
        assert probabilities(s, [1, 0]) == pytest.approx({"01": 1.0})


class TestSample:
    def test_deterministic_state(self):
        s = apply_1q(zero_state(1), matrix_of(GateKind.X), 0)
        hist = sample(s, [0], 100, seed=1)
        assert hist.counts == {"1": 100}
        assert hist.shots == 100
        assert hist.rng == Histogram.rng == RNG_ALGORITHM == "pcg64"
        assert Histogram._fields == ("shots", "counts", "seed")  # rng is a class constant

    def test_same_seed_reproduces_identical_counts(self):
        s = bell_state_2q()
        a = sample(s, [0, 1], 4096, seed=99)
        b = sample(s, [0, 1], 4096, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        s = bell_state_2q()
        assert sample(s, [0, 1], 4096, seed=1) != sample(s, [0, 1], 4096, seed=2)

    def test_plus_counts_within_three_sigma(self):
        # binomial: sigma = sqrt(8192 * 0.25) ~ 45.25, 3 sigma ~ 136
        hist = sample(plus_state(), [0], 8192, seed=7)
        for key in ("0", "1"):
            assert abs(hist.counts[key] - 4096) <= 136

    def test_empirical_frequencies_within_four_sigma(self):
        # fixed-seed determinism is the flakiness budget here: the 4-sigma
        # band fails a fair draw ~1 time in 16000 per key, and this seed
        # is checked in
        rng = np.random.default_rng(54)
        vec = random_pure_vec(rng, 3)
        state = PureState(vec)
        shots = 65536
        hist = sample(state, [0, 1, 2], shots, seed=55)
        for key, p in probabilities(state, [0, 1, 2]).items():
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(hist.counts.get(key, 0) / shots - p) <= 4 * sigma

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), shots=st.integers(1, 10**6))
    def test_counts_sum_to_shots(self, seed, shots):
        hist = sample(bell_state_2q(), [0, 1], shots, seed=seed)
        assert sum(hist.counts.values()) == shots

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), density=st.booleans(), seed=st.integers(0, 2**64 - 1),
           shots=st.integers(1, 10**5))
    def test_matches_the_probability_map_oracle(self, data, density, seed, shots):
        n = data.draw(st.integers(1, 5 if density else 10))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # zeroed or tiny weights fall below the floor; index 0 keeps a normal one
        shrink = data.draw(st.lists(st.sampled_from([1.0, 0.0, 1e-18]),
                                    min_size=1 << n, max_size=1 << n))
        shrink[0] = 1.0
        if density:
            mat = random_density_mat(rng, n) * np.sqrt(np.outer(shrink, shrink))
            if data.draw(st.booleans()):
                mat[-1, -1] = -1e-16  # a rounding-noise population, clipped to 0
            state = DensityMatrix(mat / np.trace(mat))
        else:
            vec = random_pure_vec(rng, n) * np.sqrt(shrink)
            state = PureState(vec / np.linalg.norm(vec))
        measured = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
        hist = sample(state, measured, shots, seed)
        assert hist == sample_by_keys(state, measured, shots, seed)
        assert set(hist.counts) <= set(probabilities(state, measured))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_bulk_keys_match_the_format_loop(self, n):
        # byte for byte on every width: the same keys in the same order, str
        # keys, float probabilities and int counts
        rng = np.random.default_rng(n)
        for density in (False, True) if n <= 6 else (False,):
            shrink = rng.choice([1.0, 0.0, 1e-18], size=1 << n)  # some fall below the floor
            shrink[0] = 1.0
            if density:
                mat = random_density_mat(rng, n) * np.sqrt(np.outer(shrink, shrink))
                state = DensityMatrix(mat / np.trace(mat))
            else:
                vec = random_pure_vec(rng, n) * np.sqrt(shrink)
                state = PureState(vec / np.linalg.norm(vec))
            for measured in (list(range(n)), list(rng.permutation(n)[:rng.integers(1, n + 1)])):
                probs = probabilities(state, measured)
                expected = probabilities_by_format(state, measured)
                assert list(probs.items()) == list(expected.items())
                assert all(type(k) is str and type(p) is float for k, p in probs.items())
                shots, seed = int(rng.integers(1, 10**5)), int(rng.integers(2**63))
                hist = sample(state, measured, shots, seed)
                drawn = sample_by_keys(state, measured, shots, seed)
                assert hist == drawn
                assert list(hist.counts.items()) == list(drawn.counts.items())
                assert all(type(k) is str and type(c) is int for k, c in hist.counts.items())

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            sample(plus_state(), [0], 0, seed=0)
        with pytest.raises(ValueError, match="shots"):  # numpy's int64 count overflows
            sample(plus_state(), [0], 2**63, seed=0)
        assert sample(plus_state(), [0], 2**63 - 1, seed=0).shots == 2**63 - 1
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample(plus_state(), [0], 10.5, seed=0)
        assert sample(plus_state(), [0], np.int64(10), seed=0).shots == 10
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample(plus_state(), [0], True, seed=0)
        with pytest.raises(ValueError, match="seed"):
            sample(plus_state(), [0], 10, seed=True)
        hist = sample(plus_state(), [0], np.int64(4), seed=0)
        assert json.dumps(histogram_json_fields({}, hist)["shots"]) == "4"
        with pytest.raises(ValueError, match="seed"):
            sample(plus_state(), [0], 10, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            sample(plus_state(), [0], 10, seed=1.5)
        hist = sample(plus_state(), [0], 10, seed=np.int64(3))
        assert json.dumps(histogram_json_fields({}, hist)["seed"]) == "3"

    def test_histogram_json_schema(self):
        state = bell_state_2q()
        probs = probabilities(state, [0, 1])
        hist = sample(state, [0, 1], 256, seed=8)
        fields = histogram_json_fields(probs, hist)
        assert list(fields) == ["shots", "seed", "rng", "counts", "probabilities"]
        assert fields["shots"] == 256 and fields["seed"] == 8
        assert fields["rng"] == RNG_ALGORITHM
        assert sum(fields["counts"].values()) == 256
        exact = histogram_json_fields(probs)
        assert exact["shots"] == 0
        assert exact["seed"] is None and exact["rng"] is None
        assert exact["counts"] == {}
        assert exact["probabilities"]["00"] == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), density=st.booleans(), seed=st.integers(0, 2**64 - 1),
           shots=st.integers(1, 10**5))
    def test_maps_come_in_key_order_and_serialize_as_built(self, data, density, seed, shots):
        n = data.draw(st.integers(1, 4 if density else 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        state = (DensityMatrix(random_density_mat(rng, n)) if density
                 else PureState(random_pure_vec(rng, n)))
        measured = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
        probs = probabilities(state, measured)
        hist = sample(state, measured, shots, seed)
        assert list(probs) == sorted(probs)
        assert list(hist.counts) == sorted(hist.counts)
        fields = histogram_json_fields(probs, hist)
        assert fields["probabilities"] is probs
        assert fields["counts"] is hist.counts
        assert histogram_json_fields(probs)["probabilities"] is probs

    def test_maps_come_back_as_given_in_any_order(self):
        probs = {"10": 0.25, "00": 0.5, "11": 0.25}
        hist = Histogram(shots=4, counts={"11": 1, "00": 3}, seed=0)
        fields = histogram_json_fields(probs, hist)
        assert fields["probabilities"] is probs
        assert fields["counts"] is hist.counts
        # serialization lists the keys in the caller's order
        emitted = json.loads(json.dumps(fields))
        assert list(emitted["probabilities"]) == ["10", "00", "11"]
        assert list(emitted["counts"]) == ["11", "00"]


class TestBlochMeasure:
    def test_north_pole(self):
        b = bloch_measure(zero_state(1), 0)
        assert (b.x, b.y, b.z) == pytest.approx((0, 0, 1), abs=1e-12)
        assert b.theta == pytest.approx(0.0, abs=1e-9)
        assert b.phi == 0.0

    def test_plus_points_along_x(self):
        b = bloch_measure(plus_state(), 0)
        assert (b.x, b.y, b.z) == pytest.approx((1, 0, 0), abs=1e-9)
        assert b.theta == pytest.approx(math.pi / 2, abs=1e-9)
        assert b.phi == pytest.approx(0.0, abs=1e-9)

    def test_circular_state_points_along_y(self):
        s = apply_1q(plus_state(), matrix_of(GateKind.S), 0)  # (|0> + i|1>)/sqrt(2)
        b = bloch_measure(s, 0)
        assert (b.x, b.y, b.z) == pytest.approx((0, 1, 0), abs=1e-9)
        assert b.phi == pytest.approx(math.pi / 2, abs=1e-9)

    def test_entangled_half_has_no_direction(self):
        b = bloch_measure(bell_state_2q(), 0)
        assert b.purity_norm <= 1e-9
        assert (b.x, b.y, b.z) == pytest.approx((0, 0, 0), abs=1e-9)
        assert b.theta == 0.0 and b.phi == 0.0  # the maximally mixed point's promised angles

    def test_pure_states_live_on_the_sphere(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            s = PureState(random_pure_vec(rng, 1))
            b = bloch_measure(s, 0)
            assert b.purity_norm == pytest.approx(1.0, abs=1e-9)
            # direction angles reproduce the vector
            assert b.x == pytest.approx(math.sin(b.theta) * math.cos(b.phi), abs=1e-9)
            assert b.y == pytest.approx(math.sin(b.theta) * math.sin(b.phi), abs=1e-9)
            assert b.z == pytest.approx(math.cos(b.theta), abs=1e-9)

    def test_plus_minus_distinguished_by_tomography_not_probabilities(self):
        plus, minus = plus_state(), minus_state()
        assert probabilities(plus, [0]) == pytest.approx(probabilities(minus, [0]),
                                                         abs=1e-12)
        assert bloch_measure(plus, 0).x == pytest.approx(1.0, abs=1e-9)
        assert bloch_measure(minus, 0).x == pytest.approx(-1.0, abs=1e-9)

    def test_mixed_state_reports_direction_with_shrunk_radius(self):
        rho = DensityMatrix(np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex))
        b = bloch_measure(rho, 0)
        assert b.purity_norm == pytest.approx(math.sqrt(0.2 ** 2 + 0.6 ** 2), abs=1e-12)
        assert b.z / b.purity_norm == pytest.approx(math.cos(b.theta), abs=1e-12)

    def test_works_through_the_engine(self):
        state = run(parse("qubits 2\nh q0\nbloch q0\nmeasure q1\n"))
        assert bloch_measure(state, 0).x == pytest.approx(1.0, abs=1e-9)


def _dispatched_features():
    """The SIMD features numpy picks kernels by at run time and this CPU
    has, or None when numpy exposes no dispatch list."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            with warnings.catch_warnings():  # numpy 2 deprecates numpy.core
                warnings.simplefilter("ignore", DeprecationWarning)
                module = importlib.import_module(name)
        except ImportError:
            continue
        dispatch = getattr(module, "__cpu_dispatch__", None)
        if dispatch is not None:
            has = getattr(module, "__cpu_features__", {})
            return [f for f in dispatch if has.get(f)]
    return None


def _marginal_digest(path) -> str:
    """SHA-256 over the marginal bytes and probability maps of the saved
    states, each read on several measured-wire lists. It imports what it
    uses, so a fresh interpreter can run its source."""
    import hashlib

    import numpy as np

    from qsim.measure import marginal, probabilities
    from qsim.states import DensityMatrix, PureState

    digest = hashlib.sha256()
    with np.load(path) as saved:
        for name in sorted(saved.files):
            buf = saved[name]
            state = PureState(buf) if buf.ndim == 1 else DensityMatrix(buf)
            n = state.num_qubits
            for measured in ([0], [n - 1], [n // 2], [0, 3, n - 2], list(range(0, n, 3)),
                             list(range(n // 2, n)), list(range(n))):
                digest.update(marginal(state, measured).tobytes())
                digest.update(repr(probabilities(state, measured)).encode())
    return digest.hexdigest()


def test_marginal_bytes_do_not_depend_on_numpy_dispatch(tmp_path):
    """marginal and probabilities give the same bytes on numpy's baseline
    kernels as in this process: the digest here equals the one from a
    process with NPY_DISABLE_CPU_FEATURES set to every dispatched feature
    this CPU has. On a CPU with none of them, or with them already
    disabled here, both sides run the baseline kernels and the test
    passes trivially."""
    features = _dispatched_features()
    if features is None:
        pytest.skip("numpy exposes no __cpu_dispatch__ list, so its kernels cannot be switched")
    rng = np.random.default_rng(12)
    states = {f"psi{n}": random_pure_vec(rng, n) for n in (10, 13, 16)}
    states["rho10"] = random_density_mat(rng, 10)
    path = tmp_path / "states.npz"
    np.savez(path, **states)
    code = f"{inspect.getsource(_marginal_digest)}\nimport sys\nprint(_marginal_digest(sys.argv[1]))"
    env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(features)
    src = str(Path(qsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == _marginal_digest(path)
