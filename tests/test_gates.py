"""Gate matrices: definitions and algebra."""

import re
import struct

import numpy as np
import pytest

from qsim.gates import ENTRIES, GateKind, matrix_of

I2 = np.eye(2)
SINGLE = list(GateKind)


def test_every_single_qubit_matrix_is_unitary():
    for g in SINGLE:
        u = matrix_of(g)
        np.testing.assert_allclose(u.conj().T @ u, I2, atol=1e-12,
                                   err_msg=f"{g.value}†{g.value} != I")


def test_x_flips_the_basis():
    np.testing.assert_allclose(matrix_of(GateKind.X) @ [1, 0], [0, 1], atol=1e-12)


def test_hadamard_definition_and_involution():
    h = matrix_of(GateKind.H)
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(h @ h, I2, atol=1e-12)


def test_phase_gate_tower():
    # T^2 = S and S^2 = Z
    t, s, z = matrix_of(GateKind.T), matrix_of(GateKind.S), matrix_of(GateKind.Z)
    np.testing.assert_allclose(t @ t, s, atol=1e-12)
    np.testing.assert_allclose(s @ s, z, atol=1e-12)


def test_involutions_and_inverse_pairs():
    for g in (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H):
        u = matrix_of(g)
        np.testing.assert_allclose(u @ u, I2, atol=1e-12)
    np.testing.assert_allclose(
        matrix_of(GateKind.S) @ matrix_of(GateKind.SDG), I2, atol=1e-12)
    np.testing.assert_allclose(
        matrix_of(GateKind.T) @ matrix_of(GateKind.TDG), I2, atol=1e-12)


def test_pauli_algebra_cycles():
    x, y, z = (matrix_of(g) for g in (GateKind.X, GateKind.Y, GateKind.Z))
    np.testing.assert_allclose(x @ y, 1j * z, atol=1e-12)
    np.testing.assert_allclose(y @ z, 1j * x, atol=1e-12)
    np.testing.assert_allclose(z @ x, 1j * y, atol=1e-12)


def test_identity_gate_is_identity():
    np.testing.assert_allclose(matrix_of(GateKind.ID), I2, atol=1e-15)


def test_matrices_are_read_only():
    for g in SINGLE:
        with pytest.raises(ValueError):
            matrix_of(g)[0, 0] = 5.0


@pytest.mark.parametrize("value", [-1, 2.0, True, "cx", None])
def test_a_value_that_is_no_gate_is_refused(value):
    with pytest.raises(ValueError, match=re.escape(f"unknown gate kind {value!r}")):
        matrix_of(value)
    assert np.array_equal(matrix_of("h"), matrix_of(GateKind.H))  # a GateKind is its mnemonic


# (a, b, c, d) of [[a, b], [c, d]]; a complex repr shows the sign of a zero part
PINNED_ENTRIES = {
    GateKind.X: ["0j", "(1+0j)", "(1+0j)", "0j"],
    GateKind.Y: ["0j", "(-0-1j)", "1j", "0j"],
    GateKind.Z: ["(1+0j)", "0j", "0j", "(-1+0j)"],
    GateKind.H: ["(0.7071067811865475+0j)", "(0.7071067811865475+0j)",
                 "(0.7071067811865475+0j)", "(-0.7071067811865475+0j)"],
    GateKind.S: ["(1+0j)", "0j", "0j", "1j"],
    GateKind.SDG: ["(1+0j)", "0j", "0j", "(-0-1j)"],
    GateKind.T: ["(1+0j)", "0j", "0j", "(0.7071067811865476+0.7071067811865475j)"],
    GateKind.TDG: ["(1+0j)", "0j", "0j", "(0.7071067811865476-0.7071067811865475j)"],
    GateKind.ID: ["(1+0j)", "0j", "0j", "(1+0j)"],
}


def _bits(z: complex) -> bytes:
    return struct.pack("<2d", z.real, z.imag)


def test_entry_table_is_pinned_and_matches_the_matrices_bit_for_bit():
    assert set(ENTRIES) == set(GateKind)
    for g in SINGLE:
        assert [repr(z) for z in ENTRIES[g]] == PINNED_ENTRIES[g], g
        assert all(type(z) is complex for z in ENTRIES[g])
        assert [_bits(z) for z in ENTRIES[g]] == [
            _bits(z) for z in matrix_of(g).ravel().tolist()], g
