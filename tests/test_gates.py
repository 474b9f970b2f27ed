"""Gate matrices: definitions and algebra."""

import numpy as np
import pytest

from qsim.gates import GateKind, matrix_of

I2 = np.eye(2)
SINGLE = [g for g in GateKind if not g.is_two_qubit]


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


def test_matrix_of_rejects_cnot():
    with pytest.raises(ValueError, match="two-qubit"):
        matrix_of(GateKind.CNOT)


def test_matrices_are_read_only():
    with pytest.raises(ValueError):
        matrix_of(GateKind.X)[0, 0] = 5.0
