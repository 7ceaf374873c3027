import math

import numpy as np

from entconv.optics import HWP, QWP, SPIN_HADAMARD
from entconv.qstate import apply_rows, ket

from conftest import expected_vector
from oracle import embed


def spin_hadamard(vec):
    """The spin pulse on a register of photons and the spin, as the gate oracle applies it."""
    return embed(SPIN_HADAMARD, vec.size.bit_length() - 2, 0) @ vec


def test_all_element_matrices_unitary():
    for name, m in (("QWP", QWP), ("HWP", HWP), ("SpinHadamard", SPIN_HADAMARD)):
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12, err_msg=name)


def test_qwp_on_r():
    out = apply_rows(ket("R"), (1,), QWP.T)
    want = expected_vector(1, {"R": 1 / math.sqrt(2), "L": 1 / math.sqrt(2)})
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_qwp_on_l_has_minus_sign():
    out = apply_rows(ket("L"), (1,), QWP.T)
    want = expected_vector(1, {"R": 1 / math.sqrt(2), "L": -1 / math.sqrt(2)})
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_qwp_twice_is_identity():
    out = apply_rows(apply_rows(ket("R"), (1,), QWP.T), (1,), QWP.T)
    np.testing.assert_allclose(out, ket("R"), atol=1e-12)


def test_hwp_flips_middle_photon():
    out = apply_rows(ket("RLR"), (2,), HWP.T)
    np.testing.assert_allclose(out, expected_vector(3, {"RRR": 1.0}), atol=1e-15)


def test_hwp_first_recovery_step():
    out = apply_rows(ket("LLL"), (2,), HWP.T)
    np.testing.assert_allclose(out, expected_vector(3, {"LRL": 1.0}), atol=1e-15)


def test_hwp_twice_is_identity():
    out = apply_rows(apply_rows(ket("RL"), (2,), HWP.T), (2,), HWP.T)
    np.testing.assert_allclose(out, ket("RL"), atol=1e-15)


def test_spin_hadamard_on_plus():
    out = spin_hadamard(np.kron(ket("R"), [1.0, 0.0]))
    want = expected_vector(1, {("R", 0): 1 / math.sqrt(2), ("R", 1): 1 / math.sqrt(2)}, spin_slots=True)
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_spin_hadamard_twice_is_identity():
    s = np.kron(ket("RL"), [0.28, 0.96])
    out = spin_hadamard(spin_hadamard(s))
    np.testing.assert_allclose(out, s, atol=1e-12)


def test_spin_hadamard_inverts_equal_superposition():
    out = spin_hadamard(np.kron(ket("R"), [1.0, 1.0]) / math.sqrt(2))
    want = expected_vector(1, {("R", 0): 1.0}, spin_slots=True)
    np.testing.assert_allclose(out, want, atol=1e-12)
