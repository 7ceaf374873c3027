import math

import numpy as np
import pytest

from entconv.optics import HWP, QWP, SPIN_HADAMARD, hwp, qwp, spin_hadamard
from entconv.qstate import Spin, attach_spin, ket

from conftest import expected_vector


def test_all_element_matrices_unitary():
    for name, m in (("QWP", QWP), ("HWP", HWP), ("SpinHadamard", SPIN_HADAMARD)):
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12, err_msg=name)


def test_qwp_on_r():
    out = qwp(ket("R"), 1)
    want = expected_vector(1, {"R": 1 / math.sqrt(2), "L": 1 / math.sqrt(2)})
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_qwp_on_l_has_minus_sign():
    out = qwp(ket("L"), 1)
    want = expected_vector(1, {"R": 1 / math.sqrt(2), "L": -1 / math.sqrt(2)})
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_qwp_twice_is_identity():
    out = qwp(qwp(ket("R"), 1), 1)
    np.testing.assert_allclose(out.amplitudes, ket("R").amplitudes, atol=1e-12)


def test_hwp_flips_middle_photon():
    out = hwp(ket("RLR"), 2)
    np.testing.assert_allclose(out.amplitudes, expected_vector(3, {"RRR": 1.0}), atol=1e-15)


def test_hwp_first_recovery_step():
    out = hwp(ket("LLL"), 2)
    np.testing.assert_allclose(out.amplitudes, expected_vector(3, {"LRL": 1.0}), atol=1e-15)


def test_hwp_twice_is_identity():
    out = hwp(hwp(ket("RL"), 2), 2)
    np.testing.assert_allclose(out.amplitudes, ket("RL").amplitudes, atol=1e-15)


def test_spin_hadamard_on_plus():
    s = attach_spin(ket("R"), np.array([1.0, 0.0]))
    out = spin_hadamard(s)
    want = expected_vector(1, {("R", 0): 1 / math.sqrt(2), ("R", 1): 1 / math.sqrt(2)}, spin_slots=True)
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_spin_hadamard_twice_is_identity():
    s = attach_spin(ket("RL"), np.array([0.28, 0.96]))
    out = spin_hadamard(spin_hadamard(s))
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_spin_hadamard_inverts_equal_superposition():
    s = attach_spin(ket("R"), np.array([1.0, 1.0]) / math.sqrt(2))
    out = spin_hadamard(s)
    want = expected_vector(1, {("R", 0): 1.0}, spin_slots=True)
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_invalid_photon_index():
    with pytest.raises(ValueError, match="site out of range"):
        qwp(ket("RR"), 5)


def test_spin_op_needs_spin():
    with pytest.raises(ValueError, match="no spin"):
        spin_hadamard(ket("RR"))
