import numpy as np
import pytest

from dynact.errors import MotionError
from dynact.motion import AffineMotion

from oracles import identity_motion


@pytest.fixture
def breathing():
    return AffineMotion()


def test_scale_factor_values(breathing):
    assert breathing.scale_factor(0.0) == 1.0
    assert breathing.scale_factor(np.pi / 0.04) == pytest.approx(0.9, abs=1e-15)
    assert breathing.scale_factor(np.pi / (2 * 0.04)) == pytest.approx(0.95, abs=1e-15)


def test_scale_factor_range(breathing):
    t = np.linspace(0, 400, 2001)
    s = breathing.scale_factor(t)
    assert np.all(s >= 0.9 - 1e-12) and np.all(s <= 1.0 + 1e-12)


def test_phi_identity_at_t0(breathing):
    x = np.array([0.3, -0.2])
    assert np.array_equal(breathing.phi(0.0, x), x)


def test_phi_at_half_period(breathing):
    # s = 0.9: the origin moves to (0.044/0.9, 0)
    t = np.pi / 0.04
    out = breathing.phi(t, np.array([0.0, 0.0]))
    np.testing.assert_allclose(out, [0.044 / 0.9, 0.0], rtol=1e-12, atol=1e-15)


def test_phi_inverse_at_half_period(breathing):
    t = np.pi / 0.04
    out = breathing.phi_inverse(t, np.array([0.044 / 0.9, 0.0]))
    np.testing.assert_allclose(out, [0.0, 0.0], rtol=0, atol=1e-15)


def test_determinant_is_one_at_all_times(breathing):
    for t in np.linspace(0, 200, 41):
        assert breathing.det(t) == pytest.approx(1.0, abs=1e-14)


def test_inverse_roundtrip_random(breathing):
    rng = np.random.default_rng(7)
    t = rng.uniform(0, 300, 1000)
    pts = rng.uniform(-1, 1, (1000, 2))
    worst = 0.0
    for ti, p in zip(t, pts):
        q = breathing.phi_inverse(ti, breathing.phi(ti, p))
        worst = max(worst, float(np.max(np.abs(q - p))))
    assert worst < 1e-12


def test_identity_motion_is_bitwise_identity():
    m = identity_motion()
    pts = np.array([[0.123, -0.456], [0.0, 0.0], [-1.0, 1.0]])
    for t in (0.0, 17.3, 157.0):
        assert np.array_equal(m.phi(t, pts), pts)
        assert np.array_equal(m.phi_inverse(t, pts), pts)


def test_matrix_shift_consistent_with_phi(breathing):
    t = 55.0
    a = breathing.matrix(t)
    b = breathing.shift(t)
    pts = np.array([[0.2, 0.4], [-0.3, 0.1]])
    via_ab = pts @ a.T + b
    np.testing.assert_allclose(breathing.phi(t, pts), via_ab, rtol=1e-13, atol=1e-15)


def test_singular_matrix_raises():
    # s(t) == 0 at all times: the motion is not a diffeomorphism
    m = AffineMotion(amplitude=0.0, offset=0.0)
    with pytest.raises(MotionError):
        m.phi_inverse(1.0, np.array([0.1, 0.2]))
