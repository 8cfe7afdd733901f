import numpy as np
import pytest

from dynact.errors import ConfigError
from dynact.motion import AffineMotion, eval_ft, identity_motion
from dynact.phantom import (
    Ellipse,
    PhantomSpec,
    check_support_in_unit_disk,
    eval_f0,
    rasterize_f0,
)


def test_ellipse_rejects_bad_axes():
    with pytest.raises(ConfigError):
        Ellipse(center=(0, 0), semi_axes=(0.0, 0.5))
    with pytest.raises(ConfigError):
        Ellipse(center=(0, 0), semi_axes=(0.5, 0.5), density=float("nan"))


def test_eval_f0_outside_is_zero():
    spec = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(0.3, 0.2), density=1.5)])
    assert eval_f0(spec, np.array([0.9, 0.9])) == 0.0


def test_eval_f0_unit_disk_center():
    spec = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(1, 1), density=1.0)])
    assert eval_f0(spec, np.array([0.0, 0.0])) == 1.0


def test_eval_f0_overlap_adds():
    spec = PhantomSpec(
        [
            Ellipse(center=(0, 0), semi_axes=(0.5, 0.5), density=0.4),
            Ellipse(center=(0.1, 0), semi_axes=(0.5, 0.5), density=0.3),
        ]
    )
    assert eval_f0(spec, np.array([0.05, 0.0])) == pytest.approx(0.7, abs=1e-15)


def test_eval_f0_boundary_counts_as_inside():
    spec = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(0.5, 0.25), density=1.0)])
    assert eval_f0(spec, np.array([0.5, 0.0])) == 1.0


def test_rotated_ellipse_membership():
    e = Ellipse(center=(0.2, -0.1), semi_axes=(0.4, 0.1), rotation=np.pi / 4)
    # point along the rotated major axis, just inside the tip
    tip = np.array([0.2 + 0.39 * np.cos(np.pi / 4), -0.1 + 0.39 * np.sin(np.pi / 4)])
    off = np.array([0.2 + 0.39 * np.cos(np.pi / 4 + np.pi / 2), -0.1 + 0.39 * np.sin(np.pi / 4 + np.pi / 2)])
    assert e.contains(tip)
    assert not e.contains(off)


def test_rasterize_matches_point_eval_in_flat_regions():
    spec = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(0.6, 0.6), density=2.0)])
    img = rasterize_f0(spec, 65, 65)
    x = np.linspace(-1, 1, 65)
    X, Y = np.meshgrid(x, x, indexing="ij")
    deep = np.hypot(X, Y) < 0.5  # away from the edge supersampling band
    assert np.all(img[deep] == 2.0)
    outside = np.hypot(X, Y) > 0.7
    assert np.all(img[outside] == 0.0)


def test_support_check_flags_escaping_phantom():
    spec = PhantomSpec([Ellipse(center=(0.5, 0), semi_axes=(0.6, 0.3), density=1.0)])
    r = check_support_in_unit_disk(spec, identity_motion(), np.array([0.0]))
    assert r > 1.0


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_support_check_counts_a_non_finite_point_as_outside(value):
    # a motion that overflows moves points to inf or NaN; NaN radii must
    # not read as 0 (max(0.0, nan) is 0.0)
    class Overflowing:
        def phi(self, t, points):
            return np.full_like(points, value) if t > 0 else points

    spec = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(0.3, 0.2), density=1.0)])
    assert check_support_in_unit_disk(spec, Overflowing(), np.array([0.0])) < 1.0
    assert check_support_in_unit_disk(spec, Overflowing(), np.array([0.0, 1.0])) == np.inf


def test_support_check_default_breathing(thorax_config):
    times = np.linspace(0.0, thorax_config.scan.t_end, 33)
    r = check_support_in_unit_disk(thorax_config.phantom, thorax_config.motion, times)
    assert r < 1.0


class TestMassPreservingState:
    def test_t0_equals_f0(self):
        spec = PhantomSpec([Ellipse(center=(0.1, 0.1), semi_axes=(0.4, 0.3), density=1.2)])
        motion = AffineMotion()
        pts = np.array([[0.1, 0.1], [0.45, 0.1], [0.9, 0.9]])
        assert np.array_equal(eval_ft(spec, motion, 0.0, pts), eval_f0(spec, pts))

    def test_breathing_motion_preserves_values(self):
        # det = 1 exactly, so f_t is f0 pulled back with no density change
        spec = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(0.5, 0.4), density=0.8)])
        motion = AffineMotion()
        t = 40.0
        pts = np.array([[0.2, 0.1], [0.0, -0.3], [0.6, 0.6]])
        expected = eval_f0(spec, motion.phi_inverse(t, pts))
        np.testing.assert_allclose(eval_ft(spec, motion, t, pts), expected, rtol=0, atol=1e-15)

    def test_anisotropic_stretch_scales_density(self):
        spec = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(1, 1), density=1.0)])

        class Stretch:
            """phi(t, x) = diag(2, 1) x, the only motion here with |det| != 1."""

            def phi_inverse(self, t, points):
                return points * np.array([0.5, 1.0])

            def det(self, t):
                return 2.0

        motion = Stretch()
        val = eval_ft(spec, motion, 1.0, np.array([1.0, 0.0]))
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_mass_conservation_quadrature(self):
        # integrated mass of f_t equals the mass of f0 to quadrature accuracy
        spec = PhantomSpec(
            [
                Ellipse(center=(0.05, -0.1), semi_axes=(0.5, 0.35), rotation=0.3, density=1.0),
                Ellipse(center=(-0.1, 0.1), semi_axes=(0.2, 0.15), rotation=-0.2, density=0.5),
            ]
        )
        motion = AffineMotion()
        n = 1025
        x = np.linspace(-1, 1, n)
        X, Y = np.meshgrid(x, x, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
        cell = (x[1] - x[0]) ** 2
        mass0 = eval_f0(spec, pts).sum() * cell
        mass_t = eval_ft(spec, motion, np.pi / 0.04, pts).sum() * cell
        assert abs(mass_t - mass0) / mass0 < 1e-3
