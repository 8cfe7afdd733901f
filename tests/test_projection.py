import numpy as np
import pytest

from dynact.errors import ConfigError, MotionError
from dynact.motion import AffineMotion
from dynact.phantom import Ellipse, PhantomSpec, eval_f0
from dynact.projection import (
    ScanGeometry,
    radon_ellipse,
    simulate_scan,
    transform_line,
)

from oracles import eval_ft, identity_motion, radon_numeric_oracle

UNIT_DISK = Ellipse(center=(0, 0), semi_axes=(1, 1), density=1.0)


class TestRadonEllipse:
    def test_disk_center_chord(self):
        for th in (0.0, 0.7, 2.3):
            assert radon_ellipse(UNIT_DISK, th, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_disk_tangent(self):
        assert radon_ellipse(UNIT_DISK, 0.4, 1.0) == 0.0
        assert radon_ellipse(UNIT_DISK, 0.4, 1.3) == 0.0

    def test_rotated_ellipse_matches_oracle(self):
        e = Ellipse(center=(0.1, -0.05), semi_axes=(0.5, 0.25), rotation=np.pi / 6, density=1.0)
        spec = PhantomSpec([e])
        rng = np.random.default_rng(3)
        for _ in range(20):
            th = rng.uniform(0, np.pi)
            s = rng.uniform(-0.7, 0.7)
            oracle = radon_numeric_oracle(lambda p: eval_f0(spec, p), th, s, step=1e-5)
            assert radon_ellipse(e, th, s) == pytest.approx(oracle, abs=1e-5 + 1e-6)

    def test_oracle_agreement_random_pairs(self):
        # unit-density ellipses: midpoint error stays below one step
        rng = np.random.default_rng(12345)
        for _ in range(100):
            e = Ellipse(
                center=(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                semi_axes=(rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)),
                rotation=rng.uniform(0, np.pi),
                density=rng.uniform(0.2, 1.0),
            )
            th = rng.uniform(0, np.pi)
            s = rng.uniform(-0.8, 0.8)
            oracle = radon_numeric_oracle(
                lambda p: eval_f0(PhantomSpec([e]), p), th, s, step=1e-5
            )
            assert radon_ellipse(e, th, s) == pytest.approx(oracle, abs=1e-5)

    def test_evenness(self):
        e = Ellipse(center=(0.2, 0.1), semi_axes=(0.4, 0.3), rotation=0.5, density=0.9)
        rng = np.random.default_rng(8)
        th = rng.uniform(0, np.pi, 50)
        s = rng.uniform(-0.9, 0.9, 50)
        np.testing.assert_allclose(
            radon_ellipse(e, th, s), radon_ellipse(e, th + np.pi, -s), rtol=0, atol=1e-14
        )


class TestOracle:
    def test_zero_function(self):
        assert radon_numeric_oracle(lambda p: np.zeros(len(p)), 0.3, 0.2, 1e-3) == 0.0

    def test_disk_chord(self):
        spec = PhantomSpec([UNIT_DISK])
        val = radon_numeric_oracle(lambda p: eval_f0(spec, p), 1.1, 0.0, step=1e-4)
        assert val == pytest.approx(2.0, abs=1e-4)

    def test_line_missing_disk(self):
        assert radon_numeric_oracle(lambda p: np.ones(len(p)), 0.0, 1.5, 1e-3) == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            radon_numeric_oracle(lambda p: np.ones(len(p)), 0.0, 0.0, step=0.0)


class TestTransformLine:
    def test_identity(self):
        om, s, sc = transform_line(np.eye(2), np.zeros(2), 0.8, 0.35)
        np.testing.assert_allclose(om, [np.cos(0.8), np.sin(0.8)], atol=1e-15)
        assert s == pytest.approx(0.35, abs=1e-15)
        assert sc == 1.0

    def test_diagonal_stretch(self):
        om, s, sc = transform_line(np.diag([2.0, 0.5]), np.zeros(2), 0.0, 0.6)
        np.testing.assert_allclose(om, [1.0, 0.0], atol=1e-15)
        assert s == pytest.approx(0.3, abs=1e-15)
        assert sc == pytest.approx(0.5, abs=1e-15)

    def test_singular_matrix_raises(self):
        with pytest.raises(MotionError):
            transform_line(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2), 0.1, 0.0)

    def test_points_on_line_map_to_measured_line(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
            b = rng.uniform(-0.5, 0.5, 2)
            theta = rng.uniform(0, np.pi)
            y = rng.uniform(-0.8, 0.8)
            om, s, _ = transform_line(A, b, theta, y)
            tau = rng.uniform(-1, 1, 8)
            z = s * om[None, :] + tau[:, None] * np.array([-om[1], om[0]])[None, :]
            moved = z @ A.T + b
            th_vec = np.array([np.cos(theta), np.sin(theta)])
            np.testing.assert_allclose(moved @ th_vec, y, rtol=0, atol=1e-12)


class TestSimulateScan:
    def test_static_unit_disk_rows(self):
        geo = ScanGeometry(num_angles=12, num_detectors=31, time_scale=1.0)
        sino = simulate_scan(PhantomSpec([UNIT_DISK]), identity_motion(), geo)
        expected = 2.0 * np.sqrt(np.maximum(1 - geo.detectors**2, 0.0))
        for n in range(12):
            np.testing.assert_allclose(sino.values[n], expected, rtol=0, atol=1e-14)

    def test_static_rows_all_equal_radon_of_f0(self):
        spec = PhantomSpec(
            [
                Ellipse(center=(0.2, 0.0), semi_axes=(0.3, 0.2), rotation=0.4, density=1.0),
                Ellipse(center=(-0.1, 0.2), semi_axes=(0.2, 0.1), rotation=1.2, density=-0.5),
            ]
        )
        geo = ScanGeometry(num_angles=7, num_detectors=21, time_scale=3.0)
        sino = simulate_scan(spec, identity_motion(), geo)
        for n, ang in enumerate(geo.angles):
            row = sum(radon_ellipse(e, ang, geo.detectors) for e in spec.ellipses)
            np.testing.assert_allclose(sino.values[n], row, rtol=0, atol=1e-14)

    def test_linearity_in_phantom(self):
        e1 = Ellipse(center=(0.1, 0.1), semi_axes=(0.4, 0.2), density=0.7)
        e2 = Ellipse(center=(-0.2, 0.0), semi_axes=(0.2, 0.3), density=0.4)
        geo = ScanGeometry(num_angles=20, num_detectors=41)
        motion = AffineMotion()
        s12 = simulate_scan(PhantomSpec([e1, e2]), motion, geo)
        s1 = simulate_scan(PhantomSpec([e1]), motion, geo)
        s2 = simulate_scan(PhantomSpec([e2]), motion, geo)
        np.testing.assert_array_equal(s12.values, s1.values + s2.values)

    def test_dynamic_matches_moving_oracle(self):
        # unit disk under the breathing motion at s(t) = 0.9
        spec = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(0.7, 0.7), density=1.0)])
        motion = AffineMotion()
        geo = ScanGeometry(num_angles=4, num_detectors=11, time_scale=np.pi / 0.04 / 2)
        sino = simulate_scan(spec, motion, geo)
        n, m = 2, 5  # t = pi/0.04, y = 0
        t = geo.view_times[n]
        oracle = radon_numeric_oracle(
            lambda p: eval_ft(spec, motion, t, p), geo.angles[n], geo.detectors[m], step=1e-5
        )
        assert sino.values[n, m] == pytest.approx(oracle, rel=1e-4)

    def test_mass_line_invariant_static(self):
        spec = PhantomSpec(
            [
                Ellipse(center=(0.1, -0.1), semi_axes=(0.5, 0.3), rotation=0.2, density=1.0),
                Ellipse(center=(0.0, 0.2), semi_axes=(0.15, 0.25), density=0.5),
            ]
        )
        geo = ScanGeometry(num_angles=30, num_detectors=451)
        sino = simulate_scan(spec, identity_motion(), geo)
        masses = np.trapezoid(sino.values, geo.detectors, axis=1)
        assert np.max(np.abs(masses - masses[0])) / masses[0] < 1e-3

    def test_deterministic(self):
        cfg_spec = PhantomSpec([Ellipse(center=(0.1, 0), semi_axes=(0.4, 0.3), density=1.0)])
        geo = ScanGeometry(num_angles=15, num_detectors=33)
        a = simulate_scan(cfg_spec, AffineMotion(), geo)
        b = simulate_scan(cfg_spec, AffineMotion(), geo)
        assert np.array_equal(a.values, b.values)


class TestScanGeometry:
    def test_defaults_match_acquisition_layout(self):
        geo = ScanGeometry()
        assert geo.num_angles == 660
        assert geo.num_detectors == 451
        assert geo.angles[0] == 0.0
        assert geo.angles[-1] < np.pi  # endpoint excluded
        assert geo.detectors[0] == -1.0 and geo.detectors[-1] == 1.0
        # one breathing period over the full scan window
        assert geo.t_end == pytest.approx(2 * np.pi / 0.04, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScanGeometry(num_angles=0)
        with pytest.raises(ConfigError):
            ScanGeometry(num_detectors=1)
        with pytest.raises(ConfigError):
            ScanGeometry(detector_min=1.0, detector_max=-1.0)
