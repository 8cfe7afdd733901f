import numpy as np
import pytest

from dynact.boundary import (
    BoundaryData,
    BoundarySpec,
    arclength_weights,
    lerp_in_time,
    perturb,
    sample_boundary,
    sparsify,
)
from dynact.errors import ConfigError
from dynact.motion import AffineMotion, identity_motion
from dynact.rng import StableRng


class TestStableRng:
    def test_reproducible(self):
        a = StableRng(42).normals(1000)
        b = StableRng(42).normals(1000)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        assert not np.array_equal(StableRng(1).normals(100), StableRng(2).normals(100))

    def test_uniforms_in_open_interval(self):
        u = StableRng(7).uniforms(100000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_normal_moments(self):
        z = StableRng(11).normals(200000)
        assert abs(z.mean()) < 3.0 / np.sqrt(len(z))
        assert abs(z.std() - 1.0) < 0.01

    def test_chunking_independent(self):
        r = StableRng(5)
        a = np.concatenate([r.uniforms(10), r.uniforms(20)])
        b = StableRng(5).uniforms(30)
        assert np.array_equal(a, b)


class TestSampleBoundary:
    def test_zero_at_t0(self, ellipse_grid_65):
        bd = sample_boundary(AffineMotion(), ellipse_grid_65, [0.0, 10.0])
        assert np.all(bd.values[0] == 0.0)

    def test_identity_motion_zero_everywhere(self, ellipse_grid_65):
        bd = sample_boundary(identity_motion(), ellipse_grid_65, np.linspace(0, 100, 5))
        assert np.all(bd.values == 0.0)

    def test_against_direct_phi(self, ellipse_grid_65):
        motion = AffineMotion()
        t = np.pi / 0.04
        bd = sample_boundary(motion, ellipse_grid_65, [0.0, t])
        pts = ellipse_grid_65.boundary_positions()
        np.testing.assert_array_equal(bd.values[1], motion.phi(t, pts) - pts)

    def test_time_interpolation(self, ellipse_grid_65):
        bd = BoundaryData(
            times=np.array([0.0, 2.0]),
            values=np.stack(
                [np.zeros((4, 2)), np.ones((4, 2))], axis=0
            ),
        )
        np.testing.assert_allclose(bd.at_time(0.5), 0.25 * np.ones((4, 2)))
        np.testing.assert_array_equal(bd.at_time(-1.0), bd.values[0])
        np.testing.assert_array_equal(bd.at_time(5.0), bd.values[1])


class TestArclengthWeights:
    # knots at arc lengths 1, 3, 6 on a closed curve of perimeter 8, unsorted
    S_KNOTS = np.array([6.0, 1.0, 3.0])
    VALUES = np.array([60.0, 10.0, 30.0])

    def _interp(self, s):
        lo, hi, w = arclength_weights(self.S_KNOTS, np.asarray(s, dtype=float), 8.0)
        return (1.0 - w) * self.VALUES[lo] + w * self.VALUES[hi]

    def test_unsorted_knots(self):
        # halfway between the knots at 1 and 3, then between 3 and 6
        np.testing.assert_allclose(self._interp([2.0, 4.5]), [20.0, 45.0], rtol=0, atol=1e-12)

    def test_wraps_before_first_and_after_last_knot(self):
        # the wrap segment runs from s = 6 (value 60) to s = 1 + 8 (value 10)
        # over a length of 3; s = 0 is 2 along it, s = 7 is 1 along it
        np.testing.assert_allclose(
            self._interp([0.0, 7.0]),
            [60.0 + (2.0 / 3.0) * (10.0 - 60.0), 60.0 + (1.0 / 3.0) * (10.0 - 60.0)],
            rtol=0,
            atol=1e-12,
        )

    def test_knots_reproduce_their_values(self):
        assert np.array_equal(self._interp(self.S_KNOTS), self.VALUES)


class TestLerpInTime:
    TIMES = np.array([0.0, 0.7, 1.5, 4.0])
    VALUES = np.random.default_rng(8).standard_normal((4, 5, 2))

    def test_buffers_give_the_same_bits(self):
        out, scratch = np.empty((5, 2)), np.empty((5, 2))
        for t in (-1.0, 0.0, 0.3, 0.7, 1.1, 3.9, 4.0, 7.0):
            expect = lerp_in_time(self.TIMES, self.VALUES, t)
            got = lerp_in_time(self.TIMES, self.VALUES, t, out=out, scratch=scratch)
            assert np.array_equal(got, expect)
            # a blend lands in out; a clamped time returns the sample itself
            assert (got is out) == (0.0 < t < 4.0)

    def test_reads_a_sequence_k_then_k_plus_1(self):
        read = []

        class Samples:
            def __getitem__(s, k):
                read.append(k)
                return self.VALUES[k]

        for t, keys in ((-1.0, [0]), (9.0, [3]), (2.0, [2, 3]), (0.7, [1, 2])):
            read.clear()
            assert np.array_equal(lerp_in_time(self.TIMES, Samples(), t), lerp_in_time(self.TIMES, self.VALUES, t))
            assert read == keys


class TestPerturb:
    def _bd(self, grid, n_times=7):
        return sample_boundary(AffineMotion(), grid, np.linspace(0, 50, n_times))

    def test_zero_std_unchanged(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        out = perturb(bd, BoundarySpec(mode="noisy", noise_std=0.0, rng_seed=3))
        assert np.array_equal(out.values, bd.values)

    def test_same_seed_bitwise_identical(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        spec = BoundarySpec(mode="noisy", noise_std=0.1, rng_seed=99)
        a = perturb(bd, spec)
        b = perturb(bd, spec)
        assert np.array_equal(a.values, b.values)

    def test_noise_statistics(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65, n_times=40)
        spec = BoundarySpec(mode="noisy", noise_std=0.2, rng_seed=17)
        added = perturb(bd, spec).values - bd.values
        n = added.size
        assert abs(added.mean()) < 3.0 * 0.2 / np.sqrt(n)
        assert abs(added.std() - 0.2) < 0.01

    def test_time_constant_variant(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        spec = BoundarySpec(mode="noisy", noise_std=0.1, rng_seed=4, time_constant_noise=True)
        added = perturb(bd, spec).values - bd.values
        for k in range(1, len(bd.times)):
            # recovered draws differ only by the add/subtract round trip
            np.testing.assert_allclose(added[k], added[0], rtol=0, atol=1e-15)

    def test_requires_noisy_mode(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        with pytest.raises(ConfigError):
            perturb(bd, BoundarySpec(mode="exact"))


class TestSparsify:
    def _bd(self, grid):
        return sample_boundary(AffineMotion(), grid, np.linspace(0, 100, 9))

    def test_all_nodes_unchanged(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        spec = BoundarySpec(mode="sparse", num_nodes=bd.num_nodes)
        out = sparsify(bd, spec, ellipse_grid_65)
        assert np.array_equal(out.values, bd.values)

    def test_retained_nodes_exact(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        out = sparsify(bd, BoundarySpec(mode="sparse", num_nodes=32), ellipse_grid_65)
        # nodes whose values were kept exactly are the retained set
        same = np.all(out.values == bd.values, axis=(0, 2))
        assert same.sum() >= 32

    def test_affine_in_arclength_reproduced(self, ellipse_grid_65):
        # values linear in arc-length between retained nodes are exact at
        # the retained nodes and interpolated linearly elsewhere; a
        # globally constant field is reproduced everywhere
        bd = self._bd(ellipse_grid_65)
        const = BoundaryData(times=bd.times, values=np.full_like(bd.values, 0.37))
        out = sparsify(const, BoundarySpec(mode="sparse", num_nodes=16), ellipse_grid_65)
        np.testing.assert_allclose(out.values, 0.37, rtol=0, atol=1e-12)

    def test_interpolation_error_shrinks_with_more_nodes(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        err = {}
        for n in (32, 64):
            out = sparsify(bd, BoundarySpec(mode="sparse", num_nodes=n), ellipse_grid_65)
            err[n] = np.abs(out.values - bd.values).max()
        assert err[64] < err[32] / 3.0

    def test_too_few_nodes_rejected(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        with pytest.raises(ConfigError):
            sparsify(bd, BoundarySpec(mode="sparse", num_nodes=2), ellipse_grid_65)

    def test_requires_sparse_mode(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        with pytest.raises(ConfigError):
            sparsify(bd, BoundarySpec(mode="noisy"), ellipse_grid_65)
