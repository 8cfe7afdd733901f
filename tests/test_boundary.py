import numpy as np
import pytest

from dynact import pipeline
from dynact.boundary import (
    BoundaryData,
    BoundarySpec,
    arclength_weights,
    boundary_angles,
    boundary_arclengths,
    low_pass,
    perturb,
    sample_boundary,
    samples_read,
    sparsify,
    time_bracket,
)
from dynact.config import default_config
from dynact.errors import ConfigError
from dynact.motion import AffineMotion, identity_motion
from dynact.rng import _uniforms, normals


class TestStableRng:
    """`rng.normals`: a pure function of the seed and the counters of the
    draw, C-order over shapes whose rows hold an even number of draws."""

    def test_reproducible(self):
        assert np.array_equal(normals(42, (500, 2)), normals(42, (500, 2)))

    def test_seed_sensitivity(self):
        assert not np.array_equal(normals(1, (50, 2)), normals(2, (50, 2)))

    def test_uniforms_in_open_interval(self):
        u = _uniforms(7, np.arange(100000, dtype=np.uint64))
        assert u.min() > 0.0 and u.max() < 1.0

    def test_normal_moments(self):
        z = normals(11, (100000, 2)).ravel()
        assert abs(z.mean()) < 3.0 / np.sqrt(len(z))
        assert abs(z.std() - 1.0) < 0.01

    @pytest.mark.parametrize("shape", [(661, 480, 2), (50001, 2), (7, 2)])
    def test_blocked_normals_match_one_shot_box_muller(self, shape):
        # normals draws in blocks of pairs; the bits are those of the whole
        # draw at once: pair j reads u1 at counter j and u2 at pairs + j
        pairs = int(np.prod(shape)) // 2
        u1 = _uniforms(3, np.arange(pairs, dtype=np.uint64))
        u2 = _uniforms(3, np.arange(pairs, 2 * pairs, dtype=np.uint64))
        expected = np.empty(2 * pairs)
        expected[0::2] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        expected[1::2] = np.sqrt(-2.0 * np.log(u1)) * np.sin(2.0 * np.pi * u2)
        z = normals(3, shape)
        assert z.shape == shape
        assert np.array_equal(z.reshape(-1).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("rows", [np.arange(0, 661, 5), np.array([660, 3, 3, 0]), np.array([], dtype=int)])
    def test_row_draws_equal_rows_of_the_whole_draw(self, rows):
        # rows of a (661, 240, 2) draw, each computed at its own counters,
        # have the bits of those rows of the whole draw
        whole = normals(9, (661, 240, 2))
        z = normals(9, (661, 240, 2), rows=rows)
        assert z.shape == (len(rows), 240, 2)
        assert np.array_equal(z.view(np.uint64), whole[rows].view(np.uint64))

    def test_rows_of_an_odd_count_rejected(self):
        # a normal pair would straddle two rows of 3 draws, or of 1
        for shape, rows in (((4, 3), [1]), ((4, 3), None), ((7,), None)):
            with pytest.raises(ValueError, match="odd"):
                normals(1, shape, rows=rows)


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
        blended = bd.at_times([-1.0, 0.5, 5.0])
        np.testing.assert_allclose(blended.values[1], 0.25 * np.ones((4, 2)))
        np.testing.assert_array_equal(blended.values[0], bd.values[0])
        np.testing.assert_array_equal(blended.values[2], bd.values[1])


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


class TestTimeBracket:
    TIMES = np.array([0.0, 0.7, 1.5, 4.0])

    def test_clamps_before_the_first_and_after_the_last_sample(self):
        assert time_bracket(self.TIMES, -1.0) == (0, 0, 0.0)
        assert time_bracket(self.TIMES, 9.0) == (3, 3, 0.0)

    def test_a_sample_time_reads_that_sample_alone(self):
        for k, t in enumerate(self.TIMES):
            assert time_bracket(self.TIMES, t) == (k, k, 0.0)

    def test_a_time_between_samples_reads_both_around_it(self):
        values = np.random.default_rng(8).standard_normal((4, 5, 2))
        for t in (0.3, 1.1, 3.9):
            k0, k1, w = time_bracket(self.TIMES, t)
            assert k1 == k0 + 1 and self.TIMES[k0] < t < self.TIMES[k1]
            assert w == (t - self.TIMES[k0]) / (self.TIMES[k1] - self.TIMES[k0])
            expect = [[np.interp(t, self.TIMES, values[:, b, c]) for c in range(2)] for b in range(5)]
            np.testing.assert_allclose((1.0 - w) * values[k0] + w * values[k1], expect, rtol=0, atol=1e-14)

    def test_a_blend_at_a_sample_time_is_that_sample_bit_for_bit(self):
        # -0.0 next to a positive sample: adding 0 x the next sample would
        # turn it into +0.0
        values = np.random.default_rng(9).standard_normal((4, 5, 2))
        values[:, 0, 0] = [1.0, -0.0, 2.0, -0.0]
        blended = BoundaryData(self.TIMES, values).at_times(self.TIMES)
        assert blended.values.tobytes() == values.tobytes()
        assert np.signbit(blended.values[[1, 3], 0, 0]).all()


class TestSamplesRead:
    SAMPLES = np.array([0.0, 1.0, 2.0, 3.0, 4.0])

    def test_a_sample_time_reads_one_sample_and_a_time_between_two(self):
        # 1.0 and 3.0 are sample times, 0.5 lies between samples 0 and 1, and
        # a time outside the schedule reads its first or last sample
        assert samples_read(self.SAMPLES, [1.0, 3.0]).tolist() == [False, True, False, True, False]
        assert samples_read(self.SAMPLES, [0.5]).tolist() == [True, True, False, False, False]
        assert samples_read(self.SAMPLES, [-1.0, 9.0]).tolist() == [True, False, False, False, True]

    def test_blend_from_the_samples_read_has_the_whole_schedules_bits(self):
        values = np.random.default_rng(4).standard_normal((5, 6, 2))
        times = [0.0, 0.25, 1.0, 2.0, 3.5, 4.0]
        read = samples_read(self.SAMPLES, times)
        whole = BoundaryData(self.SAMPLES, values)
        part = BoundaryData(self.SAMPLES[read], values[read]).at_times(times)
        assert np.array_equal(part.times, times)
        assert part.values.tobytes() == whole.at_times(times).values.tobytes()


class TestBoundaryDataForMode:
    """The pipeline samples, perturbs and sparsifies only the samples that
    the blend to the snapshot times reads; its data has the bits of the
    whole schedule's, blended by ``at_times``."""

    @staticmethod
    def _config(num_samples: int, time_constant: bool):
        cfg = default_config()
        cfg.solver.grid_nx = cfg.solver.grid_ny = 33
        cfg.boundary.num_sample_times = num_samples
        cfg.boundary.spec.time_constant_noise = time_constant
        return cfg

    @staticmethod
    def _reference(cfg, grid, mode: str) -> np.ndarray:
        samples = np.linspace(0.0, cfg.scan.t_end, cfg.boundary.num_sample_times)
        bd = sample_boundary(cfg.motion, grid, samples)
        spec = cfg.boundary.spec
        if mode == "noisy":
            # the low-pass pools its mode count over the samples read
            read = samples_read(samples, pipeline.snapshot_times(cfg))
            noisy = perturb(bd, spec).values[read]
            bd = low_pass(BoundaryData(times=samples[read], values=noisy), grid, spec.noise_std)
        elif mode == "sparse":
            bd = sparsify(bd, spec, grid)
        return bd.at_times(pipeline.snapshot_times(cfg)).values

    # 661: every snapshot time is a sample time; 41 and 300: most are not
    @pytest.mark.parametrize("num_samples", [661, 41, 300])
    @pytest.mark.parametrize("mode, time_constant", [("exact", False), ("noisy", False), ("noisy", True), ("sparse", False)])
    def test_matches_the_whole_schedule(self, num_samples, mode, time_constant, monkeypatch):
        cfg = self._config(num_samples, time_constant)
        grid = pipeline.solver_grid(cfg)
        sampled = []
        monkeypatch.setattr(pipeline, "sample_boundary", lambda motion, g, times: sampled.append(len(times)) or sample_boundary(motion, g, times))
        bd = pipeline.boundary_data_for_mode(cfg, grid, mode)
        assert np.array_equal(bd.times, pipeline.snapshot_times(cfg))
        assert bd.values.tobytes() == self._reference(cfg, grid, mode).tobytes()
        k = cfg.solver.num_snapshots
        assert len(sampled) == 1 and sampled[0] <= min(2 * k, num_samples)
        if num_samples == 661:
            assert sampled == [k]


class TestLowPass:
    def test_zero_std_noisy_data_is_the_exact_data(self):
        cfg = default_config()
        cfg.solver.grid_nx = cfg.solver.grid_ny = 33
        cfg.boundary.spec.noise_std = 0.0
        grid = pipeline.solver_grid(cfg)
        noisy = pipeline.boundary_data_for_mode(cfg, grid, "noisy")
        assert noisy.values.tobytes() == pipeline.boundary_data_for_mode(cfg, grid, "exact").values.tobytes()

    def test_exact_data_passes_through(self, ellipse_grid_65):
        # affine motion moves an ellipse's boundary in its angle modes <= 1:
        # a noise level far below the data keeps those modes, and nothing
        # else is there to remove
        bd = sample_boundary(AffineMotion(), ellipse_grid_65, np.linspace(0, 50, 7))
        out = low_pass(bd, ellipse_grid_65, 1e-9)
        assert np.array_equal(out.times, bd.times)
        assert np.abs(out.values - bd.values).max() <= 1e-12
        theta = boundary_angles(ellipse_grid_65)
        modes = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)], axis=1)
        y = np.transpose(bd.values, (1, 0, 2)).reshape(len(theta), -1)
        assert np.abs(modes @ np.linalg.lstsq(modes, y, rcond=None)[0] - y).max() <= 1e-12

    def test_residual_meets_the_noise_level(self, ellipse_grid_65):
        # the discrepancy principle: the residual is at most N noise_std^2,
        # and the data keeps only low angle modes, far fewer than the nodes
        bd = sample_boundary(AffineMotion(), ellipse_grid_65, np.linspace(0, 50, 40))
        spec = BoundarySpec(mode="noisy", noise_std=0.1, rng_seed=5)
        noisy = perturb(bd, spec)
        out = low_pass(noisy, ellipse_grid_65, spec.noise_std)
        assert ((noisy.values - out.values) ** 2).sum() <= noisy.values.size * spec.noise_std**2
        assert np.abs(out.values - bd.values).max() < 0.1

    def test_mode_count_is_the_smallest_that_meets_the_noise_level(self, ellipse_grid_65):
        # data a cos(3 theta) has about N a^2 / 2 outside modes <= 2: noise
        # below a / sqrt(2) keeps mode 3, and so the data; noise above it
        # keeps mode 0 alone, the data's mean
        theta = boundary_angles(ellipse_grid_65)
        values = np.broadcast_to((0.1 * np.cos(3 * theta))[None, :, None], (4, len(theta), 2))
        bd = BoundaryData(times=np.arange(4.0), values=values)
        assert np.abs(low_pass(bd, ellipse_grid_65, 0.05).values - values).max() <= 1e-12
        mean = values.mean(axis=1, keepdims=True)
        assert np.abs(low_pass(bd, ellipse_grid_65, 0.09).values - mean).max() <= 1e-12

    def test_requires_an_elliptic_domain(self, unit_square_grid):
        bd = sample_boundary(AffineMotion(), unit_square_grid, [0.0, 1.0])
        with pytest.raises(ConfigError):
            low_pass(bd, unit_square_grid, 0.1)


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


class TestSparsify:
    def _bd(self, grid):
        return sample_boundary(AffineMotion(), grid, np.linspace(0, 100, 9))

    def test_all_nodes_unchanged(self, ellipse_grid_65):
        bd = self._bd(ellipse_grid_65)
        spec = BoundarySpec(mode="sparse", num_nodes=bd.values.shape[1])
        out = sparsify(bd, spec, ellipse_grid_65)
        assert np.array_equal(out.values, bd.values)

    @pytest.mark.parametrize("num_nodes", [3, 16, 32, 64])
    @pytest.mark.parametrize("grid_name", ["ellipse_65", "thorax_33", "thorax_81", "thorax_129"])
    def test_retained_nodes_exact(self, request, grid_name, num_nodes):
        # the retained set is, per equally spaced arc-length target, the
        # boundary node nearest to it in circular arc length; with distinct
        # values per node, the nodes whose values were kept exactly are it
        if grid_name == "ellipse_65":
            grid = request.getfixturevalue("ellipse_grid_65")
        else:
            cfg = default_config()
            cfg.solver.grid_nx = cfg.solver.grid_ny = int(grid_name.split("_")[1])
            grid = pipeline.solver_grid(cfg)
        s = boundary_arclengths(grid)
        num_nodes = min(num_nodes, len(s) - 1)  # 33^2 has 60 boundary nodes, and 60 keeps them all
        values = np.random.default_rng(num_nodes).standard_normal((3, len(s), 2))
        out = sparsify(BoundaryData(np.arange(3.0), values), BoundarySpec(mode="sparse", num_nodes=num_nodes), grid)
        kept = np.flatnonzero(np.all(out.values == values, axis=(0, 2)))
        perimeter = grid.domain.perimeter()
        d = np.abs(s[None, :] - (perimeter * np.arange(num_nodes) / num_nodes)[:, None])
        nearest = np.argmin(np.minimum(d, perimeter - d), axis=1)
        assert kept.tolist() == sorted(set(nearest.tolist()))

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
