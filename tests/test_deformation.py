import sys
import threading
import tracemalloc

import numpy as np

from dynact import formats
from dynact.boundary import arclength_weights, boundary_arclengths, sample_boundary, time_bracket
from dynact.deformation import AnalyticDeformation, FieldDeformation
from dynact.elastic import DisplacementHistory
from dynact.grid import NodeKind, stored_nodes
from dynact.motion import AffineMotion, identity_motion


def moved(form):
    """The moved points (P, 2) of an evaluator's linear form (g, basis)."""
    g, basis = form
    return np.einsum("jc,jp->pc", g, basis)


def make_history(grid, times, field_fn):
    """History with u(t, x) = field_fn(t, X, Y) evaluated on actual positions."""
    X, Y = grid.pos[..., 0], grid.pos[..., 1]
    fields = np.stack([field_fn(t, X, Y) for t in times], axis=0)
    ext = grid.kind == int(NodeKind.EXTERIOR)
    gho = grid.kind == int(NodeKind.GHOST)
    fields[:, ext | gho] = 0.0
    return DisplacementHistory(
        times=np.asarray(times, dtype=float), fields=fields, grid=grid, dt=0.0, num_steps=0
    )


def reference_eval(history, t, pts):
    """The per-view formula FieldDeformation replaces: extend every
    snapshot on the whole lattice, blend the lattice fields in time, then
    interpolate bilinearly at the points."""
    g = history.grid
    outside = (g.kind == int(NodeKind.EXTERIOR)) | (g.kind == int(NodeKind.GHOST))
    filled = np.zeros((len(history.times), g.kind.size, 2))
    filled[:, stored_nodes(g.kind)] = history.fields
    filled = filled.reshape(len(history.times), *g.shape, 2)
    closest = g.domain.closest_boundary_points(g.pos[outside])
    s_out = g.domain.arclength_of_angle(g.domain.param_angle(closest))
    lo, hi, w = arclength_weights(boundary_arclengths(g), s_out, g.domain.perimeter())
    b_i, b_j = g.boundary_ij.T
    for u in filled:
        ub = u[b_i, b_j]
        u[outside] = (1.0 - w)[:, None] * ub[lo] + w[:, None] * ub[hi]
    k0, k1, w = time_bracket(history.times, t)
    field = (1.0 - w) * filled[k0] + w * filled[k1]

    xc, yc = g.x_coords, g.y_coords
    px, py = pts[..., 0], pts[..., 1]
    ix = np.clip(np.searchsorted(xc, px, side="right") - 1, 0, len(xc) - 2)
    iy = np.clip(np.searchsorted(yc, py, side="right") - 1, 0, len(yc) - 2)
    wx = np.clip((px - xc[ix]) / (xc[ix + 1] - xc[ix]), 0.0, 1.0)[..., None]
    wy = np.clip((py - yc[iy]) / (yc[iy + 1] - yc[iy]), 0.0, 1.0)[..., None]
    f00, f10 = field[ix, iy], field[ix + 1, iy]
    f01, f11 = field[ix, iy + 1], field[ix + 1, iy + 1]
    return pts + (1 - wx) * ((1 - wy) * f00 + wy * f01) + wx * ((1 - wy) * f10 + wy * f11)


class TestAnalytic:
    def test_matches_phi(self):
        m = AffineMotion()
        prov = AnalyticDeformation(m)
        pts = np.array([[0.1, 0.2], [-0.4, 0.0]])
        t = 30.0
        np.testing.assert_allclose(moved(prov.bind(pts)(t)), m.phi(t, pts), rtol=0, atol=1e-14)

    def test_bind_matches_phi(self):
        m = AffineMotion()
        pts = np.array([[0.1, 0.2], [-0.4, 0.0]])
        move = AnalyticDeformation(m).bind(pts)
        for t in (0.0, 30.0, 77.0):
            np.testing.assert_allclose(moved(move(t)), m.phi(t, pts), rtol=0, atol=1e-14)

    def test_eval_takes_an_evaluator(self):
        m = AffineMotion()
        prov = AnalyticDeformation(m)
        pts = np.array([[0.1, 0.2], [-0.4, 0.0]])
        move, again = prov.bind(pts), prov.bind(pts)
        # binding again gives the same read-only basis in memory of its own
        assert np.array_equal(again.basis, move.basis) and not np.shares_memory(again.basis, move.basis)
        assert not move.basis.flags.writeable  # it writes no buffer
        np.testing.assert_allclose(moved(prov.eval(30.0, move)), m.phi(30.0, pts), rtol=0, atol=1e-14)

    def test_identity_is_bitwise(self):
        prov = AnalyticDeformation(identity_motion())
        pts = np.array([[0.3, -0.7], [0.0, 0.0]])
        g, basis = prov.bind(pts)(42.0)
        assert np.array_equal(g, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(basis, [[0.3, 0.0], [-0.7, 0.0], [1.0, 1.0]])
        assert np.array_equal(moved((g, basis)), pts)


class TestFieldDeformation:
    def test_zero_field_is_identity(self, ellipse_grid_65):
        hist = make_history(ellipse_grid_65, [0.0, 1.0], lambda t, X, Y: np.zeros(X.shape + (2,)))
        prov = FieldDeformation(hist)
        pts = np.array([[0.0, 0.0], [0.5, 0.1], [0.9, 0.9], [-1.0, 1.0]])
        np.testing.assert_allclose(moved(prov.bind(pts)(0.5)), pts, rtol=0, atol=1e-12)

    def test_grid_node_snapshot_time_exact(self, ellipse_grid_65):
        g = ellipse_grid_65

        def fn(t, X, Y):
            return np.stack([0.01 * t * np.ones_like(X), 0.02 * t * np.ones_like(Y)], axis=-1)

        hist = make_history(g, [0.0, 2.0], fn)
        prov = FieldDeformation(hist)
        # an interior lattice node, exactly at a snapshot time
        ii = np.argwhere(g.kind == int(NodeKind.INTERIOR))[50]
        p = np.array([g.x_coords[ii[0]], g.y_coords[ii[1]]])
        out = moved(prov.bind(p)(2.0))
        np.testing.assert_allclose(out, [p + [0.02, 0.04]], rtol=0, atol=1e-14)

    def test_affine_field_time_midpoint(self, ellipse_grid_65):
        g = ellipse_grid_65

        def fn(t, X, Y):
            return np.stack([(0.01 + 0.01 * t) * X, 0.02 * Y - 0.005 * t], axis=-1)

        hist = make_history(g, [0.0, 2.0], fn)
        prov = FieldDeformation(hist)
        # deep interior points: bilinear+linear interpolation is exact on
        # affine-in-space, linear-in-time data
        pts = np.array([[0.05, 0.025], [-0.21, 0.12], [0.3, -0.17]])
        expect = pts + 0.5 * (fn(0.0, pts[:, 0], pts[:, 1]) + fn(2.0, pts[:, 0], pts[:, 1]))
        np.testing.assert_allclose(moved(prov.bind(pts)(1.0)), expect, rtol=0, atol=1e-12)

    def test_time_clamping(self, ellipse_grid_65):
        hist = make_history(
            ellipse_grid_65,
            [0.0, 1.0],
            lambda t, X, Y: np.stack([t * np.ones_like(X), np.zeros_like(Y)], axis=-1),
        )
        prov = FieldDeformation(hist)
        p = np.array([0.1, 0.0])
        np.testing.assert_allclose(moved(prov.bind(p)(5.0)), moved(prov.bind(p)(1.0)), atol=1e-15)

    def test_continuity_across_cell_edges(self, ellipse_grid_65):
        g = ellipse_grid_65
        rng = np.random.default_rng(9)

        def fn(t, X, Y):
            return np.stack([np.sin(3 * X) * np.cos(2 * Y), np.cos(X + Y)], axis=-1) * (1 + t)

        hist = make_history(g, [0.0, 1.0], fn)
        prov = FieldDeformation(hist)
        # pairs straddling interior cell edges: difference shrinks with gap
        edge_x = g.x_coords[40]
        y = rng.uniform(-0.2, 0.2, 20)
        for eps in (1e-5, 1e-8):
            a = moved(prov.bind(np.stack([np.full(20, edge_x - eps), y], axis=-1))(0.5))
            b = moved(prov.bind(np.stack([np.full(20, edge_x + eps), y], axis=-1))(0.5))
            assert np.abs(a - b).max() < 50 * eps + 1e-12

    def test_outside_points_use_boundary_values(self, ellipse_grid_65):
        g = ellipse_grid_65
        motion = AffineMotion()
        t1 = np.pi / 0.04
        bd = sample_boundary(motion, g, [0.0, t1])

        def fn(t, X, Y):
            pts = np.stack([X, Y], axis=-1)
            return motion.phi(t, pts) - pts

        hist = make_history(g, [0.0, t1], fn)
        prov = FieldDeformation(hist)
        # a point far outside the body: displacement equals psi at (near)
        # the closest boundary point up to boundary-node interpolation
        p = np.array([1.4, 0.0])
        closest = g.domain.closest_boundary_points(p)
        expect = p + (motion.phi(t1, closest) - closest)
        got = moved(prov.bind(p)(t1))
        assert np.abs(got - expect).max() < 5e-3  # boundary-node spacing scale
        del bd


class TestAgainstWholeLatticeReference:
    """FieldDeformation against the whole-lattice formula, on off-lattice
    pixels that reach outside the domain and the lattice."""

    @staticmethod
    def history(grid):
        # random values everywhere: outside nodes must be ignored
        times = np.array([0.0, 0.7, 1.5, 2.0, 3.1, 4.0])
        fields = 0.1 * np.random.default_rng(3).standard_normal((len(times),) + grid.shape + (2,))
        return DisplacementHistory(times=times, fields=fields, grid=grid, dt=0.0, num_steps=0)

    @staticmethod
    def raster():
        c = np.linspace(-1.2, 1.2, 97)
        return np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)

    def test_time_sweeps(self, ellipse_grid_65):
        # one bound evaluator over the whole sweep: its two snapshot slots
        # are reused forwards, backwards and across clamped times
        hist = self.history(ellipse_grid_65)
        pts = self.raster()
        move = FieldDeformation(hist).bind(pts)
        forward = np.linspace(-0.5, 4.5, 23)
        sweep = np.concatenate([forward, forward[::-1], [3.1, -1.0, 0.7, 9.0, 2.0, 2.0]])
        for t in sweep:
            np.testing.assert_allclose(moved(move(t)), reference_eval(hist, t, pts), rtol=0, atol=1e-14)

    def test_form_is_the_time_blend_of_two_snapshots(self, ellipse_grid_65):
        # x + ((1 - w) u_k + w u_{k+1}), with u_k the snapshot mapped to the
        # points, at clamped, on-snapshot and in-between times
        hist = self.history(ellipse_grid_65)
        pts = self.raster()
        u = [reference_eval(hist, t, pts) - pts for t in hist.times]
        move = FieldDeformation(hist).bind(pts)
        for t in (-1.0, 0.0, 0.35, 0.7, 2.0, 2.9, 4.0, 9.0):
            k = int(np.clip(np.searchsorted(hist.times, t, side="right") - 1, 0, len(u) - 2))
            w = float(np.clip((t - hist.times[k]) / (hist.times[k + 1] - hist.times[k]), 0.0, 1.0))
            g, basis = move(t)
            assert g.shape == (4, 2) and basis.shape == (4, len(pts))
            np.testing.assert_allclose(moved((g, basis)), pts + ((1 - w) * u[k] + w * u[k + 1]), rtol=0, atol=1e-14)

    def test_points_mutated_in_place_rebind(self, ellipse_grid_65):
        # an evaluator keeps the point map of its bind: points changed in
        # place are bound again
        hist = self.history(ellipse_grid_65)
        pts = self.raster()
        prov = FieldDeformation(hist)
        np.testing.assert_allclose(moved(prov.bind(pts)(1.2)), reference_eval(hist, 1.2, pts), rtol=0, atol=1e-14)
        pts *= 0.9
        pts[0] = [1.1, -0.05]
        move = prov.bind(pts)
        for t in (1.2, 2.5):
            np.testing.assert_allclose(moved(move(t)), reference_eval(hist, t, pts), rtol=0, atol=1e-14)

    def test_twin_shares_the_point_map(self, ellipse_grid_65):
        # binding the same points again reads the same point map into
        # buffers of its own: two evaluators walking different times do
        # not disturb each other
        hist = self.history(ellipse_grid_65)
        pts = self.raster()
        prov = FieldDeformation(hist)
        move, twin = prov.bind(pts), prov.bind(pts.copy())
        assert twin.rows is move.rows and twin.wts is move.wts and twin.xy is move.xy
        for buffer in ("basis", "gather", "snapshot"):
            assert not np.shares_memory(getattr(twin, buffer), getattr(move, buffer))
        for t0, t1 in ((0.2, 3.5), (0.9, 3.7), (1.6, 4.2)):
            a, b = moved(move(t0)), moved(twin(t1))
            np.testing.assert_allclose(a, reference_eval(hist, t0, pts), rtol=0, atol=1e-14)
            np.testing.assert_allclose(b, reference_eval(hist, t1, pts), rtol=0, atol=1e-14)

    def test_eval_is_bind_then_call(self, ellipse_grid_65):
        hist = self.history(ellipse_grid_65)
        pts = self.raster().reshape(97, 97, 2)
        prov = FieldDeformation(hist)
        move = prov.bind(pts)
        for t in (-1.0, 0.7, 2.2, 9.0):
            g, basis = prov.eval(t, move)
            assert g.shape == (4, 2) and basis.shape == (4, 97 * 97)
            assert np.array_equal(moved((g, basis)), moved(prov.bind(pts)(t)))


def eight_wide_fold(prov, pts):
    """Each point's 8 (stored row, weight) pairs before merging: the four
    bilinear cell corners, each read through the node map as 2 rows."""
    g = prov.grid
    xc, yc = g.x_coords, g.y_coords
    ix = np.clip(np.searchsorted(xc, pts[:, 0], side="right") - 1, 0, len(xc) - 2)
    iy = np.clip(np.searchsorted(yc, pts[:, 1], side="right") - 1, 0, len(yc) - 2)
    fx = np.clip((pts[:, 0] - xc[ix]) / (xc[ix + 1] - xc[ix]), 0.0, 1.0)
    fy = np.clip((pts[:, 1] - yc[iy]) / (yc[iy + 1] - yc[iy]), 0.0, 1.0)
    node = ix * g.ny + iy
    corners = np.stack([node, node + 1, node + g.ny, node + g.ny + 1], axis=1)
    corner_wts = np.stack([(1 - fx) * (1 - fy), (1 - fx) * fy, fx * (1 - fy), fx * fy], axis=1)
    src, src_wts = prov.node_map.src[corners], prov.node_map.wts[corners]
    return src.reshape(len(pts), 8), (corner_wts[:, :, None] * src_wts).reshape(len(pts), 8)


class TestCompactPointMap:
    """A bound point reads each stored row it weighs once, and no other."""

    def test_lattice_nodes_are_bitwise_and_at_most_2_wide(self, ellipse_grid_65):
        # at lattice nodes every mapped value is 1.0 * v or (1 - w) * a + w * b,
        # the whole-lattice formula's arithmetic, so a snapshot's basis rows,
        # x + u_k, agree with it bit for bit; the time blend is a linear form
        # over two snapshots' rows and agrees to round-off
        g = ellipse_grid_65
        hist = TestAgainstWholeLatticeReference.history(g)
        pts = np.stack(np.meshgrid(g.x_coords, g.y_coords, indexing="ij"), axis=-1).reshape(-1, 2)
        move = FieldDeformation(hist).bind(pts)
        assert move.rows.shape == (2, len(pts))
        for k, t in enumerate(hist.times):
            s = move._slot(k)
            assert np.array_equal(move.basis[2 * s : 2 * s + 2].T, reference_eval(hist, t, pts))
        for t in (-1.0, 0.0, 0.35, 1.5, 2.9, 4.0, 9.0):
            np.testing.assert_allclose(moved(move(t)), reference_eval(hist, t, pts), rtol=0, atol=1e-14)

    def test_rows_are_merged_and_weights_kept(self, ellipse_grid_65):
        hist = TestAgainstWholeLatticeReference.history(ellipse_grid_65)
        pts = TestAgainstWholeLatticeReference.raster()
        prov = FieldDeformation(hist)
        move = prov.bind(pts)
        rows, wts = move.rows, move.wts
        assert rows.shape == wts.shape[:2] == (4, len(pts))
        assert np.array_equal(wts[..., 0], wts[..., 1])
        wts = wts[..., 0]
        # no point lists a row twice among the rows it weighs, and a padded
        # entry repeats the point's first row
        for i in range(len(rows)):
            for j in range(i):
                assert not np.any((rows[i] == rows[j]) & (wts[i] != 0) & (wts[j] != 0))
        assert np.array_equal(np.where(wts != 0, rows, rows[0]), rows)
        # each (point, row) weight is the sum of the 8-wide fold's weights on it
        fold_rows, fold_wts = eight_wide_fold(prov, pts)
        point = np.arange(len(pts))[:, None]
        keys = np.concatenate([(point * len(hist.fields[0]) + r).ravel() for r in (fold_rows, rows.T)])
        pairs, pair = np.unique(keys, return_inverse=True)
        fold = np.bincount(pair[: fold_rows.size], fold_wts.ravel(), minlength=len(pairs))
        merged = np.bincount(pair[fold_rows.size :], wts.T.ravel(), minlength=len(pairs))
        np.testing.assert_allclose(merged, fold, rtol=0, atol=1e-15)
        assert np.array_equal(merged != 0, fold != 0)

    def test_nan_read_with_weight_0_does_not_reach_the_point(self, ellipse_grid_65):
        g = ellipse_grid_65
        hist = TestAgainstWholeLatticeReference.history(g)
        inside = np.argwhere(g.kind == int(NodeKind.INTERIOR))[100]
        p = np.array([[g.x_coords[inside[0]], g.y_coords[inside[1]]]])
        expect = moved(FieldDeformation(hist).bind(p)(1.0))
        # the node's neighbour in x is a corner of its bilinear cell, with weight 0
        neighbour = np.flatnonzero(stored_nodes(g.kind) == (inside[0] + 1) * g.ny + inside[1])
        assert len(neighbour) == 1
        hist.fields[:, neighbour] = np.nan
        assert np.array_equal(moved(FieldDeformation(hist).bind(p)(1.0)), expect)


class TestFileBackedProvider:
    """A provider reading its snapshots from an open field file is the
    in-memory provider, bit for bit, without holding the history."""

    @staticmethod
    def history(grid, num_snapshots):
        times = np.linspace(0.0, 4.0, num_snapshots)
        rng = np.random.default_rng(5)
        fields = 0.1 * rng.standard_normal((num_snapshots, len(stored_nodes(grid.kind)), 2))
        return DisplacementHistory(times=times, fields=fields, grid=grid, dt=0.0, num_steps=0)

    def test_equals_in_memory_with_twins_on_threads(self, ellipse_grid_65, tmp_path):
        # four evaluators bound to the same points, each on a thread of its
        # own (more threads than the two view blocks, and than cores), with the
        # interpreter handing the lock over often so that reads interleave;
        # 133 snapshots over 330 views, as the benchmark's scan reads them
        g = ellipse_grid_65
        hist = self.history(g, 133)
        path = str(tmp_path / "f.field")
        formats.write_field(path, hist)
        pts = TestAgainstWholeLatticeReference.raster()
        view_times = np.linspace(-0.1, 4.1, 330)
        expect = [moved(FieldDeformation(hist).bind(pts)(t)) for t in view_times]
        got = [None] * len(view_times)
        with formats.FieldFile(path, g) as field:
            prov = FieldDeformation(field)
            movers = [prov.bind(pts) for _ in range(4)]
            for name in ("xy", "rows", "wts", "snapshot", "gather", "basis"):
                shared = [np.shares_memory(getattr(m, name), getattr(movers[0], name)) for m in movers[1:]]
                assert shared == [name in ("xy", "rows", "wts")] * 3
            blocks = np.array_split(np.arange(len(view_times)), len(movers))
            start = threading.Barrier(len(movers))

            def run(b):
                start.wait(timeout=60)
                for n in blocks[b]:
                    got[n] = moved(movers[b](view_times[n]))

            threads = [threading.Thread(target=run, args=(b,)) for b in range(len(movers))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)

    def test_peak_below_one_history(self, ellipse_grid_65, tmp_path):
        # loading, binding and evaluating at every snapshot holds one
        # snapshot per evaluator, not the (K, n_stored, 2) history: 0.84 MB
        # against the history's 2.96 MB (3.77 MB when the history is read
        # whole and provided from memory)
        g = ellipse_grid_65
        hist = self.history(g, 133)
        history_bytes = hist.fields.nbytes
        path = str(tmp_path / "f.field")
        formats.write_field(path, hist)
        del hist
        c = np.linspace(-1.2, 1.2, 49)
        pts = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)
        tracemalloc.start()
        try:
            with formats.FieldFile(path, g) as field:
                move = FieldDeformation(field).bind(pts)
                for t in field.times:
                    move(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < history_bytes
