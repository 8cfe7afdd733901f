import numpy as np
import pytest

from dynact.domain import RectangleDomain
from dynact.errors import GridError
from dynact.grid import NodeKind, fill_ghost, make_grid
from dynact.phantom import Ellipse


def kinds_count(grid):
    return {k.name: int((grid.kind == int(k)).sum()) for k in NodeKind}


class TestDomains:
    def test_ellipse_inside(self):
        d = Ellipse(center=(0.1, 0.0), semi_axes=(0.5, 0.3), rotation=0.2)
        assert d.inside(np.array([0.1, 0.0]))
        assert not d.inside(np.array([0.9, 0.0]))

    def test_ellipse_crossing_lies_on_boundary(self):
        d = Ellipse(center=(0, 0), semi_axes=(0.6, 0.4), rotation=0.3)
        c = d.crossing_on_segment(np.array([0.0, 0.0]), np.array([1.0, 0.2]))
        assert abs(d.quadratic_form(c) - 1.0) < 1e-12

    def test_closest_point_on_axis(self):
        d = Ellipse(center=(0, 0), semi_axes=(0.5, 0.25))
        p = d.closest_boundary_points(np.array([2.0, 0.0]))
        np.testing.assert_allclose(p, [0.5, 0.0], atol=1e-12)

    def test_closest_point_is_nearest(self):
        d = Ellipse(center=(0.05, -0.1), semi_axes=(0.7, 0.45), rotation=0.4)
        rng = np.random.default_rng(2)
        queries = rng.uniform(-1.5, 1.5, (40, 2))
        proj = d.closest_boundary_points(queries)
        # projected points lie on the boundary and beat a dense sampling
        assert np.max(np.abs(d.quadratic_form(proj) - 1.0)) < 1e-9
        ring = d.boundary_points(3000)
        for q, p in zip(queries, proj):
            dists = np.hypot(ring[:, 0] - q[0], ring[:, 1] - q[1])
            assert np.hypot(*(p - q)) <= dists.min() + 1e-6

    def test_arclength_monotone_and_total(self):
        d = Ellipse(center=(0, 0), semi_axes=(0.75, 0.55))
        phi = np.linspace(0, 2 * np.pi - 1e-9, 100)
        s = d.arclength_of_angle(phi)
        assert np.all(np.diff(s) > 0)
        # Ramanujan approximation of the perimeter
        a, b = 0.75, 0.55
        approx = np.pi * (3 * (a + b) - np.sqrt((3 * a + b) * (a + 3 * b)))
        assert d.perimeter() == pytest.approx(approx, rel=1e-4)

    def test_rectangle_predicates(self):
        r = RectangleDomain(0, 1, 0, 2)
        assert r.inside(np.array([0.5, 1.0]))
        assert not r.inside(np.array([0.0, 1.0]))  # edge is not strict interior
        assert r.on_boundary(np.array([0.0, 1.0]))
        assert r.on_boundary(np.array([1.0, 2.0]))  # corner
        c = r.crossing_on_segment(np.array([0.5, 1.0]), np.array([1.5, 1.0]))
        np.testing.assert_allclose(c, [1.0, 1.0], atol=1e-15)


class TestClassifier:
    def test_aligned_rectangle_has_no_ghosts(self):
        coords = np.linspace(-0.25, 1.25, 13)
        g = make_grid(coords, coords, RectangleDomain(0.0, 1.0, 0.0, 1.0))
        counts = kinds_count(g)
        assert counts["GHOST"] == 0
        assert counts["INTERIOR"] == 49  # 7x7 strictly inside
        # boundary nodes sit exactly on the rectangle
        b = g.boundary_positions()
        on = RectangleDomain(0.0, 1.0, 0.0, 1.0).on_boundary(b)
        assert np.all(on)

    def test_reference_corner_layout(self):
        # disk through (0,0), (2,2), (4,2) with (2,0) inside: the exterior
        # node at (0,2) becomes a ghost whose triple is the diagonal
        # interior node0=(2,0) and boundary neighbors node1=(2,2), node2=(0,0)
        dom = Ellipse(center=(3.0, -1.0), semi_axes=(np.sqrt(10), np.sqrt(10)))
        x = np.array([-2.0, 0.0, 2.0, 4.0, 6.0])
        y = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
        g = make_grid(x, y, dom)
        gh = g.ghosts
        idx = [tuple(ij) for ij in gh.ghost.tolist()].index((1, 3))  # lattice (0, 2)
        np.testing.assert_array_equal(g.pos[tuple(gh.node0[idx])], [2.0, 0.0])
        np.testing.assert_array_equal(g.pos[tuple(gh.node1[idx])], [2.0, 2.0])
        np.testing.assert_array_equal(g.pos[tuple(gh.node2[idx])], [0.0, 0.0])
        assert g.kind[tuple(gh.node0[idx])] == int(NodeKind.INTERIOR)
        assert g.kind[tuple(gh.node1[idx])] == int(NodeKind.BOUNDARY)
        assert g.kind[tuple(gh.node2[idx])] == int(NodeKind.BOUNDARY)

    def test_tie_goes_to_first_crossing_in_edge_order(self):
        # lattice node (1,1) at (0.1, 0.1) has crossings at distance 0.1 on
        # its axis-0 edge, at (0, 0.1), and on its axis-1 edge, at (0.1, 0);
        # the axis-0 edge comes first, and likewise for (3,3) at (0.9, 0.9)
        c = np.array([-0.3, 0.1, 0.5, 0.9, 1.3])
        g = make_grid(c, c, RectangleDomain(0.0, 1.0, 0.0, 1.0))
        np.testing.assert_array_equal(g.pos[1, 1], [0.0, 0.1])
        np.testing.assert_array_equal(g.pos[3, 3], [1.0, 0.9])

    @pytest.mark.parametrize("n, interior, boundary, ghost", [
        (33, 311, 60, 24),
        (65, 1273, 120, 48),
        (81, 1997, 148, 60),
        (129, 5187, 240, 92),
        (257, 20997, 476, 188),
    ])
    def test_thorax_grid_counts(self, thorax_config, n, interior, boundary, ghost):
        coords = np.linspace(-1.0, 1.0, n)
        counts = kinds_count(make_grid(coords, coords, thorax_config.phantom.require_labeled("body")))
        assert (counts["INTERIOR"], counts["BOUNDARY"], counts["GHOST"]) == (interior, boundary, ghost)

    def test_ellipse_stencils_closed(self, ellipse_grid_65):
        g = ellipse_grid_65
        ii, jj = np.nonzero(g.kind == int(NodeKind.INTERIOR))
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                assert not np.any(g.kind[ii + di, jj + dj] == int(NodeKind.EXTERIOR))

    def test_boundary_nodes_on_continuous_boundary(self, ellipse_grid_65):
        g = ellipse_grid_65
        q = g.domain.quadratic_form(g.boundary_positions())
        assert np.max(np.abs(q - 1.0)) < 1e-12

    def test_snapped_spacing_at_least_half_nominal(self, ellipse_grid_65):
        dx, dy = ellipse_grid_65.min_spacings()
        h = 2.0 / 64
        assert dx >= 0.5 * h - 1e-12
        assert dy >= 0.5 * h - 1e-12

    def test_ghost_triples_wellformed(self, ellipse_grid_65):
        g = ellipse_grid_65
        gh = g.ghosts
        assert len(gh) > 0
        assert np.all(g.kind[gh.node0[:, 0], gh.node0[:, 1]] == int(NodeKind.INTERIOR))
        assert np.all(g.kind[gh.node1[:, 0], gh.node1[:, 1]] == int(NodeKind.BOUNDARY))
        assert np.all(g.kind[gh.node2[:, 0], gh.node2[:, 1]] == int(NodeKind.BOUNDARY))
        # node1 shares the ghost row, node2 the ghost column
        np.testing.assert_array_equal(gh.node1[:, 1], gh.ghost[:, 1])
        np.testing.assert_array_equal(gh.node2[:, 0], gh.ghost[:, 0])

    def test_domain_without_interior_nodes_raises(self):
        dom = Ellipse(center=(0.26, 0.26), semi_axes=(0.2, 0.2))
        coords = np.linspace(-1, 1, 3)  # nodes at -1, 0, 1 all outside
        with pytest.raises(GridError):
            make_grid(coords, coords, dom)

    def test_domain_touching_grid_edge_raises(self):
        dom = RectangleDomain(-1.5, 1.5, -1.5, 1.5)
        coords = np.linspace(-1, 1, 17)
        with pytest.raises(GridError):
            make_grid(coords, coords, dom)


class TestFillGhost:
    def test_constant_field(self, ellipse_grid_65):
        g = ellipse_grid_65
        f = np.full(g.shape + (2,), 3.7)
        gi = g.ghosts.ghost
        f[gi[:, 0], gi[:, 1]] = -1.0
        fill_ghost(g, f)
        np.testing.assert_allclose(f[gi[:, 0], gi[:, 1]], 3.7, rtol=0, atol=1e-12)

    def test_reference_patch_linear_field(self):
        # h(x,y) = x + 2y on node0=(2,0), node1=(2,2), node2=(0,0):
        # h0=2, h_aux=3, ghost at (0,2) extrapolates to exactly 4
        dom = Ellipse(center=(3.0, -1.0), semi_axes=(np.sqrt(10), np.sqrt(10)))
        x = np.array([-2.0, 0.0, 2.0, 4.0, 6.0])
        y = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
        g = make_grid(x, y, dom)
        f = np.zeros(g.shape + (2,))
        X, Y = g.pos[..., 0], g.pos[..., 1]
        f[..., 0] = X + 2 * Y
        f[..., 1] = X + 2 * Y
        f[1, 3] = 999.0
        fill_ghost(g, f)
        np.testing.assert_allclose(f[1, 3], [4.0, 4.0], rtol=0, atol=1e-12)

    def test_affine_fields_exact_on_collinear_patches(self):
        # curved-boundary patch with lattice-aligned crossings: all four
        # ghost orientations appear and the node0->aux->ghost line premise
        # of the extrapolation holds, so affine fields reproduce exactly
        for scale in (1.0, 0.5, 0.25):
            dom = Ellipse(center=(3.0 * scale, -1.0 * scale),
                                semi_axes=(np.sqrt(10) * scale, np.sqrt(10) * scale))
            x = scale * np.array([-2.0, 0.0, 2.0, 4.0, 6.0])
            y = scale * np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
            g = make_grid(x, y, dom)
            assert len(g.ghosts) == 4
            X, Y = g.pos[..., 0], g.pos[..., 1]
            f = np.stack([1.5 * X - 0.7 * Y + 0.2, -0.3 * X + 2.1 * Y - 1.0], axis=-1)
            expect = f.copy()
            gi = g.ghosts.ghost
            f[gi[:, 0], gi[:, 1]] = 0.0
            fill_ghost(g, f)
            err = np.abs(f[gi[:, 0], gi[:, 1]] - expect[gi[:, 0], gi[:, 1]]).max()
            assert err < 1e-12

    def test_quadratic_second_order_on_patch_family(self):
        # same curved patch scaled down by 2x per level: quadratic-field
        # ghost error drops ~4x per refinement
        errs = []
        for scale in (1.0, 0.5, 0.25):
            dom = Ellipse(center=(3.0 * scale, -1.0 * scale),
                                semi_axes=(np.sqrt(10) * scale, np.sqrt(10) * scale))
            x = scale * np.array([-2.0, 0.0, 2.0, 4.0, 6.0])
            y = scale * np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
            g = make_grid(x, y, dom)
            X, Y = g.pos[..., 0], g.pos[..., 1]
            h = X**2 + Y**2
            f = np.stack([h, h], axis=-1)
            expect = f.copy()
            gi = g.ghosts.ghost
            f[gi[:, 0], gi[:, 1]] = 0.0
            fill_ghost(g, f)
            errs.append(np.abs(f[gi[:, 0], gi[:, 1]] - expect[gi[:, 0], gi[:, 1]]).max())
        assert errs[0] / errs[1] > 3.6
        assert errs[1] / errs[2] > 3.6

    def test_affine_first_order_on_snapped_grid(self):
        # on generically snapped boundaries the midpoint aux leaves the
        # node0->ghost line; affine ghost error is O(h) (regression bound)
        dom = Ellipse(center=(0, 0), semi_axes=(0.75, 0.55))
        errs = []
        for n in (65, 129):
            coords = np.linspace(-1, 1, n)
            g = make_grid(coords, coords, dom)
            X, Y = g.pos[..., 0], g.pos[..., 1]
            f = np.stack([1.5 * X - 0.7 * Y + 0.2, -0.3 * X + 2.1 * Y - 1.0], axis=-1)
            expect = f.copy()
            gi = g.ghosts.ghost
            f[gi[:, 0], gi[:, 1]] = 0.0
            fill_ghost(g, f)
            errs.append(np.abs(f[gi[:, 0], gi[:, 1]] - expect[gi[:, 0], gi[:, 1]]).max())
        assert errs[0] < 0.08
        assert errs[1] < 0.8 * errs[0]
