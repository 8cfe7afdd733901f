import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dynact import elastic
from dynact.boundary import BoundaryData, boundary_angles, perturb, sample_boundary
from dynact.config import default_config
from dynact.elastic import (
    RELATIVE_TOLERANCE,
    InitialData,
    MaterialParams,
    NavierOperator,
    QuasiStaticSolver,
    cfl_dt,
    solve,
)
from dynact.errors import ConfigError, InstabilityError
from dynact.grid import NodeKind, fill_ghost, make_grid, stored_nodes
from dynact.phantom import Ellipse
from dynact.pipeline import boundary_data_for_mode, solve_motion, solver_grid

from oracles import RectangleDomain


def unit_params(grid, lam=1.0, mu=1.0, rho=1.0, forcing=None):
    return MaterialParams(lame_lambda=lam, lame_mu=mu, rho0=np.full(grid.shape, rho), forcing=forcing)


def stored_rows(grid, mask):
    """The rows of a history's fields (``grid.stored_nodes`` order) at
    the stored nodes of the lattice ``mask``."""
    return mask.ravel()[stored_nodes(grid.kind)]


class TestCfl:
    def test_unit_values(self):
        coords = np.arange(-2.0, 8.0)
        g = make_grid(coords, coords, RectangleDomain(0.0, 5.0, 0.0, 5.0))
        p = MaterialParams(lame_lambda=0.2, lame_mu=0.4, rho0=np.ones(g.shape))
        assert cfl_dt(p, g, safety=1.0) == pytest.approx(0.5, abs=1e-15)

    def test_reported_material_values(self):
        # lambda=3.46 kPa, mu=1.48 kPa, rho=1050, dx=dy=2/256:
        # dt = 1/(sqrt(6420/1050)*256) = 1.5797457e-3 by direct arithmetic
        import math

        coords = np.arange(-0.75, 0.75 + 1e-12, 2.0 / 256)
        g = make_grid(coords, coords, RectangleDomain(-0.5, 0.5, -0.5, 0.5))
        p = MaterialParams(lame_lambda=3460.0, lame_mu=1480.0, rho0=np.full(g.shape, 1050.0))
        dt = cfl_dt(p, g, safety=1.0)
        by_hand = 1.0 / (math.sqrt((3460.0 + 2 * 1480.0) / 1050.0) * 256.0)
        assert dt == pytest.approx(by_hand, abs=1e-12)

    def test_halving_dx(self):
        nu = np.sqrt(3.0)
        for h in (0.1, 0.05):
            coords = np.arange(-3 * h, 1 + 3.5 * h, h)
            g = make_grid(coords, coords, RectangleDomain(0.0, 1.0, 0.0, 1.0))
            p = unit_params(g)
            assert cfl_dt(p, g, 1.0) == pytest.approx(1.0 / (nu * 2.0 / h), rel=1e-12)

    def test_nonpositive_rho_rejected(self, unit_square_grid):
        p = MaterialParams(lame_lambda=1.0, lame_mu=1.0, rho0=np.zeros(unit_square_grid.shape))
        with pytest.raises(ConfigError):
            cfl_dt(p, unit_square_grid, 0.9)

    def test_bad_safety_rejected(self, unit_square_grid):
        with pytest.raises(ConfigError):
            cfl_dt(unit_params(unit_square_grid), unit_square_grid, 0.0)


def _nine_node_reference(g, lam, mu, u):
    """L u at the interior nodes by the module docstring's formula, read
    node by node off the full field u (ghosts filled), in the operator's
    row order: component 1 at every interior node, then component 2."""
    rows = ([], [])
    P = g.pos
    for i, j in zip(*np.nonzero(g.kind == int(NodeKind.INTERIOR))):
        hxr, hxl = P[i + 1, j, 0] - P[i, j, 0], P[i, j, 0] - P[i - 1, j, 0]
        hyu, hyd = P[i, j + 1, 1] - P[i, j, 1], P[i, j, 1] - P[i, j - 1, 1]
        dx2, dy2 = hxr**2 + hxl**2, hyu**2 + hyd**2
        wxp, wxm = 1 - (hxr - hxl) / (hxr + hxl), 1 + (hxr - hxl) / (hxr + hxl)
        wyp, wym = 1 - (hyu - hyd) / (hyu + hyd), 1 + (hyu - hyd) / (hyu + hyd)
        mixed = (lam + mu) / ((hxr + hxl) * (hyu + hyd))
        for k in (0, 1):
            a, b = (lam + 2 * mu, mu) if k == 0 else (mu, lam + 2 * mu)  # moduli along x, y
            uk, uo = u[..., k], u[..., 1 - k]
            rows[k].append(
                2 * a / dx2 * (wxp * uk[i + 1, j] + wxm * uk[i - 1, j] - 2 * uk[i, j])
                + 2 * b / dy2 * (wyp * uk[i, j + 1] + wym * uk[i, j - 1] - 2 * uk[i, j])
                + mixed * (uo[i + 1, j + 1] - uo[i - 1, j + 1] - uo[i + 1, j - 1] + uo[i - 1, j - 1])
            )
    return np.array(rows[0] + rows[1])


@pytest.mark.parametrize("grid_name, has_ghosts", [("unit_square_grid", False), ("ellipse_grid_65", True)])
def test_operator_matches_nine_node_formula(grid_name, has_ghosts, request):
    # the assembled operator, ghost closure folded in, against the formula
    # applied to a field whose ghosts come from grid.fill_ghost
    g = request.getfixturevalue(grid_name)
    assert (len(g.ghosts) > 0) == has_ghosts
    lam, mu = 1.3, 0.7
    op = NavierOperator(g, lam, mu)
    rng = np.random.default_rng(5)
    interior = g.kind == int(NodeKind.INTERIOR)
    u = np.zeros(g.shape + (2,))
    u[interior] = rng.standard_normal((interior.sum(), 2))
    b = g.boundary_ij
    psi = rng.standard_normal((len(b), 2))
    u[b[:, 0], b[:, 1]] = psi
    ref = _nine_node_reference(g, lam, mu, fill_ghost(g, u))
    got = op.apply(u[interior].T.ravel(), psi)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestStepProperties:
    def test_quiescence(self, unit_square_grid):
        g = unit_square_grid
        nb = len(g.boundary_ij)
        hist = solve(g, unit_params(g), None, lambda t: np.zeros((nb, 2)), t_end=1.0, output_times=[0.3, 1.0])
        assert np.abs(hist.fields).max() == 0.0

    def test_constant_state_is_fixed_point(self, unit_square_grid):
        g = unit_square_grid
        c = np.array([0.7, -0.3])
        nb = len(g.boundary_ij)
        init = InitialData(np.tile(c, g.shape + (1,)), np.zeros(g.shape + (2,)))
        hist = solve(g, unit_params(g), init, lambda t: np.tile(c, (nb, 1)), t_end=1.0, output_times=[1.0])
        # the stored rows are the non-exterior nodes
        assert np.abs(hist.fields[0] - c).max() < 1e-13

    def test_first_step_velocity_only(self, unit_square_grid):
        g = unit_square_grid
        p = unit_params(g)
        dt = cfl_dt(p, g, 0.9)
        nb = len(g.boundary_ij)
        init = InitialData(np.zeros(g.shape + (2,)), np.tile([0.5, 0.0], g.shape + (1,)))
        hist = solve(g, p, init, lambda t: np.zeros((nb, 2)), t_end=dt, output_times=[dt])
        assert hist.num_steps == 1
        rows = hist.fields[0][stored_rows(g, g.mask(NodeKind.INTERIOR))]
        np.testing.assert_array_equal(rows, np.tile([dt * 0.5, 0.0], (len(rows), 1)))

    def test_first_step_mirror_symmetry(self, unit_square_grid):
        # theta1 = 0: u^{-1} = u^1, so the first update
        # u^1 = 2 u^0 - u^{-1} + dt^2/rho L u^0 gives u^1 = u^0 + dt^2/(2 rho) L u^0
        g = unit_square_grid
        p = unit_params(g)
        dt = cfl_dt(p, g, 0.9)
        nb = len(g.boundary_ij)
        rng = np.random.default_rng(0)
        theta0 = np.zeros(g.shape + (2,))
        interior = g.kind == int(NodeKind.INTERIOR)
        theta0[interior] = 0.01 * rng.standard_normal((interior.sum(), 2))
        init = InitialData(theta0, np.zeros(g.shape + (2,)))
        hist = solve(g, p, init, lambda t: np.zeros((nb, 2)), t_end=dt, output_times=[dt])
        op = NavierOperator(g, 1.0, 1.0)
        x0 = op.interior(theta0)
        x1 = hist.fields[0].reshape(-1)[op.slots]
        np.testing.assert_allclose(x1, x0 + dt * dt / 2.0 * op.apply(x0, np.zeros((nb, 2))), rtol=0, atol=1e-16)

    def test_spatially_constant_quadratic_exact(self, unit_square_grid):
        g = unit_square_grid
        a_c, b_c = 0.3, -0.2
        rho = 2.0
        p = MaterialParams(
            lame_lambda=1.3,
            lame_mu=0.7,
            rho0=np.full(g.shape, rho),
            forcing=lambda t: np.tile([2 * rho * a_c, 2 * rho * b_c], g.shape + (1,)),
        )
        nb = len(g.boundary_ij)
        hist = solve(
            g,
            p,
            None,
            lambda t: np.tile([a_c * t * t, b_c * t * t], (nb, 1)),
            t_end=0.8,
            output_times=[0.4, 0.8],
        )
        for k, t in enumerate(hist.times):
            exact = np.array([a_c * t * t, b_c * t * t])
            assert np.abs(hist.fields[k] - exact).max() < 1e-10

    def test_boundary_values_exact_at_snapshots(self, unit_square_grid):
        g = unit_square_grid
        nb = len(g.boundary_ij)
        psi = lambda t: np.tile([0.01 * np.sin(t), 0.02 * t], (nb, 1))
        hist = solve(g, unit_params(g), None, psi, t_end=1.0, output_times=[0.5, 1.0])
        b = stored_rows(g, g.mask(NodeKind.BOUNDARY))
        for k, t in enumerate(hist.times):
            np.testing.assert_array_equal(hist.fields[k][b], psi(t))

    def test_output_times_map_to_nearest_completed_step(self, unit_square_grid):
        # 31 steps of dt = 1/31 to t_end = 1: 0.3 and 0.3 + 1e-9 fall on
        # step 9, 2.0 is clamped to t_end and -1.0 to t = 0, at rest
        g = unit_square_grid
        nb = len(g.boundary_ij)
        psi = lambda t: np.tile([0.01 * np.sin(t), 0.02 * t], (nb, 1))
        hist = solve(g, unit_params(g), None, psi, t_end=1.0, output_times=[0.3, 0.3 + 1e-9, 1.0, 2.0, -1.0])
        assert hist.num_steps == 31 and hist.dt == 1.0 / 31
        np.testing.assert_array_equal(hist.times, [9 * hist.dt, 9 * hist.dt, 1.0, 1.0, 0.0])
        assert np.abs(hist.fields[0]).max() > 0.0
        np.testing.assert_array_equal(hist.fields[1], hist.fields[0])
        np.testing.assert_array_equal(hist.fields[3], hist.fields[2])
        assert np.abs(hist.fields[4]).max() == 0.0

    def test_determinism(self, unit_square_grid):
        g = unit_square_grid
        nb = len(g.boundary_ij)
        psi = lambda t: np.tile([0.01 * np.sin(t), 0.0], (nb, 1))
        h1 = solve(g, unit_params(g), None, psi, t_end=1.0, output_times=[1.0])
        h2 = solve(g, unit_params(g), None, psi, t_end=1.0, output_times=[1.0])
        assert np.array_equal(h1.fields, h2.fields)

    def test_instability_reported(self, unit_square_grid, monkeypatch):
        # ten times the CFL bound; an initial velocity turns the growth
        # guard off, so the non-finite check is what stops the run
        g = unit_square_grid
        p = unit_params(g)
        monkeypatch.setattr(elastic, "cfl_dt", lambda params, grid, safety=0.9: 10.0 * cfl_dt(params, grid, 1.0))
        dt = 10.0 * cfl_dt(p, g, 1.0)
        nb = len(g.boundary_ij)
        init = InitialData(np.zeros(g.shape + (2,)), np.tile([0.5, 0.0], g.shape + (1,)))
        with pytest.raises(InstabilityError, match="non-finite") as exc_info:
            solve(g, p, init, lambda t: np.zeros((nb, 2)), t_end=500 * dt, output_times=[500 * dt])
        assert exc_info.value.step is not None
        assert exc_info.value.node is not None


def _mms_rectangle_error(n: int, t_end: float = 0.5) -> float:
    """Max-norm error of the sine-product manufactured solution at t_end."""
    lam, mu, rho = 1.3, 0.9, 1.0
    h = 1.0 / n
    coords = np.arange(-3 * h, 1.0 + 3.5 * h, h)
    g = make_grid(coords, coords, RectangleDomain(0.0, 1.0, 0.0, 1.0))
    X, Y = g.pos[..., 0], g.pos[..., 1]
    S = np.sin(np.pi * X) * np.sin(np.pi * Y)
    CC = np.cos(np.pi * X) * np.cos(np.pi * Y)
    k_coef = -rho + 2 * mu * np.pi**2 + (lam + mu) * np.pi**2
    cc_coef = (lam + mu) * np.pi**2

    def forcing(t):
        v = np.empty(g.shape + (2,))
        v[..., 0] = k_coef * S * np.sin(t) - cc_coef * CC * np.cos(t)
        v[..., 1] = k_coef * S * np.cos(t) - cc_coef * CC * np.sin(t)
        return v

    params = MaterialParams(lame_lambda=lam, lame_mu=mu, rho0=np.full(g.shape, rho), forcing=forcing)
    theta0 = np.zeros(g.shape + (2,))
    theta0[..., 1] = S
    theta1 = np.zeros(g.shape + (2,))
    theta1[..., 0] = S
    nb = len(g.boundary_ij)
    hist = solve(g, params, InitialData(theta0, theta1), lambda t: np.zeros((nb, 2)), t_end, [t_end])
    t = hist.times[0]
    exact = np.stack([S * np.sin(t), S * np.cos(t)], axis=-1)
    active = (g.kind == int(NodeKind.INTERIOR)) | (g.kind == int(NodeKind.BOUNDARY))
    return float(np.abs(hist.fields[0][stored_rows(g, active)] - exact[active]).max())


@pytest.mark.slow
def test_mms_convergence_second_order():
    errs = [_mms_rectangle_error(n) for n in (64, 128, 256)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, f"errors {errs}, orders {orders}"


def _thorax(n: int):
    cfg = default_config()
    cfg.solver.grid_nx = cfg.solver.grid_ny = n
    return cfg


# the grids the preconditioner tests run on: thorax solver grids by size,
# and two fixtures by name
SOLVER_GRIDS = [33, 65, 129, "unit_square_grid", "ellipse_grid_65"]


def _solver_case(case, request):
    """(grid, lambda, mu) of one of SOLVER_GRIDS: a thorax grid with the
    shipped material, or a fixture grid with unit moduli."""
    if isinstance(case, int):
        cfg = _thorax(case)
        return solver_grid(cfg), cfg.material.lame_lambda, cfg.material.lame_mu
    return request.getfixturevalue(case), 1.0, 1.0


def _count_solves(monkeypatch) -> tuple[list[int], list[int]]:
    """The step counts of every later ``elastic._refine`` call (one per
    snapshot, in call order), and a list that grows by one per
    ``_NavierInverse`` apply: one per pivot snapshot plus one per step."""
    steps, applies = [], []
    refine, apply = elastic._refine, elastic._NavierInverse.__call__

    def counting(*args):
        steps.append(refine(*args))
        return steps[-1]

    monkeypatch.setattr(elastic, "_refine", counting)
    monkeypatch.setattr(elastic._NavierInverse, "__call__", lambda self, r: applies.append(1) or apply(self, r))
    return steps, applies


def _raw_noisy_data(cfg, grid) -> BoundaryData:
    """Noisy mode's perturbed samples, blended to the snapshot times as
    they are, without the low-pass: full rank in time."""
    samples = np.linspace(0.0, cfg.scan.t_end, cfg.boundary.num_sample_times)
    bd = perturb(sample_boundary(cfg.motion, grid, samples), replace(cfg.boundary.spec, mode="noisy"))
    return bd.at_times(np.linspace(0.0, cfg.scan.t_end, cfg.solver.num_snapshots))


def _angle_modes(values, theta) -> int:
    """The smallest M for which Fourier modes 0..M of the angles ``theta``
    fit every (K, B, 2) boundary snapshot to round-off."""
    y = np.transpose(values, (1, 0, 2)).reshape(len(theta), -1)
    for m in range(len(theta) // 2):
        basis = np.stack([np.ones_like(theta)] + [f(k * theta) for k in range(1, m + 1) for f in (np.cos, np.sin)], axis=1)
        fit = basis @ np.linalg.lstsq(basis, y, rcond=None)[0]
        if np.abs(fit - y).max() <= 1e-12 * np.abs(y).max():
            return m
    raise AssertionError("no low mode count fits the data")


def _relative_residuals(cfg, hist) -> np.ndarray:
    """|L u(t_k)| / |L_b psi(t_k)| per snapshot with a non-zero right-hand side."""
    op = NavierOperator(hist.grid, cfg.material.lame_lambda, cfg.material.lame_mu)
    b = stored_rows(hist.grid, hist.grid.mask(NodeKind.BOUNDARY))
    out = []
    for rows in hist.fields:
        psi = rows[b]
        rhs = np.linalg.norm(op.apply(np.zeros(len(op.cols)), psi))
        if rhs > 0:
            out.append(np.linalg.norm(op.apply(rows.reshape(-1)[op.slots], psi)) / rhs)
    return np.array(out)


@pytest.mark.parametrize("rank", [0, 2, 30])
def test_pivoted_basis_interpolates_the_rows(rank):
    # P[k] = A[:, k] @ P[J] for every row of a rank-r (45, 30) matrix, and
    # the r pivots reproduce themselves; a zero matrix has no pivot
    rng = np.random.default_rng(rank)
    P = rng.standard_normal((45, rank)) @ rng.standard_normal((rank, 30))
    J, A = elastic._pivoted_basis(P.copy())
    assert len(J) == rank and A.shape == (rank, len(P))
    assert np.abs(np.einsum("ik,ij->kj", A, P[J]) - P).max() <= 1e-12 * np.abs(P).max()
    np.testing.assert_allclose(A[:, J], np.eye(rank), rtol=0, atol=1e-12)


@pytest.mark.parametrize("method", ["quasi-static", "explicit"])
def test_history_has_interior_and_boundary_rows_only(method, ellipse_grid_65):
    # both solvers write a snapshot as its interior and boundary values,
    # one row per node of grid.stored_nodes; no ghost value is stored
    g = ellipse_grid_65
    nb = len(g.boundary_ij)
    psi = lambda t: np.tile([0.01 * t, -0.02 * t], (nb, 1))
    if method == "explicit":
        hist = solve(g, unit_params(g), None, psi, t_end=0.1, output_times=[0.05, 0.1])
    else:
        hist = QuasiStaticSolver(g, unit_params(g)).solve(np.stack([psi(0.05), psi(0.1)]), output_times=[0.05, 0.1])
    stored = (g.kind == int(NodeKind.INTERIOR)) | (g.kind == int(NodeKind.BOUNDARY))
    assert hist.fields.shape == (2, np.count_nonzero(stored), 2)
    b = stored_rows(g, g.mask(NodeKind.BOUNDARY))
    np.testing.assert_array_equal(hist.fields[1][b], psi(hist.times[1]))


def test_explicit_solve_peak_below_one_lattice_history(ellipse_grid_65):
    # the explicit solve writes each snapshot into its stored rows, a third
    # of the lattice on this grid: its peak allocation over K = 80 snapshots
    # (measured 2.8 MB; 45 steps, so some snapshots share a step) stays
    # below one (K, nx, ny, 2) history (5.4 MB), which the lattice form
    # allocated on top of the rest
    g = ellipse_grid_65
    nb = len(g.boundary_ij)
    params = unit_params(g)
    psi = lambda t: np.tile([0.01 * t, -0.02 * t], (nb, 1))
    times = np.linspace(0.0, 0.2, 80)
    tracemalloc.start()
    try:
        hist = solve(g, params, None, psi, t_end=0.2, output_times=times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hist.times) == len(times)
    assert peak < len(times) * g.nx * g.ny * 16


class TestQuasiStatic:
    def test_zero_data_gives_zero_field(self, ellipse_grid_65):
        g = ellipse_grid_65
        nb = len(g.boundary_ij)
        hist = QuasiStaticSolver(g, unit_params(g)).solve(np.zeros((2, nb, 2)), output_times=[0.0, 1.0])
        assert np.abs(hist.fields).max() == 0.0
        assert hist.num_steps == 2 and hist.dt == 0.0

    def test_equilibrium_is_fixed_point_of_explicit_step(self, ellipse_grid_65):
        # both solvers share one stencil and one ghost closure: the
        # equilibrium for fixed boundary data is a rest state of the
        # explicit update u(n+1) = 2u(n) - u(n-1) + dt^2/rho L u(n)
        g = ellipse_grid_65
        pos = g.boundary_positions()
        psi = np.stack([0.05 * pos[:, 0] * pos[:, 1], 0.02 * pos[:, 0] ** 2 - 0.03 * pos[:, 1] ** 2], axis=-1)
        p = unit_params(g, lam=3460.0, mu=1480.0, rho=1050.0)
        hist = QuasiStaticSolver(g, p).solve(psi[None], output_times=[1.0])
        u = hist.fields[0]
        dt = cfl_dt(p, g, 0.9)
        # the equilibrium on the lattice as the initial displacement, at rest
        theta0 = np.zeros(g.shape + (2,))
        theta0.reshape(-1, 2)[stored_nodes(g.kind)] = u
        init = InitialData(theta0, np.zeros(g.shape + (2,)))
        # the stored rows after one step
        u_next = solve(g, p, init, lambda t: psi, t_end=dt, output_times=[dt]).fields[0]
        op = NavierOperator(g, 3460.0, 1480.0)
        x = u.reshape(-1)[op.slots]
        assert np.abs(x).max() > 1e-3
        # the first step moves u by dt^2/(2 rho) * (L u), and the solve leaves
        # |L u| below the relative tolerance times the norm of its right-hand side
        rhs_norm = np.linalg.norm(op.apply(np.zeros_like(x), psi))
        np.testing.assert_allclose(u_next, u, rtol=0, atol=dt * dt / 1050.0 * RELATIVE_TOLERANCE * rhs_norm)

    def test_boundary_values_exact_and_deterministic(self, ellipse_grid_65):
        g = ellipse_grid_65
        nb = len(g.boundary_ij)
        psi = lambda t: np.tile([0.01 * np.sin(t), 0.02 * t], (nb, 1))
        runs = [QuasiStaticSolver(g, unit_params(g)).solve(np.stack([psi(0.5), psi(1.0)]), output_times=[0.5, 1.0]) for _ in range(2)]
        assert np.array_equal(runs[0].fields, runs[1].fields)
        b = stored_rows(g, g.mask(NodeKind.BOUNDARY))
        for k, t in enumerate(runs[0].times):
            np.testing.assert_array_equal(runs[0].fields[k][b], psi(t))

    def test_boundary_values_of_another_shape_rejected(self, ellipse_grid_65):
        # one (B, 2) row of boundary values per output time
        g = ellipse_grid_65
        nb = len(g.boundary_ij)
        solver = QuasiStaticSolver(g, unit_params(g))
        for shape in ((1, nb, 2), (2, nb - 1, 2), (2, nb)):
            with pytest.raises(ConfigError, match="boundary values"):
                solver.solve(np.zeros(shape), output_times=[0.0, 1.0])

    def test_no_convergence_raises(self, ellipse_grid_65, monkeypatch):
        # an inverse that maps everything to zero leaves the pivot's
        # solution and every refinement step at zero: the residual stalls
        # at the right-hand side until MAX_ITERATIONS
        monkeypatch.setattr(elastic._NavierInverse, "__call__", lambda self, r: np.zeros_like(r))
        g = ellipse_grid_65
        pos = g.boundary_positions()
        psi = np.stack([pos[:, 0] * pos[:, 1], pos[:, 0] ** 2], axis=-1)
        with pytest.raises(InstabilityError, match=f"converge in {elastic.MAX_ITERATIONS} refinement steps"):
            QuasiStaticSolver(g, unit_params(g)).solve(psi[None], output_times=[1.0])

    def test_diverging_refinement_raises(self, ellipse_grid_65, monkeypatch):
        # a sign-flipped inverse doubles the error at every refinement step:
        # the solve raises instead of returning the field
        apply = elastic._NavierInverse.__call__
        monkeypatch.setattr(elastic._NavierInverse, "__call__", lambda self, r: -apply(self, r))
        g = ellipse_grid_65
        pos = g.boundary_positions()
        psi = np.stack([pos[:, 0] * pos[:, 1], pos[:, 0] ** 2], axis=-1)
        with pytest.raises(InstabilityError, match="converge"):
            QuasiStaticSolver(g, unit_params(g)).solve(psi[None], output_times=[1.0])

    @pytest.mark.parametrize("mode", ["exact", "noisy", "sparse"])
    def test_thorax_snapshots_meet_tolerance(self, mode, monkeypatch):
        """Every snapshot of every mode on the 65^2 thorax grid meets the
        residual tolerance against its own right-hand side. For exact and
        sparse data the snapshot boundary vectors span two directions:
        the inverse is applied to two pivot snapshots only, and each other
        snapshot's combination of their fields passes its check without a
        refinement step.

        With exact data the interior field is the affine motion
        phi(t, x) - x up to the stencil's own consistency error. That
        error is not zero: boundary nodes snapped off a stencil axis (an
        E/W neighbour moved in y, a diagonal one moved in either
        coordinate) make L of an affine field non-zero next to the
        boundary. It measures 3.9e-4 at 65^2 and 2.0e-4 at 129^2 against
        a boundary amplitude of 0.13, independent of the solver tolerance.
        """
        cfg = _thorax(65)
        steps, applies = _count_solves(monkeypatch)
        hist = solve_motion(cfg, mode)
        assert _relative_residuals(cfg, hist).max() <= RELATIVE_TOLERANCE
        assert len(steps) == len(hist.times) == 133
        if mode != "noisy":
            assert len(applies) == 2 and max(steps) == 0
        if mode == "exact":
            g = hist.grid
            interior = g.kind == int(NodeKind.INTERIOR)
            exact = np.stack([cfg.motion.phi(t, g.pos[interior]) - g.pos[interior] for t in hist.times])
            assert np.abs(hist.fields[:, stored_rows(g, interior)] - exact).max() < 1e-3

    def test_nonuniform_lattice_rejected(self):
        # the preconditioner corrects only the rows that read a boundary
        # value: every other row is the uniform stencil on a uniform lattice
        # only
        coords = np.concatenate([np.linspace(-1.0, 0.0, 17), np.linspace(0.0, 1.0, 33)[1:]])
        g = make_grid(coords, coords, Ellipse(center=(0.0, 0.0), semi_axes=(0.75, 0.55)))
        with pytest.raises(ConfigError, match="uniformly spaced"):
            QuasiStaticSolver(g, unit_params(g))

    @pytest.mark.parametrize("case", SOLVER_GRIDS)
    def test_preconditioner_is_exact(self, case, request):
        # the FFT box inverse with its capacitance correction inverts the
        # operator with psi = 0 up to round-off
        g, lam, mu = _solver_case(case, request)
        op = NavierOperator(g, lam, mu)
        precond = elastic._NavierInverse(op, lam, mu)
        rng = np.random.default_rng(len(op.cols))
        zero = np.zeros((len(op.boundary_ij), 2))
        for _ in range(3):
            b = rng.standard_normal(len(op.cols))
            assert np.linalg.norm(op.apply(precond(b), zero) - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("case", SOLVER_GRIDS)
    def test_rows_off_the_edge_are_the_uniform_stencil(self, case, request):
        # the capacitance correction covers op.edge only: every other row
        # reads its 9 lattice neighbours' interior unknowns, in _OFFSETS
        # order, with the weights of the uniform stencil at the nominal
        # spacings, and nothing in its extra slots
        g, lam, mu = _solver_case(case, request)
        op = NavierOperator(g, lam, mu)
        ii, jj = op.int_ij
        n = len(ii)
        unknown = np.full(g.shape, -1)
        unknown[ii, jj] = np.arange(n)
        hx = (g.x_coords[-1] - g.x_coords[0]) / (g.nx - 1)
        hy = (g.y_coords[-1] - g.y_coords[0]) / (g.ny - 1)
        nominal = elastic._weights(lam, mu, hx, hx, hy, hy)
        rest = np.setdiff1d(np.arange(2 * n), op.edge)
        assert len(op.edge) > 0 and len(rest) > 0
        comp, node = np.divmod(rest, n)
        for s, (dx, dy, shift) in enumerate(elastic._OFFSETS):
            neighbour = unknown[ii[node] + dx, jj[node] + dy]
            assert np.all(neighbour >= 0)
            assert np.array_equal(op.cols[rest, s], (comp + shift) % 2 * n + neighbour)
            assert np.abs(op.vals[rest, s] - nominal[s][comp]).max() <= 1e-12 * abs(nominal[0][0])
        assert not op.vals[rest, len(elastic._OFFSETS) :].any()

    def test_slightly_uneven_lattice_corrects_only_the_edge(self, ellipse_grid_65, monkeypatch):
        # the 65^2 ellipse lattice moved by up to 4e-10 h passes the
        # uniformity check: the capacitance rows stay the rows that read a
        # boundary value (a classifier that compared every row's weights
        # with the uniform stencil took 2355 of them here), and the near-
        # exact inverse still meets the tolerance without refinement
        coords = ellipse_grid_65.x_coords
        h = coords[1] - coords[0]
        rng = np.random.default_rng(25)
        x, y = (coords + 4e-10 * h * rng.uniform(-1.0, 1.0, len(coords)) for _ in range(2))
        g = make_grid(x, y, Ellipse(center=(0.0, 0.0), semi_axes=(0.75, 0.55)))
        solver = QuasiStaticSolver(g, unit_params(g))
        reads_psi = np.flatnonzero((solver.op.cols >= len(solver.op.cols)).any(axis=1))
        assert np.array_equal(solver.precond.edge, reads_psi)
        assert len(reads_psi) == len(NavierOperator(ellipse_grid_65, 1.0, 1.0).edge)
        # an affine motion's boundary displacements at three times
        pos = g.boundary_positions()
        psi = np.stack([a * (pos @ np.array([[0.1, -0.03], [0.05, 0.08]])) for a in (0.5, 1.0, -0.7)])
        steps, _ = _count_solves(monkeypatch)
        hist = solver.solve(psi, output_times=[0.0, 1.0, 2.0])
        assert steps == [0, 0, 0]
        op, b = solver.op, stored_rows(g, g.mask(NodeKind.BOUNDARY))
        for rows in hist.fields:
            rhs = np.linalg.norm(op.apply(np.zeros(len(op.cols)), rows[b]))
            assert np.linalg.norm(op.apply(rows.reshape(-1)[op.slots], rows[b])) <= RELATIVE_TOLERANCE * rhs

    @pytest.mark.parametrize("block", [512, elastic.APPLY_ROWS])
    def test_blocked_apply_matches_one_gather(self, block, monkeypatch):
        # apply gathers z[cols] in blocks of APPLY_ROWS rows; its result has
        # the bits of the one (2n, K) gather (2n = 2546 here: 5 or 2 blocks)
        monkeypatch.setattr(elastic, "APPLY_ROWS", block)
        cfg = _thorax(65)
        op = NavierOperator(solver_grid(cfg), cfg.material.lame_lambda, cfg.material.lame_mu)
        assert len(op.cols) > block
        rng = np.random.default_rng(65)
        x = rng.standard_normal(len(op.cols))
        psi = rng.standard_normal((len(op.boundary_ij), 2))
        z = np.concatenate([x, psi.T.ravel()])
        assert op.apply(x, psi).tobytes() == np.einsum("ij,ij->i", op.vals, z[op.cols]).tobytes()

    def test_one_preconditioner_apply_per_iteration(self, monkeypatch):
        # one inverse apply per pivot snapshot and one per refinement step
        cfg = _thorax(33)
        steps, applies = _count_solves(monkeypatch)
        pivots = []
        basis = elastic._pivoted_basis

        def recording(P):
            J, A = basis(P)
            pivots.append(len(J))
            return J, A

        monkeypatch.setattr(elastic, "_pivoted_basis", recording)
        solve_motion(cfg, "noisy")
        assert len(applies) == sum(pivots) + sum(steps) > 0

    def test_noisy_data_has_full_rank(self, monkeypatch):
        # 133 snapshots of per-sample noise on the 33^2 grid's 60 boundary
        # nodes span all 2 x 60 directions: 120 pivots are solved, and the
        # other 13 snapshots, combinations of them, meet the tolerance too
        cfg = _thorax(33)
        solver = QuasiStaticSolver(solver_grid(cfg), MaterialParams(cfg.material.lame_lambda, cfg.material.lame_mu))
        bd = _raw_noisy_data(cfg, solver.grid)
        steps, applies = _count_solves(monkeypatch)
        hist = solver.solve(bd.values, bd.times)
        assert len(applies) - sum(steps) == 2 * len(hist.grid.boundary_ij) == 120
        assert len(hist.times) - 120 == 13
        assert _relative_residuals(cfg, hist).max() <= RELATIVE_TOLERANCE

    @pytest.mark.parametrize("n", [65, 129])
    def test_low_passed_noisy_data_solves_on_few_pivots(self, n, monkeypatch):
        # noise 0.1 keeps the angle modes 0..M, M >= 1, of the data, so its
        # snapshots span at most 2 (2M + 1) boundary directions: as many
        # inverse applies, not one per snapshot (133)
        cfg = _thorax(n)
        g = solver_grid(cfg)
        m = _angle_modes(boundary_data_for_mode(cfg, g, "noisy").values, boundary_angles(g))
        steps, applies = _count_solves(monkeypatch)
        hist = solve_motion(cfg, "noisy")
        assert m >= 1
        assert len(applies) - sum(steps) <= 2 * (2 * m + 1)
        assert _relative_residuals(cfg, hist).max() <= RELATIVE_TOLERANCE

    @pytest.mark.parametrize("std, time_constant", [(0.1, False), (0.25, False), (0.1, True)])
    def test_noisy_field_does_not_fold(self, std, time_constant):
        # x + u keeps a positive Jacobian determinant in every cell at every
        # snapshot (the raw noisy data folded 14,000-31,000 cell snapshots
        # at 65^2); the bilinear map's determinant is linear along each
        # edge, so it is checked at the four corners of every cell
        cfg = _thorax(65)
        cfg.boundary.spec.noise_std = std
        cfg.boundary.spec.time_constant_noise = time_constant
        hist = solve_motion(cfg, "noisy")
        g = hist.grid
        stored = stored_nodes(g.kind)
        x = np.full((len(hist.times),) + g.shape + (2,), np.nan)
        x.reshape(len(hist.times), -1, 2)[:, stored] = g.pos.reshape(-1, 2)[stored] + hist.fields
        x00, x10, x01, x11 = x[:, :-1, :-1], x[:, 1:, :-1], x[:, :-1, 1:], x[:, 1:, 1:]

        def cross(a, b):
            return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

        det = np.stack([cross(x10 - x00, x01 - x00), cross(x10 - x00, x11 - x10), cross(x11 - x01, x01 - x00), cross(x11 - x01, x11 - x10)])
        cells = np.isfinite(det).all(axis=(0, 1))
        assert cells.sum() > 1000
        assert det[:, :, cells].min() > 0.0

    def test_per_snapshot_pass_corrects_a_short_basis(self, monkeypatch):
        # a rank tolerance that keeps one of the two exact-data directions,
        # so one pivot: the per-snapshot check refines to the tolerance
        monkeypatch.setattr(elastic, "RANK_TOLERANCE", 0.5)
        cfg = _thorax(33)
        steps, applies = _count_solves(monkeypatch)
        hist = solve_motion(cfg, "exact")
        assert len(steps) == len(hist.times)
        assert len(applies) - sum(steps) == 1 and sum(steps) > 0
        assert _relative_residuals(cfg, hist).max() <= RELATIVE_TOLERANCE

    @pytest.mark.parametrize("case", ["exact", "sparse", "affine"])
    def test_combined_snapshots_pass_on_a_valid_bound(self, case, ellipse_grid_65, monkeypatch):
        # a combined snapshot is accepted on a bound on its residual, not
        # on a matvec: the residual that a matvec measures is within the
        # bound, the bound meets the target, and the operator is applied
        # at most twice per pivot (133 times before, once per snapshot)
        if case == "affine":
            # psi(t, x) = c + t M x at three times: rank 2, one combined snapshot
            g, moduli = ellipse_grid_65, (1.0, 1.0)
            times = np.array([0.0, 0.5, 1.0])
            psi = np.stack([[0.02, -0.01] + t * g.boundary_positions() @ [[0.05, 0.01], [-0.02, 0.03]] for t in times])
        else:
            cfg = _thorax(65)
            g, moduli = solver_grid(cfg), (cfg.material.lame_lambda, cfg.material.lame_mu)
            times = np.linspace(0.0, cfg.scan.t_end, cfg.solver.num_snapshots)
            psi = boundary_data_for_mode(cfg, g, case).values
        solver = QuasiStaticSolver(g, MaterialParams(*moduli))
        pivots, bounds, applies = [], [], []
        basis, refine, apply = elastic._pivoted_basis, elastic._refine, NavierOperator.apply

        def recording(P):
            J, A = basis(P)
            pivots.extend(J)
            return J, A

        def capturing(residual, precond, x, target, bound=None):
            if bound is not None:
                bounds.append((target, bound))
            return refine(residual, precond, x, target, bound)

        monkeypatch.setattr(elastic, "_pivoted_basis", recording)
        monkeypatch.setattr(elastic, "_refine", capturing)
        monkeypatch.setattr(NavierOperator, "apply", lambda self, x, p: applies.append(1) or apply(self, x, p))
        hist = solver.solve(psi, times)
        monkeypatch.undo()
        assert len(pivots) == 2 and len(applies) <= 2 * len(pivots)
        # the combined snapshots are solved after the pivots, in time order
        combined = np.setdiff1d(np.arange(len(times)), pivots)
        assert len(bounds) == len(combined) == len(times) - 2
        op = NavierOperator(g, *moduli)
        for k, (target, bound) in zip(combined, bounds):
            x = hist.fields[k].reshape(-1)[op.slots]
            assert np.linalg.norm(op.apply(x, psi[k])) <= bound <= target

    def test_refine_computes_the_residual_unless_the_bound_meets_the_target(self):
        # x = 1 against b = 0 with A = I: the residual -x has norm 1, which
        # meets the target 1; a bound that meets the target skips it, and a
        # bound that misses it, NaN included, is not trusted
        for bound, calls in ((0.5, 0), (1.0, 0), (2.0, 1), (np.nan, 1), (None, 1)):
            computed = []
            x = np.ones(1)
            assert elastic._refine(lambda x: computed.append(1) or -x, lambda r: r, x, 1.0, bound) == 0
            assert len(computed) == calls and x[0] == 1.0

    def test_solve_peak_below_one_lattice_history(self):
        # the solve writes stored-node rows, a third of the lattice on the
        # thorax grid: its peak allocation (raw noisy data, the full-rank
        # case, measured 4.0 MB with the in-memory history) stays below one
        # (K, nx, ny, 2) history (9.0 MB), which the lattice form allocated
        # on top of the rest
        cfg = _thorax(65)
        solver = QuasiStaticSolver(solver_grid(cfg), MaterialParams(cfg.material.lame_lambda, cfg.material.lame_mu))
        bd = _raw_noisy_data(cfg, solver.grid)
        tracemalloc.start()
        try:
            hist = solver.solve(bd.values, bd.times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hist.times) == 133
        assert peak < len(bd.times) * solver.grid.nx * solver.grid.ny * 16


@pytest.mark.slow
def test_explicit_divergence_raises():
    # the explicit scheme's snapped-boundary closure is unstable on the
    # 65^2 thorax grid: with exact data it used to return max|u| ~ 1e6
    # against a boundary amplitude of 0.13
    cfg = _thorax(65)
    g = solver_grid(cfg)
    # two-value density prior: the spine disk against soft tissue
    X, Y = np.meshgrid(g.x_coords, g.y_coords, indexing="ij")
    in_spine = cfg.phantom.require_labeled("spine").contains(np.stack([X, Y], axis=-1))
    rho0 = np.where(in_spine, cfg.prior.spine_density, cfg.prior.soft_tissue_density)
    params = MaterialParams(cfg.material.lame_lambda, cfg.material.lame_mu, rho0=rho0)
    # the explicit scheme reads the boundary between snapshots: all samples
    bd = sample_boundary(cfg.motion, g, np.linspace(0.0, cfg.scan.t_end, cfg.boundary.num_sample_times))
    times = np.linspace(0.0, cfg.scan.t_end, cfg.solver.num_snapshots)
    with pytest.raises(InstabilityError, match="diverged") as exc_info:
        solve(g, params, None, lambda t: bd.at_times([t]).values[0], cfg.scan.t_end, times)
    assert exc_info.value.step is not None and exc_info.value.node is not None
    # the check reads the stored rows, so it names an interior or boundary node
    assert g.kind[exc_info.value.node] in (NodeKind.INTERIOR, NodeKind.BOUNDARY)
