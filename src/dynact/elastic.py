"""Navier-Cauchy solvers on a classified grid.

Both solvers share one discrete operator, ``NavierOperator``: the
nine-node interior stencil (k = 1 component; k = 2 by exchanging x/y
and u1/u2)

    (L u)_1 = 2(lam+2mu)/DX2 * [wxp*u1_E + wxm*u1_W - 2*u1]
            + 2mu/DY2        * [wyp*u1_N + wym*u1_S - 2*u1]
            + (lam+mu)/((hxr+hxl)(hyu+hyd)) * (u2_NE - u2_NW - u2_SE + u2_SW)

with DX2 = hxr^2 + hxl^2, wxp = 1 - (hxr-hxl)/(hxr+hxl), wxm the + variant,
and local spacings taken from the actual (snapped) node positions.

The operator acts on z = [x; psi1; psi2]: x holds the n interior
unknowns, component 1 then component 2, interior nodes in lattice
order, and psi1, psi2 the Dirichlet values at the boundary nodes
(``grid.boundary_ij`` order). It is assembled once as an ELL pair of
column indices into z and weights, (2n, K), so L u is one
gather-multiply-sum. Ghosts are not unknowns: ``grid.fill_ghost`` sets
a ghost to (1-f) u(node0) + f/2 (u(node1) + u(node2)), f its factor for
that component, so a stencil weight w on a ghost becomes w(1-f) on the
interior node0 and w f/2 on each of the boundary nodes node1, node2.
K = 9 + 2 x the most ghosts one row reaches (11 on the thorax grids).

Two solvers:

* ``solve`` integrates the time-dependent equation rho u_tt = L u + v
  explicitly on interior vectors,

      u(n+1) = 2 u(n) - u(n-1) + dt^2/rho * (L u(n) + v(n)),

  dt from the CFL bound. The first step is the same update with the
  mirror rule u(-1) = u(1) - 2*dt*theta1 folded in.
* ``solve_quasi_static`` drops the inertia term and solves the
  equilibrium L u(t_k) = -v(t_k) at each output time. The density
  cancels. For the breathing motion the inertia term is about
  (omega L / c)^2 ~ 6e-4 of the elastic one, and the equilibrium does
  not carry boundary noise into the interior as undamped waves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InstabilityError
from .grid import Grid2D, NodeKind, fill_ghost

# explicit scheme: a snapshot with max|u| above this multiple of the
# largest boundary or initial displacement so far counts as diverged
GROWTH_BOUND = 10.0

# quasi-static solve: GMRES stops at this residual relative to the
# right-hand side, restarts after RESTART iterations and gives up after
# MAX_ITERATIONS per snapshot
RELATIVE_TOLERANCE = 1e-6
RESTART = 20
MAX_ITERATIONS = 1000
# margin of the preconditioner's FFT box around the interior nodes, as a
# share of their extent (0.125 needs 14% fewer iterations than 4 nodes
# on the 129^2 thorax grid)
PRECONDITIONER_MARGIN = 0.125


@dataclass
class MaterialParams:
    lame_lambda: float = 3460.0
    lame_mu: float = 1480.0
    rho0: np.ndarray | None = None  # (nx, ny); required by the explicit scheme
    forcing: object | None = None  # callable t -> (nx, ny, 2), or None

    def validate(self):
        if not self.lame_mu > 0:
            raise ConfigError("mu must be positive")
        if not self.lame_lambda + 2.0 * self.lame_mu > 0:
            raise ConfigError("lambda + 2*mu must be positive")


@dataclass
class InitialData:
    theta0: np.ndarray  # (nx, ny, 2)
    theta1: np.ndarray  # (nx, ny, 2)

    @classmethod
    def zero(cls, shape: tuple[int, int]) -> "InitialData":
        return cls(np.zeros(shape + (2,)), np.zeros(shape + (2,)))


@dataclass
class DisplacementHistory:
    """Displacement snapshots u(t_k) on the solver grid.

    ``dt`` and ``num_steps`` are the explicit scheme's time step and step
    count; the quasi-static solve reports dt = 0 and one step per
    snapshot.
    """

    times: np.ndarray  # (K,)
    fields: np.ndarray  # (K, nx, ny, 2)
    grid: Grid2D
    dt: float
    num_steps: int


def _min_rho(grid: Grid2D, rho0: np.ndarray) -> float:
    active = grid.kind != int(NodeKind.EXTERIOR)
    rho = np.asarray(rho0, dtype=float)
    if rho.shape != grid.shape:
        raise ConfigError(f"rho0 shape {rho.shape} != grid {grid.shape}")
    vals = rho[active]
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        raise ConfigError("rho0 must be positive and finite at all active nodes")
    return float(vals.min())


def cfl_dt(params: MaterialParams, grid: Grid2D, safety: float = 0.9) -> float:
    """Largest stable time step: safety / (nu * (1/dx_min + 1/dy_min)).

    nu = sqrt((lambda + 2 mu)/min rho0); minima run over all spacings of
    the snapped grid, so boundary cells shorten the step.
    """
    if not 0.0 < safety <= 1.0:
        raise ConfigError("cfl safety must be in (0, 1]")
    params.validate()
    if params.rho0 is None:
        raise ConfigError("rho0 is required")
    rho_min = _min_rho(grid, params.rho0)
    nu = np.sqrt((params.lame_lambda + 2.0 * params.lame_mu) / rho_min)
    dx, dy = grid.min_spacings()
    return float(safety / (nu * (1.0 / dx + 1.0 / dy)))


class NavierOperator:
    """L at the interior nodes with the ghost closure folded in: row r of
    L u is sum_j vals[r, j] * z[cols[r, j]] (see the module docstring).
    Unused slots hold weight 0 on the row's own column."""

    def __init__(self, grid: Grid2D, lame_lambda: float, lame_mu: float):
        self.grid = grid
        nx, ny = grid.shape
        ii, jj = np.nonzero(grid.kind == int(NodeKind.INTERIOR))
        self.int_ij = (ii, jj)
        self.boundary_ij = grid.boundary_ij
        n, nb = len(ii), len(self.boundary_ij)
        flat = ii * ny + jj

        px = grid.pos[..., 0].ravel()
        py = grid.pos[..., 1].ravel()
        hxr = px[flat + ny] - px[flat]
        hxl = px[flat] - px[flat - ny]
        hyu = py[flat + 1] - py[flat]
        hyd = py[flat] - py[flat - 1]
        if np.any(hxr <= 0) or np.any(hxl <= 0) or np.any(hyu <= 0) or np.any(hyd <= 0):
            raise ConfigError("non-positive stencil spacing at an interior node")

        # rows of component 1, then of component 2: the moduli along x and
        # y exchange between the two
        lam, mu = lame_lambda, lame_mu
        mx = np.repeat([lam + 2 * mu, mu], n)
        my = np.repeat([mu, lam + 2 * mu], n)
        hxr, hxl, hyu, hyd = (np.tile(h, 2) for h in (hxr, hxl, hyu, hyd))
        dx2 = hxr * hxr + hxl * hxl
        dy2 = hyu * hyu + hyd * hyd
        sx = (hxr - hxl) / (hxr + hxl)
        sy = (hyu - hyd) / (hyu + hyd)
        cx = (lam + mu) / ((hxr + hxl) * (hyu + hyd))
        # (lattice offset, component shift, weight): the shift is 1 where
        # the entry reads the other component
        stencil = [
            (0, 0, -4.0 * (my / dy2 + mx / dx2)),
            (ny, 0, 2.0 * mx / dx2 * (1.0 - sx)),
            (-ny, 0, 2.0 * mx / dx2 * (1.0 + sx)),
            (1, 0, 2.0 * my / dy2 * (1.0 - sy)),
            (-1, 0, 2.0 * my / dy2 * (1.0 + sy)),
            (ny + 1, 1, cx),
            (-ny + 1, 1, -cx),
            (ny - 1, 1, -cx),
            (-ny - 1, 1, cx),
        ]

        # column of each lattice node's component: interior x, then boundary psi
        col = np.full((2, nx * ny), -1)
        col[:, flat] = np.arange(2 * n).reshape(2, n)
        col[:, self.boundary_ij[:, 0] * ny + self.boundary_ij[:, 1]] = 2 * n + np.arange(2 * nb).reshape(2, nb)
        gt = grid.ghosts
        ghost_of = np.full(nx * ny, -1)
        ghost_of[gt.ghost[:, 0] * ny + gt.ghost[:, 1]] = np.arange(len(gt))
        node0, node1, node2 = (t[:, 0] * ny + t[:, 1] for t in (gt.node0, gt.node1, gt.node2))
        reach = sum((ghost_of[flat + off] >= 0).astype(int) for off, _, _ in stencil)

        # a ghost value is (1-f) u(node0) + f/2 (u(node1) + u(node2)), so an
        # entry on a ghost goes to node0 in place and to node1 and node2 in
        # two extra slots
        width = len(stencil) + 2 * int(reach.max(initial=0))
        comp = np.repeat([0, 1], n)
        self.cols = np.repeat(np.arange(2 * n)[:, None], width, axis=1)
        self.vals = np.zeros((2 * n, width))
        extra = np.full(2 * n, len(stencil))
        for s, (off, shift, w) in enumerate(stencil):
            node = np.tile(flat + off, 2)
            c = (comp + shift) % 2
            self.cols[:, s] = col[c, node]
            self.vals[:, s] = w
            r = np.nonzero(ghost_of[node] >= 0)[0]  # the rows whose entry s is a ghost
            g, c, w = ghost_of[node[r]], c[r], w[r]
            f = gt.factor[g, c]
            self.cols[r, s] = col[c, node0[g]]
            self.vals[r, s] = (1.0 - f) * w
            for aux in (node1, node2):
                self.cols[r, extra[r]] = col[c, aux[g]]
                self.vals[r, extra[r]] = 0.5 * f * w
                extra[r] += 1

    def apply(self, x: np.ndarray, psi) -> np.ndarray:
        """L u for interior values x (2n) and boundary values psi ((B, 2) or
        a scalar). einsum runs its own loop, not BLAS, so the result does not
        depend on the thread count. Callers check finiteness."""
        nb = len(self.boundary_ij)
        z = np.concatenate([x, np.broadcast_to(np.transpose(psi), (2, nb)).ravel()])
        return np.einsum("ij,ij->i", self.vals, z[self.cols])

    def interior(self, field: np.ndarray) -> np.ndarray:
        """The interior vector x of an (nx, ny, 2) field."""
        return np.asarray(field, dtype=float)[self.int_ij].T.ravel()

    def field(self, x: np.ndarray, psi) -> np.ndarray:
        """The (nx, ny, 2) field of interior values x and boundary values
        psi, ghosts filled; zero elsewhere."""
        u = np.zeros(self.grid.shape + (2,))
        u[self.int_ij] = x.reshape(2, -1).T
        u[self.boundary_ij[:, 0], self.boundary_ij[:, 1]] = psi
        return fill_ghost(self.grid, u)


class ElasticModel:
    """Explicit stepping context for one (grid, material, dt) triple; the
    levels are interior vectors x."""

    def __init__(self, grid: Grid2D, params: MaterialParams, dt: float):
        params.validate()
        if params.rho0 is None:
            raise ConfigError("rho0 is required")
        _min_rho(grid, params.rho0)
        self.grid = grid
        self.params = params
        self.dt = float(dt)
        self.op = NavierOperator(grid, params.lame_lambda, params.lame_mu)
        rho = np.asarray(params.rho0, dtype=float)[self.op.int_ij]
        self.g = dt * dt / np.tile(rho, 2)

    def step(self, x_prev: np.ndarray, x_cur: np.ndarray, psi_cur: np.ndarray, t_cur: float, step_no: int) -> np.ndarray:
        """u(n+1) = 2 u(n) - u(n-1) + dt^2/rho (L u(n) + v(n)) at the interior.

        ``psi_cur`` is the boundary at level n; raises InstabilityError on a
        non-finite value.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            lu = self.op.apply(x_cur, psi_cur)
            if self.params.forcing is not None:
                lu += self.op.interior(self.params.forcing(t_cur))
            x_next = 2.0 * x_cur + self.g * lu - x_prev
        bad = ~np.isfinite(x_next)
        if bad.any():
            k = int(np.argmax(bad)) % len(self.op.int_ij[0])
            node = (int(self.op.int_ij[0][k]), int(self.op.int_ij[1][k]))
            msg = f"non-finite displacement at node {node}, step {step_no}; time step likely violates the CFL condition"
            raise InstabilityError(msg, step=step_no, node=node)
        return x_next

    def first_step(self, initial: InitialData, psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interior levels (u^0, u^1) from the initial data.

        The mirror rule u^-1 = u^1 - 2 dt theta1 in the n=0 update gives
        u^1 = step(u^-1 = -2 dt theta1, u^0) / 2.
        """
        x0 = self.op.interior(initial.theta0)
        x_mirror = -2.0 * self.dt * self.op.interior(initial.theta1)
        return x0, 0.5 * self.step(x_mirror, x0, psi0, 0.0, 1)


def _boundary_evaluator(boundary, grid: Grid2D):
    if boundary is None:
        nb = len(grid.boundary_ij)
        return lambda t: np.zeros((nb, 2))
    if callable(boundary):
        return boundary
    return boundary.at_time


def _check_bounded(u: np.ndarray, bound: float, step_no: int) -> None:
    """InstabilityError when max|u| exceeds GROWTH_BOUND * bound."""
    mag = np.abs(u).max(axis=-1)
    k = np.unravel_index(int(np.argmax(mag)), mag.shape)
    if mag[k] > GROWTH_BOUND * bound:
        node = (int(k[0]), int(k[1]))
        raise InstabilityError(
            f"max|u| = {mag[k]:.3g} at node {node}, step {step_no}, exceeds "
            f"{GROWTH_BOUND:g} x the largest boundary or initial displacement "
            f"{bound:.3g}; the explicit scheme diverged",
            step=step_no,
            node=node,
        )


def solve(
    grid: Grid2D,
    params: MaterialParams,
    initial: InitialData | None,
    boundary,
    t_end: float,
    output_times,
    safety: float = 0.9,
) -> DisplacementHistory:
    """Run the explicit scheme to t_end and capture snapshots.

    ``boundary`` is a BoundaryData (or any ``t -> (B, 2)`` callable giving
    displacements at grid.boundary_ij order). ``output_times`` are mapped
    to the nearest completed step. dt is the CFL bound reduced so that
    t_end is an integer number of steps. Without forcing and initial
    velocity, each snapshot is checked against GROWTH_BOUND x the largest
    |psi| imposed so far and |theta0|.
    """
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    if initial is None:
        initial = InitialData.zero(grid.shape)
    dt_max = cfl_dt(params, grid, safety)
    num_steps = int(np.ceil(t_end / dt_max - 1e-12))
    dt = t_end / num_steps
    model = ElasticModel(grid, params, dt)
    psi = _boundary_evaluator(boundary, grid)

    req = np.asarray(output_times, dtype=float)
    snap_steps = np.clip(np.rint(req / dt).astype(int), 0, num_steps)
    snap_times = snap_steps * dt
    fields = np.zeros((len(req), grid.nx, grid.ny, 2))

    psi_prev, psi_cur = psi(0.0), psi(dt)
    guarded = params.forcing is None and not np.any(initial.theta1)
    bound = max(float(np.abs(a).max(initial=0.0)) for a in (initial.theta0, psi_prev, psi_cur))
    x_prev, x_cur = model.first_step(initial, psi_prev)

    def capture(step_no: int, x: np.ndarray, p: np.ndarray) -> None:
        ks = np.nonzero(snap_steps == step_no)[0]
        if len(ks):
            u = model.op.field(x, p)
            if guarded:
                _check_bounded(u, bound, step_no)
            fields[ks] = u

    capture(0, x_prev, psi_prev)
    capture(1, x_cur, psi_cur)
    for n in range(1, num_steps):
        x_prev, x_cur = x_cur, model.step(x_prev, x_cur, psi_cur, n * dt, n + 1)
        psi_cur = psi((n + 1) * dt)
        bound = max(bound, float(np.abs(psi_cur).max(initial=0.0)))
        capture(n + 1, x_cur, psi_cur)

    return DisplacementHistory(times=snap_times, fields=fields, grid=grid, dt=dt, num_steps=num_steps)


def _five_smooth(n: int) -> int:
    """Smallest m >= n whose only prime factors are 2, 3 and 5."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class _PeriodicNavierInverse:
    """Preconditioner: the inverse of L on a uniform periodic lattice.

    The interior nodes are embedded in a box with PRECONDITIONER_MARGIN
    of their extent added on each side, rounded up to 5-smooth FFT
    sizes. On the box the constant coefficient stencil (nominal spacings,
    central mixed difference) is diagonalised by the DFT into 2x2 symbols
    per frequency, inverted in closed form; the zero frequency is dropped.
    """

    def __init__(self, op: NavierOperator, lame_lambda: float, lame_mu: float):
        grid = op.grid
        ii, jj = op.int_ij
        ex, ey = int(ii.max() - ii.min()) + 1, int(jj.max() - jj.min()) + 1
        px = int(np.ceil(PRECONDITIONER_MARGIN * ex))
        py = int(np.ceil(PRECONDITIONER_MARGIN * ey))
        mx = _five_smooth(ex + 2 * px)
        my = _five_smooth(ey + 2 * py)
        self.shape = (mx, my)
        self.box_idx = (ii - ii.min() + px) * my + (jj - jj.min() + py)

        hx = (grid.x_coords[-1] - grid.x_coords[0]) / (grid.nx - 1)
        hy = (grid.y_coords[-1] - grid.y_coords[0]) / (grid.ny - 1)
        tx = 2.0 * np.pi * np.arange(mx)[:, None] / mx
        ty = 2.0 * np.pi * np.arange(my // 2 + 1)[None, :] / my
        sx = (2.0 - 2.0 * np.cos(tx)) / hx**2
        sy = (2.0 - 2.0 * np.cos(ty)) / hy**2
        lam, mu = lame_lambda, lame_mu
        a11 = -((lam + 2 * mu) * sx + mu * sy)
        a22 = -(mu * sx + (lam + 2 * mu) * sy)
        a12 = -(lam + mu) * np.sin(tx) * np.sin(ty) / (hx * hy)
        det = a11 * a22 - a12 * a12
        det[0, 0] = np.inf
        self.i11 = a22 / det
        self.i22 = a11 / det
        self.i12 = -a12 / det

    def __call__(self, r: np.ndarray) -> np.ndarray:
        b = np.zeros((2, self.shape[0] * self.shape[1]))
        b[:, self.box_idx] = r.reshape(2, -1)
        f1, f2 = np.fft.rfft2(b.reshape((2,) + self.shape))
        z = np.fft.irfft2(np.stack([self.i11 * f1 + self.i12 * f2, self.i12 * f1 + self.i22 * f2]), s=self.shape)
        return z.reshape(2, -1)[:, self.box_idx].ravel()


def _norm(v: np.ndarray) -> float:
    # einsum keeps its own summation loop, so the result does not depend
    # on the BLAS thread count (np.dot would)
    return float(np.sqrt(np.einsum("i,i->", v, v)))


def _gmres(apply_a, residual, precond, x: np.ndarray, target: float, basis: np.ndarray) -> int:
    """Right-preconditioned restarted GMRES; updates ``x`` in place.

    Iterates until ``residual(x)`` (b - A x) has norm <= ``target``, with
    a restart every len(basis) - 1 iterations. ``basis`` is the Krylov
    workspace; preconditioned vectors are recomputed, not stored.
    Returns the iteration count; raises InstabilityError after
    MAX_ITERATIONS.
    """
    m = len(basis) - 1
    iterations = 0
    while True:
        r = residual(x)
        beta = _norm(r)
        if beta <= target:
            return iterations
        if iterations >= MAX_ITERATIONS or not np.isfinite(beta):
            raise InstabilityError(
                f"quasi-static solve did not converge in {iterations} iterations "
                f"(residual {beta:.3g}, target {target:.3g})"
            )
        basis[0] = r / beta
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        k = 0
        while k < m and iterations < MAX_ITERATIONS:
            w = apply_a(precond(basis[k]))
            iterations += 1
            # classical Gram-Schmidt, applied twice
            coef = np.einsum("ij,j->i", basis[: k + 1], w)
            w -= np.einsum("i,ij->j", coef, basis[: k + 1])
            again = np.einsum("ij,j->i", basis[: k + 1], w)
            w -= np.einsum("i,ij->j", again, basis[: k + 1])
            h[: k + 1, k] = coef + again
            h_next = _norm(w)
            for i in range(k):
                h[i, k], h[i + 1, k] = cs[i] * h[i, k] + sn[i] * h[i + 1, k], -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
            rho = float(np.hypot(h[k, k], h_next))
            cs[k], sn[k] = h[k, k] / rho, h_next / rho
            h[k, k] = rho
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k += 1
            if h_next == 0.0 or abs(g[k]) <= target:
                break
            basis[k] = w / h_next
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - np.einsum("j,j->", h[i, i + 1 : k], y[i + 1 : k])) / h[i, i]
        x += precond(np.einsum("i,ij->j", y, basis[:k]))


def solve_quasi_static(grid: Grid2D, params: MaterialParams, boundary, t_end: float, output_times) -> DisplacementHistory:
    """Solve L u(t_k) = -v(t_k), u = psi(t_k) on the boundary, per snapshot.

    ``boundary`` is as for ``solve``; ``output_times`` are clipped to
    [0, t_end]. The unknowns are the interior node values of both
    components; ghost values follow from them and the boundary values.
    Each snapshot starts from the linear extrapolation of the two before
    it. Raises InstabilityError when GMRES does not converge.
    """
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    params.validate()
    op = NavierOperator(grid, params.lame_lambda, params.lame_mu)
    precond = _PeriodicNavierInverse(op, params.lame_lambda, params.lame_mu)
    psi = _boundary_evaluator(boundary, grid)
    times = np.clip(np.asarray(output_times, dtype=float), 0.0, t_end)
    zero = np.zeros(len(op.cols))

    def apply_a(x):
        return op.apply(x, 0.0)

    fields = np.zeros((len(times), grid.nx, grid.ny, 2))
    basis = np.empty((RESTART + 1, len(zero)))
    x_prev = x_prev2 = zero
    for k, t in enumerate(times):
        p = psi(t)
        rhs = -op.apply(zero, p)
        if params.forcing is not None:
            rhs -= op.interior(params.forcing(t))
        rhs_norm = _norm(rhs)
        if rhs_norm == 0.0:
            x = zero
        else:
            x = 2.0 * x_prev - x_prev2
            _gmres(apply_a, lambda x: rhs - apply_a(x), precond, x, RELATIVE_TOLERANCE * rhs_norm, basis)
        fields[k] = op.field(x, p)
        x_prev2, x_prev = x_prev, x

    return DisplacementHistory(times=times, fields=fields, grid=grid, dt=0.0, num_steps=len(times))
