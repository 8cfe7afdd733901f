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
  with the explicit leapfrog scheme on interior vectors, dt from the
  CFL bound (``cfl_dt``); its docstring gives the update and the first
  step.
* ``QuasiStaticSolver`` drops the inertia term and the forcing and
  solves the equilibrium L u(t_k) = 0 at each output time. The density
  cancels. For the breathing motion the inertia term is about
  (omega L / c)^2 ~ 6e-4 of the elastic one, and the equilibrium does
  not carry boundary noise into the interior as undamped waves.
  The solve is direct: ``_NavierInverse`` is the exact inverse of the
  operator, a periodic FFT solve on a box around the interior, corrected
  by a capacitance matrix of order m + 2 for the m rows that read a
  boundary value (every other row is the box's uniform stencil) and the
  two per-component constants, on which the periodic operator is
  singular. The equilibrium is linear in the boundary values, so the
  inverse is applied to a few pivot snapshots only (2 for exact and
  sparse data): every other snapshot's boundary vector psi(t_k) is a
  combination of the pivots', and its field the same combination of
  theirs. Each pivot is checked against its own right-hand side with one
  operator apply. A combined snapshot's residual is the same combination
  of the pivots' residuals plus the right-hand side's interpolation
  error on the edge rows and round-off, and a triangle-inequality bound
  on it stands in for the apply when it meets the tolerance. Where the
  bound misses, the residual is computed, and a snapshot that misses the
  tolerance is refined (x += A^-1 r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InstabilityError
from .grid import Grid2D, NodeKind, stored_nodes

# explicit scheme: a snapshot with max|u| above this multiple of the
# largest boundary or initial displacement so far counts as diverged
GROWTH_BOUND = 10.0

# quasi-static solve: each snapshot must meet this residual relative to
# its right-hand side; refinement gives up after MAX_ITERATIONS steps per
# snapshot
RELATIVE_TOLERANCE = 1e-6
MAX_ITERATIONS = 1000
# snapshot boundary data: a remainder of at most this share of the
# largest snapshot norm is not taken as a pivot (the exact and sparse
# data measure 1, 8.4e-3, then 4e-16 on the 33^2-257^2 thorax grids)
RANK_TOLERANCE = 1e-12
# _NavierInverse: the capacitance matrix is factored in blocks of LU_BLOCK
# rows, and its build and factorisation make no temporary of more than
# CHUNK values
LU_BLOCK = 64
CHUNK = 1 << 16
# NavierOperator.apply gathers z[cols] in blocks of this many rows
APPLY_ROWS = 2048


@dataclass
class MaterialParams:
    lame_lambda: float = 3460.0
    lame_mu: float = 1480.0
    rho0: np.ndarray | None = None  # (nx, ny); required by the explicit scheme
    forcing: object | None = None  # callable t -> (nx, ny, 2), or None; explicit scheme only

    def validate(self):
        if not self.lame_mu > 0:
            raise ConfigError("mu must be positive")
        if not self.lame_lambda + 2.0 * self.lame_mu > 0:
            raise ConfigError("lambda + 2*mu must be positive")


@dataclass
class InitialData:
    theta0: np.ndarray  # (nx, ny, 2)
    theta1: np.ndarray  # (nx, ny, 2)


@dataclass
class DisplacementHistory:
    """Displacement snapshots u(t_k) on the solver grid, one row per
    interior and boundary node (``grid.stored_nodes``), as the field
    artifact stores them; a (K, nx, ny, 2) lattice array is cut to them.
    ``dt`` and ``num_steps`` are the explicit scheme's time step and step
    count; the quasi-static solve reports dt = 0 and one step per snapshot.
    """

    times: np.ndarray  # (K,)
    fields: np.ndarray  # (K, n_stored, 2)
    grid: Grid2D
    dt: float
    num_steps: int

    def __post_init__(self):
        stored = stored_nodes(self.grid.kind)
        fields = np.asarray(self.fields, dtype=float)
        if fields.shape[1:] == self.grid.shape + (2,):
            fields = np.take(fields.reshape(len(fields), -1, 2), stored, axis=1)
        if fields.shape != (len(self.times), len(stored), 2):
            raise ConfigError(f"fields {fields.shape} are not {len(self.times)} snapshots of {len(stored)} stored nodes")
        self.fields = fields

    def read(self, k: int, out: np.ndarray) -> np.ndarray:
        """Snapshot k copied into ``out`` (n_stored, 2), as `formats.FieldFile` reads it."""
        np.copyto(out, self.fields[k])
        return out

    def write(self, k: int, rows: np.ndarray) -> None:
        """Snapshot k copied from ``rows`` (n_stored, 2), as `formats.FieldWriter` writes it."""
        self.fields[k] = rows


def cfl_dt(params: MaterialParams, grid: Grid2D, safety: float = 0.9) -> float:
    """Largest stable time step: safety / (nu * (1/dx_min + 1/dy_min)).

    nu = sqrt((lambda + 2 mu)/min rho0), the minimum over the active
    (non-exterior) nodes, where rho0 must be positive and finite; the
    spacing minima run over all spacings of the snapped grid, so boundary
    cells shorten the step.
    """
    if not 0.0 < safety <= 1.0:
        raise ConfigError("cfl safety must be in (0, 1]")
    params.validate()
    if params.rho0 is None:
        raise ConfigError("rho0 is required")
    rho = np.asarray(params.rho0, dtype=float)
    if rho.shape != grid.shape:
        raise ConfigError(f"rho0 shape {rho.shape} != grid {grid.shape}")
    rho = rho[grid.kind != int(NodeKind.EXTERIOR)]
    if np.any(~np.isfinite(rho)) or np.any(rho <= 0):
        raise ConfigError("rho0 must be positive and finite at all active nodes")
    nu = np.sqrt((params.lame_lambda + 2.0 * params.lame_mu) / float(rho.min()))
    dx, dy = grid.min_spacings()
    return float(safety / (nu * (1.0 / dx + 1.0 / dy)))


# the nine-node stencil: (x offset, y offset, 1 where the entry reads the
# other component)
_OFFSETS = ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1))


def _weights(lam: float, mu: float, hxr, hxl, hyu, hyd) -> list[np.ndarray]:
    """The weights of the _OFFSETS entries for the rows of component 1, then
    of component 2, from the local spacings of n nodes (arrays or scalars,
    n = 1): the moduli along x and y exchange between the two components."""
    n = np.size(hxr)
    mx = np.repeat([lam + 2 * mu, mu], n)
    my = np.repeat([mu, lam + 2 * mu], n)
    hxr, hxl, hyu, hyd = (np.tile(h, 2) for h in (hxr, hxl, hyu, hyd))
    dx2 = hxr * hxr + hxl * hxl
    dy2 = hyu * hyu + hyd * hyd
    sx = (hxr - hxl) / (hxr + hxl)
    sy = (hyu - hyd) / (hyu + hyd)
    cx = (lam + mu) / ((hxr + hxl) * (hyu + hyd))
    return [
        -4.0 * (my / dy2 + mx / dx2),
        2.0 * mx / dx2 * (1.0 - sx),
        2.0 * mx / dx2 * (1.0 + sx),
        2.0 * my / dy2 * (1.0 - sy),
        2.0 * my / dy2 * (1.0 + sy),
        cx,
        -cx,
        -cx,
        cx,
    ]


class NavierOperator:
    """L at the interior nodes with the ghost closure folded in: row r of
    L u is sum_j vals[r, j] * z[cols[r, j]] (see the module docstring).
    Unused slots hold weight 0 on the row's own column. ``edge`` lists the
    rows that read a boundary value (a column >= 2n), in order."""

    def __init__(self, grid: Grid2D, lame_lambda: float, lame_mu: float):
        self.grid = grid
        nx, ny = grid.shape
        ii, jj = np.nonzero(grid.kind == int(NodeKind.INTERIOR))
        self.int_ij = (ii, jj)
        self.boundary_ij = grid.boundary_ij
        n, nb = len(ii), len(self.boundary_ij)
        flat = ii * ny + jj
        self.stored = stored_nodes(grid.kind)
        self.slots = (2 * np.searchsorted(self.stored, flat) + np.arange(2)[:, None]).ravel()
        self.boundary_rows = np.searchsorted(self.stored, self.boundary_ij[:, 0] * ny + self.boundary_ij[:, 1])

        px = grid.pos[..., 0].ravel()
        py = grid.pos[..., 1].ravel()
        hxr = px[flat + ny] - px[flat]
        hxl = px[flat] - px[flat - ny]
        hyu = py[flat + 1] - py[flat]
        hyd = py[flat] - py[flat - 1]
        if np.any(hxr <= 0) or np.any(hxl <= 0) or np.any(hyu <= 0) or np.any(hyd <= 0):
            raise ConfigError("non-positive stencil spacing at an interior node")

        weights = _weights(lame_lambda, lame_mu, hxr, hxl, hyu, hyd)
        stencil = [(dx * ny + dy, shift, w) for (dx, dy, shift), w in zip(_OFFSETS, weights)]

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
        self.edge = np.flatnonzero((self.cols >= 2 * n).any(axis=1))

    def apply(self, x: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """L u for interior values x (2n) and boundary values psi (B, 2), in
        blocks of APPLY_ROWS rows. einsum runs its own loop, not BLAS, so
        the result does not depend on the thread count. Callers check
        finiteness."""
        z = np.concatenate([x, np.transpose(psi).ravel()])
        out = np.empty(len(self.cols))
        for lo in range(0, len(out), APPLY_ROWS):
            hi = lo + APPLY_ROWS
            np.einsum("ij,ij->i", self.vals[lo:hi], z[self.cols[lo:hi]], out=out[lo:hi])
        return out

    def interior(self, field: np.ndarray) -> np.ndarray:
        """The interior vector x of an (nx, ny, 2) field."""
        return field[self.int_ij].T.ravel()

    def rows(self, x: np.ndarray, psi, out: np.ndarray) -> np.ndarray:
        """Writes interior values x at their ``slots`` and boundary values psi
        at the ``boundary_rows`` of ``out``, a snapshot's (n_stored, 2) rows."""
        out.reshape(-1)[self.slots] = x
        out[self.boundary_rows] = psi
        return out


def solve(
    grid: Grid2D,
    params: MaterialParams,
    initial: InitialData | None,
    psi,
    t_end: float,
    output_times,
) -> DisplacementHistory:
    """Run the explicit scheme to t_end and capture snapshots.

    ``psi`` is the boundary data, a ``t -> (B, 2)`` callable giving
    displacements in grid.boundary_ij order (such as the one value of
    ``BoundaryData.at_times([t])``); ``initial`` is the displacement theta0
    and velocity theta1 at t = 0, zero when None. dt is the CFL bound
    (``cfl_dt`` at its default safety) reduced so that t_end is an
    integer number of steps. Each step updates the interior vector,

        u(n+1) = 2 u(n) - u(n-1) + dt^2/rho (L u(n) + v(n)),

    with L reading the boundary level psi(n dt) and v the forcing. The
    mirror rule u(-1) = u(1) - 2 dt theta1 in the n = 0 update gives
    u(1) = step(u(-1) = -2 dt theta1, u(0)) / 2. A non-finite value
    raises InstabilityError. ``output_times`` are mapped to the nearest
    completed step, clamped to [0, t_end]. Without forcing and initial
    velocity, each snapshot is checked against GROWTH_BOUND x the largest
    |psi| imposed so far and |theta0|.
    """
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    if initial is None:
        initial = InitialData(np.zeros(grid.shape + (2,)), np.zeros(grid.shape + (2,)))
    num_steps = int(np.ceil(t_end / cfl_dt(params, grid) - 1e-12))
    dt = t_end / num_steps
    op = NavierOperator(grid, params.lame_lambda, params.lame_mu)
    g = dt * dt / np.tile(np.asarray(params.rho0, dtype=float)[op.int_ij], 2)

    def step(x_prev: np.ndarray, x_cur: np.ndarray, psi_cur: np.ndarray, t_cur: float, step_no: int) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            lu = op.apply(x_cur, psi_cur)
            if params.forcing is not None:
                lu += op.interior(params.forcing(t_cur))
            x_next = 2.0 * x_cur + g * lu - x_prev
        bad = ~np.isfinite(x_next)
        if bad.any():
            k = int(np.argmax(bad)) % len(op.int_ij[0])
            node = (int(op.int_ij[0][k]), int(op.int_ij[1][k]))
            msg = f"non-finite displacement at node {node}, step {step_no}; time step likely violates the CFL condition"
            raise InstabilityError(msg, step=step_no, node=node)
        return x_next

    req = np.asarray(output_times, dtype=float)
    snap_steps = np.clip(np.rint(req / dt).astype(int), 0, num_steps)
    snap_times = snap_steps * dt
    fields = np.zeros((len(req), len(op.stored), 2))

    psi_prev, psi_cur = psi(0.0), psi(dt)
    guarded = params.forcing is None and not np.any(initial.theta1)
    bound = max(float(np.abs(a).max(initial=0.0)) for a in (initial.theta0, psi_prev, psi_cur))
    x_prev = op.interior(initial.theta0)
    x_cur = 0.5 * step(-2.0 * dt * op.interior(initial.theta1), x_prev, psi_prev, 0.0, 1)

    def capture(step_no: int, x: np.ndarray, p: np.ndarray) -> None:
        ks = np.nonzero(snap_steps == step_no)[0]
        if len(ks):
            u = op.rows(x, p, fields[ks[0]])
            if guarded:
                mag = np.abs(u).max(axis=-1)
                k = int(np.argmax(mag))
                if mag[k] > GROWTH_BOUND * bound:
                    node = tuple(int(i) for i in np.unravel_index(op.stored[k], grid.shape))
                    raise InstabilityError(
                        f"max|u| = {mag[k]:.3g} at node {node}, step {step_no}, exceeds "
                        f"{GROWTH_BOUND:g} x the largest boundary or initial displacement "
                        f"{bound:.3g}; the explicit scheme diverged",
                        step=step_no,
                        node=node,
                    )
            fields[ks[1:]] = u

    capture(0, x_prev, psi_prev)
    capture(1, x_cur, psi_cur)
    for n in range(1, num_steps):
        x_prev, x_cur = x_cur, step(x_prev, x_cur, psi_cur, n * dt, n + 1)
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


def _lu_factor(a: np.ndarray) -> np.ndarray:
    """LU factorisation with partial pivoting of the square ``a``, in place,
    a_before[perm] = L U with L unit lower triangular; returns perm.

    Afterwards ``a`` holds L below and U above its diagonal blocks of
    LU_BLOCK rows. Each diagonal block holds the inverse of L's block
    there below its diagonal and the inverse of U's block on and above
    it, so that a solve (``_lu_solve``) is a sequence of block products.
    Within a block of columns the factorisation is Crout's: column k of L
    and row k of U take the block's earlier columns and rows in one einsum
    each; the rest of the matrix is updated once per block. Row
    operations and einsum only, no BLAS or LAPACK call, so the factor
    does not depend on the BLAS thread count.
    """
    m = len(a)
    perm = np.arange(m)
    for k0 in range(0, m, LU_BLOCK):
        k1 = min(k0 + LU_BLOCK, m)
        for k in range(k0, k1):
            a[k:, k] -= np.einsum("ij,j->i", a[k:, k0:k], a[k0:k, k])
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if p != k:
                a[[k, p]] = a[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            a[k + 1 :, k] /= a[k, k]
            a[k, k + 1 :] -= np.einsum("i,ij->j", a[k, k0:k], a[k0:k, k + 1 :])
        rows = max(1, CHUNK // max(1, m - k1))
        for r in range(k1, m, rows):
            a[r : r + rows, k1:] -= np.einsum("ik,kj->ij", a[r : r + rows, k0:k1], a[k0:k1, k1:])
        d = a[k0:k1, k0:k1]
        li, ui = np.eye(k1 - k0), np.eye(k1 - k0)
        for j in range(1, k1 - k0):
            li[j] -= np.einsum("i,ij->j", d[j, :j], li[:j])
        for j in range(k1 - k0 - 1, -1, -1):
            ui[j] -= np.einsum("i,ij->j", d[j, j + 1 :], ui[j + 1 :])
            ui[j] /= d[j, j]
        d[...] = np.tril(li, -1) + ui
    return perm


# masks of the strictly lower and of the upper part of a diagonal block
# of the factor
_BELOW = np.tri(LU_BLOCK, k=-1)
_ABOVE = 1.0 - _BELOW


def _lu_solve(a: np.ndarray, perm: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The solution c of a_before c = w from ``_lu_factor``'s results, by
    block rows: each block of c takes the rows of L or U left or right of
    its diagonal block, which are contiguous in ``a``."""
    m = len(a)
    z = w[perm]
    for k0 in range(0, m, LU_BLOCK):
        k1 = min(k0 + LU_BLOCK, m)
        v = z[k0:k1] - np.einsum("ij,j->i", a[k0:k1, :k0], z[:k0])
        z[k0:k1] = v + np.einsum("ij,ij,j->i", a[k0:k1, k0:k1], _BELOW[: k1 - k0, : k1 - k0], v)
    for k0 in reversed(range(0, m, LU_BLOCK)):
        k1 = min(k0 + LU_BLOCK, m)
        v = z[k0:k1] - np.einsum("ij,j->i", a[k0:k1, k1:], z[k1:])
        z[k0:k1] = np.einsum("ij,ij,j->i", a[k0:k1, k0:k1], _ABOVE[: k1 - k0, : k1 - k0], v)
    return z


class _NavierInverse:
    """The inverse of A, the NavierOperator with psi = 0, exact up to
    round-off: a periodic FFT solve with a capacitance-matrix
    correction (Buzbee, Dorr, George & Golub, SINUM 1971; Proskurowski &
    Widlund, Math. Comp. 1976).

    The interior nodes sit in a periodic box of N nodes, one node wider
    than their extent on each side and rounded up to 5-smooth FFT sizes.
    On the box the constant coefficient stencil L (``_weights`` at the
    nominal spacings) is diagonalised by the DFT into 2x2 symbols per
    frequency, inverted in closed form.

    Let M be L with its rows at the interior nodes replaced by A's. A's
    columns are interior nodes, so M is block triangular (interior nodes,
    then the others) and the interior part of M^-1 [b; 0] is A^-1 b. M
    differs from L only in the m edge rows, the rows of A that read a
    boundary value (``op.edge``): any other row reads its eight neighbours'
    interior unknowns at their lattice positions, so on the uniform lattice
    it is L's row. M = L + U V^T, U the unit vectors of the edge rows and
    V^T the row differences. L is singular on the two per-component
    constants 1_c. With P0 the projector on them, L' = L + s0 P0 has the
    nonzero symbol s0 at the zero frequency, and M = L' + U2 V2^T with
    U2 = [U, -1_1/N, -1_2/N] and V2 = [V, s0 1_1, s0 1_2], of rank m + 2.
    By Woodbury

        M^-1 = L'^-1 - L'^-1 U2 C^-1 V2^T L'^-1,  C = I + V2^T L'^-1 U2,

    so an apply is two FFT solves, one gather for V2^T L'^-1 b and one
    solve with the LU factor of C. Since L L'^-1 = I - P0, C needs only
    A's edge rows a_i (component c_i) and the box Green's function G, the
    L'^-1 of a unit impulse in each component, shifted to each edge node:

        C[i, j] = a_i . G shifted to edge node j + [c_i = c_j] / N
        C[i, m + c] = -(sum of a_i over component c) / (N s0)
        C[m + c, j] = [c_j = c],  C[m + c, m + c'] = 0
    """

    def __init__(self, op: NavierOperator, lame_lambda: float, lame_mu: float):
        grid = op.grid
        ii, jj = op.int_ij
        n = len(ii)
        mx = _five_smooth(int(ii.max() - ii.min()) + 3)
        my = _five_smooth(int(jj.max() - jj.min()) + 3)
        self.shape = (mx, my)
        size = mx * my
        comp = np.repeat([0, 1], n)
        bx, by = np.tile(ii - ii.min() + 1, 2), np.tile(jj - jj.min() + 1, 2)
        # the slot of each unknown of x in the flat (2, N) box vector
        self.box_idx = comp * size + bx * my + by

        hx = (grid.x_coords[-1] - grid.x_coords[0]) / (grid.nx - 1)
        hy = (grid.y_coords[-1] - grid.y_coords[0]) / (grid.ny - 1)
        # interior nodes are not snapped, so this check makes every row that
        # reads no boundary value the uniform stencil L's row
        if not (np.allclose(np.diff(grid.x_coords), hx, rtol=1e-9, atol=0) and np.allclose(np.diff(grid.y_coords), hy, rtol=1e-9, atol=0)):
            raise ConfigError("the quasi-static solve needs a uniformly spaced lattice")
        s0 = float(_weights(lame_lambda, lame_mu, hx, hx, hy, hy)[0][0])  # the centre weight sets the scale
        tx = 2.0 * np.pi * np.arange(mx)[:, None] / mx
        ty = 2.0 * np.pi * np.arange(my // 2 + 1)[None, :] / my
        sx = (2.0 - 2.0 * np.cos(tx)) / hx**2
        sy = (2.0 - 2.0 * np.cos(ty)) / hy**2
        lam, mu = lame_lambda, lame_mu
        a11 = -((lam + 2 * mu) * sx + mu * sy)
        a22 = -(mu * sx + (lam + 2 * mu) * sy)
        a12 = -(lam + mu) * np.sin(tx) * np.sin(ty) / (hx * hy)
        a11[0, 0] = a22[0, 0] = s0
        det = a11 * a22 - a12 * a12
        self.i11 = a22 / det
        self.i22 = a11 / det
        self.i12 = -a12 / det

        self.edge = op.edge
        m = len(self.edge)
        self.edge_comp = comp[self.edge]
        # A's edge rows in box slots, the entries with non-zero weight first
        # and the rest cut off; boundary columns (psi = 0) weigh 0
        cols = op.cols[self.edge]
        vals = np.where(cols < 2 * n, op.vals[self.edge], 0.0)
        order = np.argsort(vals == 0.0, axis=1, kind="stable")
        width = int(np.count_nonzero(vals, axis=1).max(initial=0))
        self.aval = np.take_along_axis(vals, order, axis=1)[:, :width]
        self.acol = self.box_idx[np.minimum(np.take_along_axis(cols, order, axis=1)[:, :width], 2 * n - 1)]

        # C[i, j] reads G at the entries of a_i shifted to edge node j. G
        # holds the three distinct component pairs 11, 12, 22 (indexed by
        # the entry's component plus c_j), tiled to (3, 2 mx, 2 my) so that
        # every offset between two box nodes is in range. The index into
        # it is a part of the entry plus a part of the node, so G is
        # gathered once per distinct entry and edge node, in chunks of edge
        # nodes, then summed with the weights of each row
        g = np.tile(np.fft.irfft2(np.stack([self.i11, self.i12, self.i22]), s=self.shape), (1, 2, 2)).ravel()
        qc, qn = np.divmod(self.acol, size)
        keys = (qc * 4 * size + (qn // my + mx) * 2 * my + (qn % my + my)).ravel()
        # distinct by sort, as np.unique(return_inverse=True) gives them: its
        # first call leaves about 0.17 MB more resident than this
        order = np.argsort(keys, kind="stable")
        new = np.ones(len(keys), dtype=bool)
        new[1:] = keys[order[1:]] != keys[order[:-1]]
        entries = keys[order[new]]
        where = np.empty(len(keys), dtype=int)
        where[order] = np.cumsum(new) - 1
        where = where.reshape(qc.shape)
        node = self.edge_comp * 4 * size - bx[self.edge] * 2 * my - by[self.edge]
        cap = np.zeros((m + 2, m + 2))
        top = cap[:m, :m]
        chunk = max(1, CHUNK // max(1, m * width))
        for j in range(0, m, chunk):
            top[:, j : j + chunk] = np.einsum("ik,ikj->ij", self.aval, g[entries[:, None] + node[j : j + chunk]][where])
        # the edge rows of component 1 come first
        half = int(np.count_nonzero(self.edge_comp == 0))
        top[:half, :half] += 1.0 / size
        top[half:, half:] += 1.0 / size
        for c in (0, 1):
            cap[:m, m + c] = -np.einsum("ij->i", np.where(qc == c, self.aval, 0.0)) / (size * s0)
            cap[m + c, :m] = self.edge_comp == c
        self.factor = cap
        self.perm = _lu_factor(cap)

    def _box_solve(self, b: np.ndarray) -> np.ndarray:
        """L'^-1 b for a flat (2, N) box vector."""
        f1, f2 = np.fft.rfft2(b.reshape((2,) + self.shape))
        z = np.fft.irfft2(np.stack([self.i11 * f1 + self.i12 * f2, self.i12 * f1 + self.i22 * f2]), s=self.shape)
        return z.ravel()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        m = len(self.edge)
        size = self.shape[0] * self.shape[1]
        b = np.zeros(2 * size)
        b[self.box_idx] = r
        y = self._box_solve(b)
        sums = np.einsum("ij->i", r.reshape(2, -1))
        # V2^T y: (L y)_i = r_i - sums[c_i] / N at an edge row
        w = np.concatenate([np.einsum("ij,ij->i", self.aval, y[self.acol]) - r[self.edge] + sums[self.edge_comp] / size, sums])
        c = _lu_solve(self.factor, self.perm, w)
        b[self.box_idx[self.edge]] -= c[:m]
        b.reshape(2, size)[...] += c[m:, None] / size
        return self._box_solve(b)[self.box_idx]


def _norm(v: np.ndarray) -> float:
    # einsum keeps its own summation loop, so the result does not depend
    # on the BLAS thread count (np.dot would)
    return float(np.sqrt(np.einsum("i,i->", v, v)))


def _refine(residual, precond, x: np.ndarray, target: float, bound: float | None = None) -> int:
    """Iterative refinement: ``x += precond(residual(x))`` until
    ``residual(x)`` (b - A x) has norm <= ``target``; updates ``x`` in
    place and returns the step count. With the exact inverse as
    ``precond`` a step removes all but round-off. ``bound``, when given,
    bounds the norm of the first residual: if it is <= ``target``, x is
    accepted with 0 steps and ``residual`` is not called; otherwise (a
    NaN bound included) the residual is computed as without it. Raises
    InstabilityError after MAX_ITERATIONS steps or on a non-finite
    residual.
    """
    if bound is not None and bound <= target:
        return 0
    steps = 0
    while True:
        r = residual(x)
        norm = _norm(r)
        if norm <= target:
            return steps
        if steps >= MAX_ITERATIONS or not np.isfinite(norm):
            raise InstabilityError(
                f"quasi-static solve did not converge in {steps} refinement steps "
                f"(residual {norm:.3g}, target {target:.3g})"
            )
        x += precond(r)
        steps += 1


def _pivoted_basis(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot rows J (r,) and coefficients A (r, K), P[k] = A[:, k] @ P[J] up
    to RANK_TOLERANCE x the largest row norm of P: an interpolative
    decomposition (Cheng, Gimbutas, Martinsson & Rokhlin, SISC 2005).

    Pivoted Gram-Schmidt, re-orthogonalised once: each pivot is the row
    with the largest remainder, and its component C[i] is subtracted from
    every row, so P = C^T Q with C[:, J] upper triangular, and
    A = C[:, J]^-1 C by back-substitution. ``P`` is overwritten with the
    remainders. einsum only, so A does not depend on the BLAS threads.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", P, P))
    stop = RANK_TOLERANCE * norms.max(initial=0.0)
    Q = np.empty((0, P.shape[1]))
    C = np.empty((0, len(P)))
    J = []
    for _ in range(min(P.shape)):
        j = int(np.argmax(norms))
        if norms[j] <= stop:
            break
        q = P[j] - np.einsum("i,ij->j", np.einsum("ij,j->i", Q, P[j]), Q)
        q /= _norm(q)
        c = np.einsum("ij,j->i", P, q)
        P -= c[:, None] * q
        Q = np.vstack([Q, q])
        C = np.vstack([C, c])
        J.append(j)
        norms = np.sqrt(np.einsum("ij,ij->i", P, P))
    A = np.empty_like(C)
    for i in reversed(range(len(J))):
        A[i] = (C[i] - np.einsum("j,jk->k", C[i, J[i + 1 :]], A[i + 1 :])) / C[i, J[i]]
    return np.array(J, dtype=int), A


class QuasiStaticSolver:
    """The equilibrium solve L u(t_k) = 0, u = psi(t_k) on the boundary,
    on one grid and material (``params.forcing`` and ``params.rho0`` are
    not used). The operator and its inverse are built once; ``solve``
    takes the boundary data.
    """

    def __init__(self, grid: Grid2D, params: MaterialParams):
        params.validate()
        self.grid = grid
        self.op = op = NavierOperator(grid, params.lame_lambda, params.lame_mu)
        self.precond = _NavierInverse(op, params.lame_lambda, params.lame_mu)
        self.zero = np.zeros(len(op.cols))
        # only the edge rows read psi: L(0, psi) is zero elsewhere
        self.edge_vals, self.edge_cols = op.vals[op.edge], op.cols[op.edge]
        # |L|_2 <= |L|_F <= sqrt(K sum vals^2): the K weights of a row may
        # share a column after the ghost folding, hence the factor K
        self.norm_bound = float(np.sqrt(op.vals.shape[1] * np.einsum("ij,ij->", op.vals, op.vals)))

    def solve(self, psi, output_times, out=None):
        """u(t_k) at each output time from the boundary values ``psi``, a
        (K, B, 2) array of the K output times' displacements in
        grid.boundary_ij order, solved straight into stored-node rows; the
        unknowns are the interior values of both components. Each snapshot
        goes to ``out.write(k, rows)`` from one reused buffer; ``out``, in
        memory when omitted, is returned.

        The solution is linear in psi: only the pivot snapshots J of
        ``_pivoted_basis`` are solved, first, by one inverse apply to their
        right-hand side b = -L(0, psi(t_k)), and each is checked against
        its b with one matvec. Any other snapshot, with psi(t_k) =
        A[:, k] @ psi(t_J), takes that combination x_k of the pivots'
        interior values, kept only if such a snapshot exists. Its residual
        b_k - L_0 x_k is (b_k - sum_j A[j, k] b_j) + sum_j A[j, k] r_j,
        plus round-off, so its norm is at most

            |b_k - sum_j A[j, k] b_j| + sum_j |A[j, k]| (|r_j| + e |z_j|),

        the first term over the edge rows, r_j the pivot's residual, z_j =
        [x_j; psi(t_j)] and e = 4 (r + w) eps ``norm_bound`` for r pivots
        and w weights per operator row: the round-off of the r-term
        combination and of the w-term rows of the right-hand sides and of
        the pivots' and the snapshot's own residual. Where that bound meets
        RELATIVE_TOLERANCE no matvec runs; where it does not (or is NaN),
        the residual is computed. A snapshot that misses the tolerance
        takes ``_refine`` steps, and InstabilityError is raised when they
        fail.
        """
        grid, op = self.grid, self.op
        times = np.array(output_times, dtype=float)
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (len(times), len(op.boundary_ij), 2):
            raise ConfigError(f"boundary values {psi.shape} are not {len(times)} times of {len(op.boundary_ij)} nodes")
        if out is None:
            out = DisplacementHistory(times=times, fields=np.zeros((len(times), len(op.stored), 2)), grid=grid, dt=0.0, num_steps=len(times))
        J, A = _pivoted_basis(psi.reshape(len(times), -1).copy())
        # the other snapshots by mask: np.setdiff1d imports numpy.ma on first use
        unsolved = np.ones(len(times), dtype=bool)
        unsolved[J] = False
        rest = np.flatnonzero(unsolved)
        kept = len(J) if len(rest) else 0
        # the pivots' interior values, edge-row right-hand sides, residual
        # norms and |x_j| + |psi(t_j)| >= |z_j|
        X = np.empty((kept, len(op.slots)))
        B = np.empty((kept, len(op.edge)))
        res_norm, z_norm = np.empty(kept), np.empty(kept)
        rounding = 4.0 * (len(J) + op.vals.shape[1]) * np.finfo(float).eps * self.norm_bound
        row = np.empty((len(op.stored), 2))
        last = [None]  # the latest residual computed

        def residual(x):
            last[0] = -op.apply(x, p)
            return last[0]

        for i, k in enumerate(np.concatenate([J, rest])):
            p = psi[k]
            # the right-hand side -L(0, p) is one gather over the edge rows
            z = np.concatenate([self.zero, np.transpose(p).ravel()])
            edge_b = -np.einsum("ij,ij->i", self.edge_vals, z[self.edge_cols])
            target = RELATIVE_TOLERANCE * _norm(edge_b)
            if i < len(J):
                b = self.zero.copy()
                b[op.edge] = edge_b
                x = self.precond(b)
                _refine(residual, self.precond, x, target)
                if i < kept:
                    X[i], B[i], res_norm[i], z_norm[i] = x, edge_b, _norm(last[0]), _norm(x) + _norm(z)
            else:
                a = A[:, k]
                x = np.einsum("i,ij->j", a, X)
                bound = _norm(edge_b - np.einsum("i,ij->j", a, B)) + np.einsum("i,i->", np.abs(a), res_norm + rounding * z_norm)
                _refine(residual, self.precond, x, target, bound)
            out.write(k, op.rows(x, p, row))
        return out
