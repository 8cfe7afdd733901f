"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Shared artifacts (default scan, ground truth, baseline reconstructions)
are computed once per session. Criterion 6 is expected to fail: the
stated target value is arithmetically inconsistent with the stated
formula (see the assertion message).
"""

import math
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from dynact.config import default_config, dump_config
from dynact.deformation import AnalyticDeformation, FieldDeformation
from dynact.domain import RectangleDomain
from dynact.elastic import MaterialParams, cfl_dt
from dynact.grid import fill_ghost, make_grid
from dynact.motion import eval_ft, identity_motion
from dynact.phantom import Ellipse, PhantomSpec, rasterize_f0
from dynact.pipeline import solve_motion
from dynact.projection import ScanGeometry, radon_numeric_oracle, simulate_scan
from dynact.reconstruct import FilterSpec, Image, ImageSpec, backproject, backproject_static, filter_sinogram

from test_elastic import _mms_rectangle_error
from test_pipeline import tiny_config


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def acc():
    """Default-config artifacts shared across criteria."""
    cfg = default_config()
    sino = simulate_scan(cfg.phantom, cfg.motion, cfg.scan)
    gt = Image(cfg.image, rasterize_f0(cfg.phantom, cfg.image.nx, cfg.image.ny))
    filtered = filter_sinogram(sino, cfg.filter)
    rec_static = backproject_static(filtered, sino.geometry, cfg.image)
    rec_exact = backproject(filtered, sino.geometry, AnalyticDeformation(cfg.motion), cfg.image)
    pts = cfg.image.pixel_points()
    body = cfg.phantom.require_labeled("body")
    eroded = Ellipse(
        body.center, (0.9 * body.semi_axes[0], 0.9 * body.semi_axes[1]), body.rotation
    )
    interior_mask = eroded.inside(pts)

    def rmse(img: Image, mask=...) -> float:
        # the default mask, Ellipsis, selects every pixel
        return float(np.sqrt(np.mean((img.values - gt.values)[mask] ** 2)))

    return SimpleNamespace(
        cfg=cfg,
        sino=sino,
        gt=gt,
        rec_static=rec_static,
        rec_exact=rec_exact,
        pts=pts,
        interior_mask=interior_mask,
        rmse=rmse,
        rmse_static=rmse(rec_static),
        rmse_exact=rmse(rec_exact),
        static_interior=rmse(rec_static, interior_mask),
    )


def test_criterion_01_forward_model_oracle(acc):
    t0 = time.time()
    cfg, sino = acc.cfg, acc.sino
    geo = cfg.scan
    rng = np.random.default_rng(20260808)
    n_idx = rng.integers(0, geo.num_angles, 200)
    m_idx = rng.integers(0, geo.num_detectors, 200)
    worst_rel = 0.0
    zeros_ok = True
    for n, m in zip(n_idx, m_idx):
        t = geo.view_times[n]
        oracle = radon_numeric_oracle(
            lambda p: eval_ft(cfg.phantom, cfg.motion, t, p),
            geo.angles[n],
            geo.detectors[m],
            step=5e-6,
        )
        v = sino.values[n, m]
        if oracle == 0.0:
            zeros_ok &= v == 0.0
        else:
            worst_rel = max(worst_rel, abs(v - oracle) / abs(oracle))
    elapsed = time.time() - t0
    ok = zeros_ok and worst_rel <= 1e-4 and elapsed < 120
    _report(1, "forward-model oracle (660x451, 200 entries)", ok,
            f"worst rel {worst_rel:.2e}, zeros exact: {zeros_ok}, {elapsed:.0f}s")
    assert zeros_ok, "entries on lines missing the phantom must be exactly zero"
    assert worst_rel <= 1e-4
    assert elapsed < 120


def test_criterion_02_static_fbp_calibration():
    t0 = time.time()
    disk = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(1.0, 1.0), density=1.0)])
    geo = ScanGeometry()
    sino = simulate_scan(disk, identity_motion(), geo)
    ispec = ImageSpec(257, 257)
    img = backproject_static(filter_sinogram(sino, FilterSpec.for_geometry(geo)), sino.geometry, ispec)
    pts = ispec.pixel_points()
    r = np.hypot(pts[..., 0], pts[..., 1])
    interior = r <= 1.0 - 3 * (2.0 / 256)
    mean = float(img.values[interior].mean())
    rmse = float(np.sqrt(np.mean((img.values[interior] - 1.0) ** 2)))
    elapsed = time.time() - t0
    ok = abs(mean - 1.0) < 0.02 and rmse < 0.05 and elapsed < 60
    _report(2, "static FBP calibration (unit disk)", ok,
            f"interior mean {mean:.5f}, eroded RMSE {rmse:.5f}, {elapsed:.0f}s")
    assert abs(mean - 1.0) < 0.02
    assert rmse < 0.05
    assert elapsed < 60


def test_criterion_03_zero_motion_collapse(acc):
    rec_id = backproject(filter_sinogram(acc.sino, acc.cfg.filter), acc.sino.geometry, AnalyticDeformation(identity_motion()), acc.cfg.image)
    diff = float(np.abs(rec_id.values - acc.rec_static.values).max())
    ok = diff <= 1e-12
    _report(3, "zero-motion collapse", ok, f"max abs diff {diff:.2e}")
    assert diff <= 1e-12


@pytest.mark.slow
def test_criterion_04_solver_convergence(unit_square_grid):
    t0 = time.time()
    errs = [_mms_rectangle_error(n) for n in (64, 128, 256)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    # spatially constant quadratic state is reproduced exactly
    from dynact.elastic import solve

    g = unit_square_grid
    a_c, b_c = 0.3, -0.2
    rho = 2.0
    params = MaterialParams(
        lame_lambda=1.3,
        lame_mu=0.7,
        rho0=np.full(g.shape, rho),
        forcing=lambda t: np.tile([2 * rho * a_c, 2 * rho * b_c], g.shape + (1,)),
    )
    nb = len(g.boundary_ij)
    hist = solve(
        g, params, None,
        lambda t: np.tile([a_c * t * t, b_c * t * t], (nb, 1)),
        t_end=0.8, output_times=[0.8],
    )
    t = hist.times[0]
    # the stored rows are the non-exterior nodes
    quad_err = float(np.abs(hist.fields[0] - [a_c * t * t, b_c * t * t]).max())
    elapsed = time.time() - t0
    ok = min(orders) >= 1.9 and quad_err < 1e-10 and elapsed < 300
    _report(4, "solver convergence (rectangle MMS)", ok,
            f"orders {orders[0]:.2f}/{orders[1]:.2f}, quadratic err {quad_err:.1e}, {elapsed:.0f}s")
    assert min(orders) >= 1.9, f"errors {errs}"
    assert quad_err < 1e-10
    assert elapsed < 300


def test_criterion_05_ghost_node_exactness():
    affine_worst = 0.0
    quad_errs = []
    for scale in (1.0, 0.5, 0.25):
        dom = Ellipse(
            center=(3.0 * scale, -1.0 * scale),
            semi_axes=(np.sqrt(10) * scale, np.sqrt(10) * scale),
        )
        x = scale * np.array([-2.0, 0.0, 2.0, 4.0, 6.0])
        y = scale * np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
        g = make_grid(x, y, dom)
        X, Y = g.pos[..., 0], g.pos[..., 1]
        gi = g.ghosts.ghost
        f = np.stack([1.5 * X - 0.7 * Y + 0.2, -0.3 * X + 2.1 * Y - 1.0], axis=-1)
        expect = f.copy()
        f[gi[:, 0], gi[:, 1]] = 0.0
        fill_ghost(g, f)
        affine_worst = max(
            affine_worst, float(np.abs(f[gi[:, 0], gi[:, 1]] - expect[gi[:, 0], gi[:, 1]]).max())
        )
        h = X**2 + Y**2
        f = np.stack([h, h], axis=-1)
        expect = f.copy()
        f[gi[:, 0], gi[:, 1]] = 0.0
        fill_ghost(g, f)
        quad_errs.append(float(np.abs(f[gi[:, 0], gi[:, 1]] - expect[gi[:, 0], gi[:, 1]]).max()))
    ratios = [quad_errs[i] / quad_errs[i + 1] for i in range(2)]
    ok = affine_worst < 1e-12 and min(ratios) >= 3.6
    _report(5, "ghost-node exactness", ok,
            f"affine worst {affine_worst:.1e}, quadratic ratios {ratios[0]:.2f}/{ratios[1]:.2f}")
    assert affine_worst < 1e-12, "affine fields must reproduce to machine precision"
    assert min(ratios) >= 3.6, f"quadratic errors {quad_errs}"


def test_criterion_06_cfl_value():
    coords = np.arange(-0.75, 0.75 + 1e-12, 2.0 / 256)
    g = make_grid(coords, coords, RectangleDomain(-0.5, 0.5, -0.5, 0.5))
    p = MaterialParams(lame_lambda=3460.0, lame_mu=1480.0, rho0=np.full(g.shape, 1050.0))
    dt = cfl_dt(p, g, safety=1.0)
    by_hand = 1.0 / (math.sqrt((3460.0 + 2 * 1480.0) / 1050.0) * 256.0)
    assert dt == pytest.approx(by_hand, abs=1e-12), "implementation disagrees with the formula"
    target, tol = 1.5800e-3, 1e-7
    ok = abs(dt - target) <= tol
    _report(6, "CFL value check", ok,
            f"computed {dt:.7e}, target {target:.4e}+-{tol:.0e}, |diff| {abs(dt-target):.2e}")
    assert abs(dt - target) <= tol, (
        "stated target 1.5800e-3 s is arithmetically inconsistent with the stated "
        "formula: 1/(sqrt((3460+2*1480)/1050)*256) = 1.5797457e-3 s "
        "(sqrt(6420/1050) = 2.4727084, not 2.47267); the implementation follows the "
        "formula, so this criterion fails by 2.5e-7 > 1e-7"
    )


@pytest.mark.slow
def test_criterion_07_motion_compensation_ordering(acc):
    ratio = acc.rmse_exact / acc.rmse_static
    tum = acc.cfg.phantom.require_labeled("tumour")
    tmask = tum.contains(acc.pts)
    truth = float(acc.gt.values[tmask].mean())
    dyn_err = abs(float(acc.rec_exact.values[tmask].mean()) - truth) / truth
    static_err = abs(float(acc.rec_static.values[tmask].mean()) - truth) / truth
    ok = ratio < 0.6 and dyn_err < 0.25 and static_err > dyn_err
    _report(7, "motion-compensation ordering (257^2)", ok,
            f"RMSE dyn/static {ratio:.3f}, tumour err dyn {dyn_err:.3f} vs static {static_err:.3f}")
    assert ratio < 0.6
    assert dyn_err < 0.25
    assert static_err > dyn_err, "static reconstruction must miss the tumour by more"


@pytest.mark.slow
def test_criterion_08_pde_estimated_motion(acc):
    # PDE on a 129^2 grid (the criteria pin scan and reconstruction
    # geometry only; the displacement field is smooth at this resolution)
    cfg = acc.cfg
    import copy

    c2 = copy.deepcopy(cfg)
    c2.solver.grid_nx = c2.solver.grid_ny = 129
    hist = solve_motion(c2, "exact")
    # stability regression guard: bounded by 10x the boundary amplitude
    max_u = float(np.abs(hist.fields).max())
    from dynact.boundary import sample_boundary

    psi_max = float(
        np.abs(
            sample_boundary(cfg.motion, hist.grid, np.linspace(0, cfg.scan.t_end, 33)).values
        ).max()
    )
    rec_pde = backproject(filter_sinogram(acc.sino, cfg.filter), acc.sino.geometry, FieldDeformation(hist), cfg.image)
    r_pde = acc.rmse(rec_pde)
    ratio_exact = r_pde / acc.rmse_exact
    ratio_static = r_pde / acc.rmse_static
    ok = ratio_exact <= 1.25 and ratio_static < 0.75 and max_u <= 10 * psi_max
    _report(8, "PDE-estimated motion (exact boundary)", ok,
            f"RMSE {r_pde:.4f}: {ratio_exact:.3f}x exact (<=1.25), {ratio_static:.3f}x static (<0.75), "
            f"max|u| {max_u:.3f} <= 10*max|psi| {10*psi_max:.3f}")
    assert ratio_exact <= 1.25
    assert ratio_static < 0.75
    assert max_u <= 10 * psi_max


@pytest.mark.slow
def test_criterion_09_robustness(acc):
    """Noisy (stds 0.1, 0.25) and sparse (32, 16 nodes) boundary data;
    interior RMSE on the domain eroded by 10% of its radius must beat the
    static reconstruction's interior RMSE.

    The fields come from solve-motion's quasi-static solve, which solves
    the equilibrium Navier-Cauchy equation at each snapshot, from noisy
    data low-passed in the boundary angle (`boundary.low_pass`).
    Measured: noisy-0.1 0.0665, noisy-0.25 0.1027, sparse-32 0.0408,
    sparse-16 0.0410 against a static 0.1675.

    The explicit elastodynamic scheme fails the noisy half (0.3205 and
    0.4735 when it still returned a field), for two measured reasons on
    a 129^2 noisy-0.1 run. Boundary noise travels into the interior as
    undamped elastic waves: by t = 14 s the interior RMS deviation from
    the exact-data field is 0.16, more than the largest boundary
    displacement of the true motion (0.13). Then the snapped-boundary
    closure diverges: from t = 57 s the deviation grows exponentially,
    to 19.5 at t = 157 s with max|u| = 50.1 against max|psi| = 0.50.
    That scheme now raises InstabilityError on such growth (at t = 108 s
    for both noise levels).
    """
    cfg = acc.cfg
    import copy

    results = {}
    for tag, mode, std, nodes in [
        ("noisy-0.1", "noisy", 0.1, 32),
        ("noisy-0.25", "noisy", 0.25, 32),
        ("sparse-32", "sparse", 0.1, 32),
        ("sparse-16", "sparse", 0.1, 16),
    ]:
        c2 = copy.deepcopy(cfg)
        c2.solver.grid_nx = c2.solver.grid_ny = 129
        c2.boundary.spec.noise_std = std
        c2.boundary.spec.num_nodes = nodes
        hist = solve_motion(c2, mode)
        rec = backproject(filter_sinogram(acc.sino, c2.filter), acc.sino.geometry, FieldDeformation(hist), c2.image)
        results[tag] = acc.rmse(rec, acc.interior_mask)
    ok = all(v < acc.static_interior for v in results.values())
    detail = ", ".join(f"{k} {v:.4f}" for k, v in results.items())
    _report(9, "robust boundary data", ok,
            f"{detail} vs static interior {acc.static_interior:.4f}")
    for tag, v in results.items():
        assert v < acc.static_interior, (
            f"{tag}: interior RMSE {v:.4f} >= static {acc.static_interior:.4f}; "
            "the quasi-static solve measured 0.0665/0.1027/0.0408/0.0410. An "
            "elastodynamic solve carries boundary noise inward as undamped waves "
            "and diverges on snapped boundaries (see test docstring)"
        )


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    # the CLI in fresh interpreters whose BLAS thread count differs; the
    # count is read when numpy is imported, so it cannot vary in-process
    cfg_path = str(tmp_path / "tiny.json")
    dump_config(tiny_config("out"), cfg_path)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    max_threads = str(os.cpu_count() or 8)

    def run_once(threads: str) -> dict[str, bytes]:
        out_dir = str(tmp_path / f"threads_{threads}")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        cmd = [sys.executable, "-m", "dynact.cli", "all", "--config", cfg_path, "--out", out_dir]
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        data = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as f:
                data[name] = f.read()
        return data

    a = run_once("1")
    b = run_once(max_threads)
    same_names = set(a) == set(b)
    same_bytes = same_names and all(a[k] == b[k] for k in a)
    _report(10, f"full-pipeline determinism (OPENBLAS_NUM_THREADS 1 vs {max_threads})", same_bytes,
            f"{len(a)} artifacts compared")
    assert same_names
    assert same_bytes
