"""The three benchmark workloads: config and input generation, the timed
stage calls, and the output checks.

Every workload starts from the shipped default config (451 detectors,
133 snapshots, default phantom, motion, material and filter) with three
scalings that keep one run inside the benchmark's time budget:

* The image raster is 129^2 instead of 257^2, and the scan has 330
  views instead of 660 over the same window (one breathing period).
  Backprojection cost is views x pixels, so every reconstruction costs an
  eighth of the default while the per-view work keeps its shape.
* Both prior densities are multiplied by DENSITY_SCALE = 8^2. The
  elastic wave speed drops 8x, so the CFL step grows 8x and the explicit
  solve takes 8x fewer steps over the same breathing period, each step
  costing the same as at the shipped density. The motion stays
  quasi-static: (omega L / c)^2 grows from about 6e-4 to about 0.04, and
  the exact-mode field stays within 3e-4 of the analytic affine motion.
  Simulate, reconstruct and evaluate are untouched by this scaling.

``small=True`` shrinks grids, raster and view count further for the
benchmark's self-test; its numbers are not comparable to full runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from dynact import formats, pipeline
from dynact.boundary import BoundaryData, BoundarySpec, perturb
from dynact.config import PipelineConfig, default_config, dump_config, load_config
from dynact.elastic import DisplacementHistory
from dynact.errors import DynactError
from dynact.grid import NodeKind

DENSITY_SCALE = 64.0
IMAGE_SIZE = 129
NUM_VIEWS = 330
PDE_MODES = pipeline.PDE_MODES
RECONS = ["recon_static", "recon_exact_motion"] + [f"recon_pde_{m}" for m in PDE_MODES]

# Check tolerances, set from the values measured with the scaled configs
# above; README.md gives the measured numbers.
PDE_VS_MOTION_REL_TOL = 0.10  # |rmse_pde_<exact|sparse> / rmse_exact_motion - 1|
FIELD_MAX_ERR_TOL = 1e-3  # interior |u - (phi(t, x) - x)|, boundary amplitude ~0.13


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int  # solver grid nodes per axis
    timed_stages: tuple[str, ...]
    outputs: tuple[str, ...]  # artifacts the timed stages must write


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "all_81",
            81,
            ("all",),
            ("sinogram.sino", "ground_truth.img", "ground_truth.pgm")
            + tuple(f"field_{m}.field" for m in PDE_MODES)
            + tuple(f"{r}.{ext}" for r in RECONS for ext in ("img", "pgm"))
            + ("report.json",),
        ),
        Workload(
            "reconstruct_fields",
            129,
            ("reconstruct", "evaluate"),
            tuple(f"{r}.{ext}" for r in RECONS for ext in ("img", "pgm")) + ("report.json",),
        ),
        Workload("solve_129", 129, ("solve-motion",), ("field_exact.field",)),
    )
}


class Ops:
    """Counts operations (stage calls and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def stage(self, stage: str, cfg: PipelineConfig) -> bool:
        self.attempted += 1
        try:
            pipeline.run(stage, cfg)
        except DynactError as exc:
            self.failed += 1
            self.failures.append(f"stage {stage}: {exc}")
            return False
        return True


def _rescan(cfg: PipelineConfig, num_angles: int) -> None:
    """Change the view count, keeping the scan window (one breathing period)."""
    cfg.scan.time_scale *= cfg.scan.num_angles / num_angles
    cfg.scan.num_angles = num_angles


def make_config(w: Workload, seed: int, out_dir: str, small: bool = False) -> PipelineConfig:
    cfg = default_config()
    _rescan(cfg, NUM_VIEWS)
    cfg.seed = seed
    cfg.boundary.spec.rng_seed = seed
    cfg.boundary.spec.mode = "exact"
    cfg.output_dir = out_dir
    cfg.solver.grid_nx = cfg.solver.grid_ny = w.grid
    cfg.image.nx = cfg.image.ny = IMAGE_SIZE
    cfg.prior.spine_density *= DENSITY_SCALE
    cfg.prior.soft_tissue_density *= DENSITY_SCALE
    if small:
        cfg.solver.grid_nx = cfg.solver.grid_ny = 41
        cfg.image.nx = cfg.image.ny = 33
        _rescan(cfg, 66)
    return cfg


def write_analytic_fields(cfg: PipelineConfig, seed: int) -> None:
    """field_{exact,noisy,sparse}.field holding phi(t, x) - x at the snapshot
    times on the solver grid; the noisy copy carries the config's boundary
    noise on its boundary nodes, drawn with the workload seed."""
    grid = pipeline.solver_grid(cfg)
    times = np.linspace(0.0, cfg.scan.t_end, cfg.solver.num_snapshots)
    pos = grid.pos
    exact = np.stack([cfg.motion.phi(t, pos) - pos for t in times])
    b_i, b_j = grid.boundary_ij.T
    spec = BoundarySpec(mode="noisy", noise_std=cfg.boundary.spec.noise_std, rng_seed=seed)
    noisy = exact.copy()
    noisy[:, b_i, b_j] = perturb(BoundaryData(times, exact[:, b_i, b_j]), spec).values
    for mode, fields in (("exact", exact), ("noisy", noisy), ("sparse", exact)):
        history = DisplacementHistory(times=times, fields=fields, grid=grid, dt=0.0, num_steps=0)
        formats.write_field(os.path.join(cfg.output_dir, f"field_{mode}.field"), history)


def setup(w: Workload, seed: int, work_dir: str, ops: Ops, small: bool = False) -> str:
    """Write the workload's config (and input files); returns the config path."""
    os.makedirs(work_dir, exist_ok=True)
    cfg = make_config(w, seed, work_dir, small)
    path = os.path.join(work_dir, "config.json")
    dump_config(cfg, path)
    if w.name == "reconstruct_fields":
        ops.stage("simulate", cfg)
        write_analytic_fields(cfg, seed)
    return path


def run_timed(w: Workload, config_path: str, ops: Ops) -> bool:
    """The timed part: load the config as the CLI does, run the stages."""
    cfg = load_config(config_path)
    return all(ops.stage(stage, cfg) for stage in w.timed_stages)


def clear_outputs(w: Workload, work_dir: str) -> None:
    for name in w.outputs:
        path = os.path.join(work_dir, name)
        if os.path.exists(path):
            os.remove(path)


def field_max_err(cfg: PipelineConfig, path: str) -> float:
    """Largest interior deviation of a solved field from phi(t, x) - x."""
    _, _, kind, times, fields = formats.read_field(path)
    pos = pipeline.solver_grid(cfg).pos
    inner = kind == int(NodeKind.INTERIOR)
    p = pos[inner]
    errs = [np.max(np.abs(u[inner] - (cfg.motion.phi(t, p) - p))) for t, u in zip(times, fields)]
    return float(np.max(errs))  # NaN if any value is NaN


def _near(value: float, ref: float) -> bool:
    return abs(value / ref - 1.0) <= PDE_VS_MOTION_REL_TOL


def check_report(work_dir: str, recons: list[str], ops: Ops) -> dict[str, float]:
    """Checks on report.json; returns rmse_<image> for every image in it."""
    with open(os.path.join(work_dir, "report.json"), encoding="utf-8") as f:
        images = json.load(f)["images"]
    for r in recons:
        rec = images.get(r, {})
        values = [rec.get("rmse"), rec.get("relative_l2"), rec.get("psnr"), *rec.get("region_rmse", {}).values()]
        ops.check(f"finite metrics {r}", all(isinstance(v, float) and np.isfinite(v) for v in values))
    q = {"rmse_" + name[len("recon_"):]: float(rec["rmse"]) for name, rec in images.items()}
    ops.check("rmse_exact_motion < rmse_static", q["rmse_exact_motion"] < q["rmse_static"])
    ops.check("rmse_pde_exact ~ rmse_exact_motion", _near(q["rmse_pde_exact"], q["rmse_exact_motion"]))
    return q


def check_outputs(w: Workload, config_path: str, ops: Ops) -> dict[str, float]:
    """Output checks of one timed part; returns the quality values found."""
    cfg = load_config(config_path)
    wd = cfg.output_dir
    for name in w.outputs:
        ops.check(f"exists {name}", os.path.isfile(os.path.join(wd, name)))
    quality: dict[str, float] = {}
    if "report.json" in w.outputs and os.path.isfile(os.path.join(wd, "report.json")):
        quality = check_report(wd, RECONS, ops)
        if w.name == "all_81":
            ops.check("rmse_pde_sparse ~ rmse_exact_motion", _near(quality["rmse_pde_sparse"], quality["rmse_exact_motion"]))
    field = os.path.join(wd, "field_exact.field")
    if w.name != "reconstruct_fields" and os.path.isfile(field):
        err = field_max_err(cfg, field)
        quality["field_max_err"] = err
        ops.check("field_max_err < tol", err < FIELD_MAX_ERR_TOL)
    return quality


def check_solved_field_reconstruction(config_path: str, ops: Ops) -> dict[str, float]:
    """solve_129 only: reconstruct with the solved field (untimed) and score it."""
    cfg = load_config(config_path)
    ok = ops.stage("simulate", cfg) and ops.stage("reconstruct", cfg) and ops.stage("evaluate", cfg)
    if not ops.check("exists report.json", ok and os.path.isfile(os.path.join(cfg.output_dir, "report.json"))):
        return {}
    return check_report(cfg.output_dir, ["recon_static", "recon_exact_motion", "recon_pde_exact"], ops)
