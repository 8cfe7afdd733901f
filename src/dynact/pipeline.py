"""Stage orchestration: simulate -> solve-motion -> reconstruct -> evaluate.

Stages communicate exclusively through files in the output directory, so
partial runs and re-runs are possible; identical config and seed give
bit-identical artifacts.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
from dataclasses import replace

import numpy as np

from . import formats
from .boundary import BoundaryData, perturb, sample_boundary, sparsify
from .config import PipelineConfig
from .deformation import AnalyticDeformation, FieldDeformation, NodeMap
from .elastic import DisplacementHistory, MaterialParams, QuasiStaticSolver
from .errors import ConfigError, MismatchError
from .grid import Grid2D, make_grid
from .metrics import evaluate
from .phantom import rasterize_f0
from .projection import simulate_scan
from .reconstruct import Image

# the package re-exports the function reconstruct(), hiding the module;
# stage_reconstruct calls through the module, where perfbench/tracing.py
# times filter_sinogram and backproject
recon = importlib.import_module(".reconstruct", __package__)
solve = QuasiStaticSolver.solve  # perfbench/tracing.py times pipeline.solve

PDE_MODES = ("exact", "noisy", "sparse")


def _out(cfg: PipelineConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def solver_grid(cfg: PipelineConfig) -> Grid2D:
    x = np.linspace(-1.0, 1.0, cfg.solver.grid_nx)
    y = np.linspace(-1.0, 1.0, cfg.solver.grid_ny)
    return make_grid(x, y, cfg.phantom.require_labeled("body"))


def check_prior_region(cfg: PipelineConfig) -> None:
    """ConfigError unless the spine prior region lies inside the body."""
    spine = cfg.phantom.require_labeled("spine")
    body = cfg.phantom.require_labeled("body")
    if not np.all(body.inside(spine.boundary_points(64))):
        raise ConfigError("spine prior region lies outside the solver domain")


def boundary_data_for_mode(cfg: PipelineConfig, grid: Grid2D, mode: str) -> BoundaryData:
    times = np.linspace(0.0, cfg.scan.t_end, cfg.boundary.num_sample_times)
    bd = sample_boundary(cfg.motion, grid, times)
    if mode == "exact":
        return bd
    spec = replace(cfg.boundary.spec, mode=mode)
    if mode == "noisy":
        return perturb(bd, spec)
    if mode == "sparse":
        return sparsify(bd, spec, grid)
    raise ConfigError(f"unknown boundary mode {mode!r}")


def motion_solver(cfg: PipelineConfig) -> QuasiStaticSolver:
    """The equilibrium Navier-Cauchy solver on the config's grid and material.

    The density prior does not enter the equilibrium, but a misplaced
    prior region is still a config error.
    """
    check_prior_region(cfg)
    params = MaterialParams(lame_lambda=cfg.material.lame_lambda, lame_mu=cfg.material.lame_mu)
    return QuasiStaticSolver(solver_grid(cfg), params)


def snapshot_times(cfg: PipelineConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.scan.t_end, cfg.solver.num_snapshots)


def solve_motion(cfg: PipelineConfig, mode: str, solver: QuasiStaticSolver | None = None) -> DisplacementHistory:
    """Interior motion from the boundary data of ``mode``, solved at each
    snapshot time by ``solver`` (``motion_solver(cfg)`` when omitted)."""
    if solver is None:
        solver = motion_solver(cfg)
    bd = boundary_data_for_mode(cfg, solver.grid, mode)
    return solve(solver, bd.at_time, snapshot_times(cfg))


def stage_simulate(cfg: PipelineConfig) -> list[str]:
    os.makedirs(cfg.output_dir, exist_ok=True)
    sino = simulate_scan(cfg.phantom, cfg.motion, cfg.scan)
    formats.write_sinogram(_out(cfg, "sinogram.sino"), sino)
    gt = Image(cfg.image, rasterize_f0(cfg.phantom, cfg.image.nx, cfg.image.ny))
    formats.write_image(_out(cfg, "ground_truth.img"), gt)
    formats.write_pgm(_out(cfg, "ground_truth.pgm"), gt)
    return ["sinogram.sino", "ground_truth.img", "ground_truth.pgm"]


def stage_solve_motion(cfg: PipelineConfig, modes: tuple[str, ...] | None = None) -> list[str]:
    os.makedirs(cfg.output_dir, exist_ok=True)
    if modes is None:
        modes = (cfg.boundary.spec.mode,)
    solver = motion_solver(cfg)
    written = []
    for mode in modes:
        name = f"field_{mode}.field"
        # solved into the write, so no history outlives it
        formats.write_field(_out(cfg, name), solve_motion(cfg, mode, solver=solver))
        written.append(name)
    return written


def _load_sinogram_checked(cfg: PipelineConfig):
    """The stage's sinogram; MismatchError when its geometry or time map
    disagrees with the config."""
    sino = formats.read_sinogram(formats.require_file(_out(cfg, "sinogram.sino")))
    if sino.geometry != cfg.scan:
        raise MismatchError("sinogram.sino geometry or time map disagrees with the config scan")
    return sino


@contextlib.contextmanager
def load_field_provider(cfg: PipelineConfig, path: str, node_map: NodeMap):
    """The provider of a field file, open for the ``with`` block. ``node_map``
    is the one of ``solver_grid(cfg)``, which every field of the config
    shares; a file solved on another lattice, domain or snapshot times is a
    MismatchError."""
    with formats.FieldFile(formats.require_file(path), node_map.grid) as field:
        if not np.array_equal(field.times, snapshot_times(cfg)):
            raise MismatchError(f"{path}: its {len(field.times)} snapshot times are not the config's {cfg.solver.num_snapshots} over [0, t_end]")
        yield FieldDeformation(field, node_map)


def stage_reconstruct(cfg: PipelineConfig) -> list[str]:
    os.makedirs(cfg.output_dir, exist_ok=True)
    sino = _load_sinogram_checked(cfg)
    written = []

    def emit(name: str, img: Image):
        formats.write_image(_out(cfg, name + ".img"), img)
        formats.write_pgm(_out(cfg, name + ".pgm"), img)
        written.extend([name + ".img", name + ".pgm"])

    filtered = recon.filter_sinogram(sino, cfg.filter)
    emit("recon_static", recon.backproject_static(filtered, sino.geometry, cfg.image))
    emit("recon_exact_motion", recon.backproject(filtered, sino.geometry, AnalyticDeformation(cfg.motion), cfg.image))
    node_map = None  # one grid and node map for all fields, built for the first
    for mode in PDE_MODES:
        path = _out(cfg, f"field_{mode}.field")
        if os.path.isfile(path):
            node_map = node_map or NodeMap(solver_grid(cfg))
            with load_field_provider(cfg, path, node_map) as provider:
                emit(f"recon_pde_{mode}", recon.backproject(filtered, sino.geometry, provider, cfg.image))
    return written


def stage_evaluate(cfg: PipelineConfig) -> list[str]:
    gt = formats.read_image(formats.require_file(_out(cfg, "ground_truth.img")))
    report: dict = {"reference": "ground_truth.img", "metrics_kind": "artifact metrics", "images": {}}
    names = ["recon_static", "recon_exact_motion"] + [f"recon_pde_{m}" for m in PDE_MODES]
    found = False
    for name in names:
        path = _out(cfg, name + ".img")
        if not os.path.isfile(path):
            continue
        found = True
        img = formats.read_image(path)
        report["images"][name] = evaluate(img, gt, cfg.phantom).to_dict()
    if not found:
        raise ConfigError("evaluate: no reconstruction images found in the output directory")
    out = _out(cfg, "report.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return ["report.json"]


STAGES = ("simulate", "solve-motion", "reconstruct", "evaluate", "all")


def run(stage: str, cfg: PipelineConfig) -> list[str]:
    """Run one stage (or all); returns the artifact names written."""
    if stage == "simulate":
        return stage_simulate(cfg)
    if stage == "solve-motion":
        return stage_solve_motion(cfg)
    if stage == "reconstruct":
        return stage_reconstruct(cfg)
    if stage == "evaluate":
        return stage_evaluate(cfg)
    if stage == "all":
        written = stage_simulate(cfg)
        written += stage_solve_motion(cfg, modes=PDE_MODES)
        written += stage_reconstruct(cfg)
        written += stage_evaluate(cfg)
        return written
    raise ConfigError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
