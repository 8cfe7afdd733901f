"""Stage orchestration: simulate -> solve-motion -> reconstruct -> evaluate.

Stages communicate exclusively through files in the output directory, so
partial runs and re-runs are possible; identical config and seed give
bit-identical artifacts.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from . import formats
from . import reconstruct as recon  # called through the module, where perfbench/tracing.py times it
from .boundary import BoundaryData, low_pass, perturb, sample_boundary, samples_read, sparsify
from .config import PipelineConfig
from .deformation import AnalyticDeformation, FieldDeformation, NodeMap
from .elastic import MaterialParams, QuasiStaticSolver
from .errors import ConfigError, MismatchError, MissingInputError
from .grid import Grid2D, make_grid
from .metrics import evaluate
from .phantom import rasterize_f0
from .projection import simulate_scan
from .reconstruct import Image

solve = QuasiStaticSolver.solve  # perfbench/tracing.py times pipeline.solve

PDE_MODES = ("exact", "noisy", "sparse")
RECONSTRUCTIONS = ("recon_static", "recon_exact_motion") + tuple(f"recon_pde_{m}" for m in PDE_MODES)


def _out(cfg: PipelineConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _make_output_dir(cfg: PipelineConfig) -> None:
    """Creates the output directory; ConfigError when the OS refuses."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.output_dir!r}: {exc.strerror or exc}") from exc


def _remove_outputs(cfg: PipelineConfig, names: list[str]) -> None:
    """Deletes the named outputs of an earlier run, so that a stage that
    fails leaves none of them; one that cannot be deleted is a ConfigError."""
    for name in names:
        path = _out(cfg, name)
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


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
    """The boundary data of ``mode`` at the snapshot times, blended from the
    config's sample times. Only the samples the blend reads, at most two
    per snapshot, are sampled and then perturbed and low-passed, or
    sparsified."""
    samples = np.linspace(0.0, cfg.scan.t_end, cfg.boundary.num_sample_times)
    times = snapshot_times(cfg)
    read = samples_read(samples, times)
    bd = sample_boundary(cfg.motion, grid, samples[read])
    spec = cfg.boundary.spec
    if mode == "noisy":
        bd = low_pass(perturb(bd, spec, taken=read), grid, spec.noise_std)
    elif mode == "sparse":
        bd = sparsify(bd, spec, grid)
    elif mode != "exact":
        raise ConfigError(f"unknown boundary mode {mode!r}")
    return bd.at_times(times)


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


def solve_motion(cfg: PipelineConfig, mode: str, solver: QuasiStaticSolver | None = None, out=None):
    """Interior motion from the boundary data of ``mode``, solved at each
    snapshot time by ``solver`` (``motion_solver(cfg)`` when omitted) into
    ``out`` (an in-memory history when omitted), which is returned."""
    if solver is None:
        solver = motion_solver(cfg)
    bd = boundary_data_for_mode(cfg, solver.grid, mode)
    return solve(solver, bd.values, bd.times, out)


def stage_simulate(cfg: PipelineConfig) -> list[str]:
    """The sinogram and ground truth; an earlier run's are deleted first,
    so a run that fails leaves none of them."""
    written = ["sinogram.sino", "ground_truth.img", "ground_truth.pgm"]
    _make_output_dir(cfg)
    _remove_outputs(cfg, written)
    sino = simulate_scan(cfg.phantom, cfg.motion, cfg.scan)
    formats.write_sinogram(_out(cfg, "sinogram.sino"), sino)
    gt = Image(cfg.image, rasterize_f0(cfg.phantom, cfg.image.nx, cfg.image.ny))
    formats.write_image(_out(cfg, "ground_truth.img"), gt)
    formats.write_pgm(_out(cfg, "ground_truth.pgm"), gt)
    return written


def stage_solve_motion(cfg: PipelineConfig, modes: tuple[str, ...] | None = None) -> list[str]:
    """The field of each of ``modes`` (the config's when omitted); an earlier
    run's are deleted first, so a run that fails leaves none of them."""
    _make_output_dir(cfg)
    if modes is None:
        modes = (cfg.boundary.spec.mode,)
    _remove_outputs(cfg, [f"field_{mode}.field" for mode in modes])
    solver = motion_solver(cfg)
    written = []
    for mode in modes:
        name = f"field_{mode}.field"
        # each snapshot is written as it is solved; a failed solve deletes the file
        with formats.FieldWriter(_out(cfg, name), solver.grid, snapshot_times(cfg)) as field:
            solve_motion(cfg, mode, solver=solver, out=field)
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
    """The images of every reconstruction the output directory has inputs
    for. An earlier run's images are deleted first, and a run that fails
    deletes what it wrote, so no stale image is left for `evaluate`."""
    _make_output_dir(cfg)
    _remove_outputs(cfg, [name + ext for name in RECONSTRUCTIONS for ext in (".img", ".pgm")])
    written = []

    def emit(name: str, img: Image):
        written.extend([name + ".img", name + ".pgm"])  # before the writes, so a cut one is deleted too
        formats.write_image(_out(cfg, name + ".img"), img)
        formats.write_pgm(_out(cfg, name + ".pgm"), img)

    try:
        sino = _load_sinogram_checked(cfg)
        filtered = recon.filter_sinogram(sino, cfg.filter)
        geometry = sino.geometry
        del sino  # the raw values are not read again: a V x D array less next to the fields
        emit("recon_static", recon.backproject_static(filtered, geometry, cfg.image))
        emit("recon_exact_motion", recon.backproject(filtered, geometry, AnalyticDeformation(cfg.motion), cfg.image))
        node_map = None  # one grid, node map and pixel point map (NodeMap.at) for all fields, built for the first
        for mode in PDE_MODES:
            path = _out(cfg, f"field_{mode}.field")
            if os.path.isfile(path):
                node_map = node_map or NodeMap(solver_grid(cfg))
                with load_field_provider(cfg, path, node_map) as provider:
                    emit(f"recon_pde_{mode}", recon.backproject(filtered, geometry, provider, cfg.image))
    except BaseException:
        _remove_outputs(cfg, written)
        raise
    return written


def stage_evaluate(cfg: PipelineConfig) -> list[str]:
    """``report.json``; an earlier run's report is deleted first, so a run
    that fails leaves none."""
    _remove_outputs(cfg, ["report.json"])
    gt = formats.read_image(formats.require_file(_out(cfg, "ground_truth.img")))
    report: dict = {"reference": "ground_truth.img", "metrics_kind": "artifact metrics", "images": {}}
    found = False
    for name in RECONSTRUCTIONS:
        path = _out(cfg, name + ".img")
        if not os.path.isfile(path):
            continue
        found = True
        img = formats.read_image(path)
        report["images"][name] = evaluate(img, gt, cfg.phantom).to_dict()
    if not found:
        expected = ", ".join(n + ".img" for n in RECONSTRUCTIONS)
        raise MissingInputError(f"evaluate: no reconstruction image in {cfg.output_dir}; expected any of {expected}")
    text = json.dumps(report, indent=2, allow_nan=False)  # strict JSON: no bare NaN or Infinity
    with formats.open_artifact(_out(cfg, "report.json")) as f:
        f.write((text + "\n").encode("utf-8"))
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
