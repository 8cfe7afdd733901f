import copy
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dynact import deformation, elastic, formats, pipeline, reconstruct
from dynact.cli import main as cli_main
from dynact.config import config_from_dict, config_to_dict, default_config, dump_config
from dynact.errors import ConfigError, InstabilityError, MismatchError, MissingInputError
from dynact.grid import stored_nodes
from dynact.pipeline import (
    PDE_MODES,
    run,
    solve_motion,
    solver_grid,
    stage_evaluate,
    stage_reconstruct,
    stage_simulate,
    stage_solve_motion,
)


def tiny_config(out_dir: str):
    """Scaled-down pipeline config: small scan, 33^2 solver grid."""
    raw = config_to_dict(default_config())
    raw["output_dir"] = out_dir
    raw["scan"]["num_angles"] = 40
    raw["scan"]["num_detectors"] = 61
    raw["scan"]["time_scale"] = (2.0 * np.pi / 0.04) / 40
    raw["solver"]["grid_nx"] = 33
    raw["solver"]["grid_ny"] = 33
    raw["solver"]["num_snapshots"] = 9
    raw["boundary"]["num_sample_times"] = 41
    raw["filter"]["gamma"] = 2.0 / 60
    raw["filter"]["dft_size"] = 512
    raw["image"]["nx"] = 49
    raw["image"]["ny"] = 49
    return config_from_dict(raw)


def test_solve_motion_requires_spine_inside_body(thorax_config):
    # the equilibrium solve does not use the density prior, but a
    # misplaced prior region is still a config error
    cfg = copy.deepcopy(thorax_config)
    cfg.solver.grid_nx = cfg.solver.grid_ny = 33
    # move the spine outside the body ellipse
    for i, e in enumerate(cfg.phantom.ellipses):
        if e.label == "spine":
            cfg.phantom.ellipses[i] = replace(e, center=(0.9, 0.0))
    with pytest.raises(ConfigError, match="spine"):
        solve_motion(cfg, "exact")


def test_benchmark_hooks_exist(monkeypatch):
    # perfbench/tracing.py wraps module attributes such as pipeline.make_grid,
    # pipeline.solve, pipeline.FieldDeformation and reconstruct.backproject;
    # entering it raises AttributeError when one of them is dropped or renamed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    with tracing.instrument(tracing.Tracer()):
        pass


def test_numpy_is_the_only_third_party_import():
    # numpy is the one declared dependency: importing dynact and its
    # command line (which loads every module) in a fresh interpreter loads
    # no other module from outside the standard library (modules that the
    # interpreter's start-up loads are not counted)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dynact, dynact.cli\n"
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    loaded = set(_run_fresh(code).split())
    assert "dynact" in loaded
    assert loaded - {"dynact", "numpy"} <= set(sys.stdlib_module_names)


def test_package_binds_each_module_it_loads_under_its_name():
    # `import dynact` loads the package's modules and rebinds none of their
    # names: dynact.reconstruct is the module, not its one-call function
    code = (
        "import sys\n"
        "import dynact\n"
        "names = [m.split('.', 1)[1] for m in sys.modules if m.startswith('dynact.')]\n"
        "print(*sorted(names))\n"
        "print(*sorted(n for n in names if getattr(dynact, n) is not sys.modules['dynact.' + n]))\n"
    )
    loaded, rebound = _run_fresh(code).split("\n")[:2]
    assert "reconstruct" in loaded.split()
    assert rebound == ""


def test_solve_leaves_numpy_ma_unimported(tmp_path):
    # every stage of `all`, the solve path's included, finds distinct values
    # by mask and sort: np.setdiff1d and np.unique without indices import
    # numpy.ma on first use, which leaves about 1.2 MiB more resident
    cfg_path = str(tmp_path / "cfg.json")
    dump_config(tiny_config(str(tmp_path / "out")), cfg_path)
    code = (
        "import sys\n"
        "from dynact import pipeline\n"
        "from dynact.config import load_config\n"
        f"pipeline.run('all', load_config({cfg_path!r}))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _run_fresh(code).split() == ["False"]


def _run_fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports dynact
    from this checkout."""
    src = str(Path(deformation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_artifacts_independent_of_workers(tmp_path, monkeypatch):
    # next to criterion 10's BLAS thread counts: every artifact of `all`
    # has the same bytes whether the view blocks run on 1 or 2 threads
    out = {}
    for workers in (1, 2):
        monkeypatch.setattr(reconstruct, "WORKERS", workers)
        cfg = tiny_config(str(tmp_path / f"workers_{workers}"))
        out[workers] = {name: Path(cfg.output_dir, name).read_bytes() for name in run("all", cfg)}
    assert len(out[1]) == 17
    assert out[1] == out[2]


def test_one_solver_for_all_modes(tmp_path, monkeypatch):
    # the three modes share one operator and preconditioner, and solve as
    # a solver built for each mode alone does
    cfg = tiny_config(str(tmp_path))
    fresh = [solve_motion(cfg, mode).fields for mode in PDE_MODES]
    builds = []
    build = elastic._NavierInverse.__init__
    monkeypatch.setattr(elastic._NavierInverse, "__init__", lambda self, *a: builds.append(1) or build(self, *a))
    stage_solve_motion(cfg, modes=PDE_MODES)
    assert len(builds) == 1
    for mode, fields in zip(PDE_MODES, fresh):
        _, _, kind, _, lattice = formats.read_field(str(tmp_path / f"field_{mode}.field"))
        assert np.array_equal(lattice.reshape(len(fields), -1, 2)[:, stored_nodes(kind)], fields)


def test_solve_stage_memory_does_not_grow_with_snapshots(tmp_path):
    # each snapshot goes to the field file as it is solved, so 100 more
    # snapshots add far less than their bytes to the stage's peak
    peaks = []
    for k in (33, 33, 133):  # the first run warms up
        cfg = tiny_config(str(tmp_path / f"{len(peaks)}"))
        cfg.solver.grid_nx = cfg.solver.grid_ny = 65
        cfg.solver.num_snapshots = k
        tracemalloc.start()
        try:
            stage_solve_motion(cfg, modes=("exact",))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    added = 100 * len(stored_nodes(solver_grid(cfg).kind)) * 16
    assert peaks[2] - peaks[1] < added / 4


def test_failed_solve_deletes_its_field_file(tmp_path, monkeypatch):
    # a solve that raises at snapshot 5 leaves no partial field, and no
    # stale field of an earlier run either
    cfg = tiny_config(str(tmp_path / "out"))
    cfg_path = str(tmp_path / "cfg.json")
    dump_config(cfg, cfg_path)
    path = os.path.join(cfg.output_dir, "field_exact.field")
    refine, calls = elastic._refine, []

    def failing(*args):
        calls.append(1)
        if len(calls) == 5:
            raise InstabilityError("diverged")
        return refine(*args)

    def valid_field_then_failing_solves():
        monkeypatch.undo()
        stage_solve_motion(cfg, modes=("exact",))
        assert os.path.isfile(path)
        calls.clear()
        monkeypatch.setattr(elastic, "_refine", failing)

    valid_field_then_failing_solves()
    with pytest.raises(InstabilityError):
        stage_solve_motion(cfg, modes=("exact",))
    assert len(calls) == 5 and not os.path.exists(path)
    valid_field_then_failing_solves()
    assert cli_main(["solve-motion", "--config", cfg_path]) == 4
    assert len(calls) == 5 and not os.path.exists(path)


def test_failed_all_leaves_no_field_of_an_earlier_run(tmp_path, monkeypatch):
    # a second `all` with another material that fails in noisy mode left
    # the first run's sparse field, and `reconstruct` then imaged it
    cfg = tiny_config(str(tmp_path / "out"))
    run("all", cfg)
    out = Path(cfg.output_dir)
    first_exact = (out / "field_exact.field").read_bytes()
    cfg.material.lame_mu *= 2.0
    for_mode = pipeline.boundary_data_for_mode

    def noisy_fails(cfg, grid, mode):
        if mode == "noisy":
            raise InstabilityError("diverged")
        return for_mode(cfg, grid, mode)

    monkeypatch.setattr(pipeline, "boundary_data_for_mode", noisy_fails)
    with pytest.raises(InstabilityError):
        run("all", cfg)
    assert (out / "field_exact.field").read_bytes() != first_exact
    assert not (out / "field_noisy.field").exists() and not (out / "field_sparse.field").exists()
    assert run("reconstruct", cfg) == [name + ext for name in ("recon_static", "recon_exact_motion", "recon_pde_exact") for ext in (".img", ".pgm")]
    assert not (out / "recon_pde_sparse.img").exists()


def test_non_finite_pivot_raises_and_leaves_no_field(tmp_path, monkeypatch):
    # a NaN in the second pivot's solution fails that pivot's own check
    # before any combined snapshot is bounded by it: the solve raises, the
    # stage deletes the earlier field and the CLI exits 4
    cfg = tiny_config(str(tmp_path / "out"))
    cfg_path = str(tmp_path / "cfg.json")
    dump_config(cfg, cfg_path)
    path = os.path.join(cfg.output_dir, "field_exact.field")
    stage_solve_motion(cfg, modes=("exact",))
    assert os.path.isfile(path)
    apply, refine = elastic._NavierInverse.__call__, elastic._refine
    calls, bounds = [], []

    def poisoned(self, r):
        x = apply(self, r)
        calls.append(1)
        if len(calls) == 2:
            x[len(x) // 2] = np.nan
        return x

    monkeypatch.setattr(elastic._NavierInverse, "__call__", poisoned)
    monkeypatch.setattr(elastic, "_refine", lambda *args: bounds.append(args[4:]) or refine(*args))
    with pytest.raises(InstabilityError, match="residual nan"):
        solve_motion(cfg, "exact")
    assert bounds == [(), ()]
    calls.clear()
    with pytest.raises(InstabilityError):
        stage_solve_motion(cfg, modes=("exact",))
    assert not os.path.exists(path)
    calls.clear()
    assert cli_main(["solve-motion", "--config", cfg_path]) == 4
    assert len(calls) == 2 and not os.path.exists(path)


def test_reconstruct_builds_one_grid_and_node_map(tmp_path, monkeypatch):
    # the three field files are read against one solver grid and one
    # exterior node map, which depend only on the config
    cfg = tiny_config(str(tmp_path))
    stage_simulate(cfg)
    stage_solve_motion(cfg, modes=PDE_MODES)
    grids, maps, providers = [], [], []
    make_grid = pipeline.make_grid
    monkeypatch.setattr(pipeline, "make_grid", lambda *a: grids.append(1) or make_grid(*a))
    for cls, calls in ((deformation.NodeMap, maps), (deformation.FieldDeformation, providers)):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init, calls=calls: calls.append(1) or init(self, *a))
    written = stage_reconstruct(cfg)
    assert {f"recon_pde_{mode}.img" for mode in PDE_MODES} <= set(written)
    assert (len(grids), len(maps), len(providers)) == (1, 1, 3)


def test_reconstruct_maps_the_pixels_once(tmp_path, monkeypatch):
    # the three field providers bind the pixel raster to one point map,
    # and each evaluator (one per view block) has a basis of its own
    cfg = tiny_config(str(tmp_path))
    stage_simulate(cfg)
    stage_solve_motion(cfg, modes=PDE_MODES)
    evaluators = []
    init = deformation._FieldAtPoints.__init__
    monkeypatch.setattr(deformation._FieldAtPoints, "__init__", lambda self, *a: evaluators.append(self) or init(self, *a))
    stage_reconstruct(cfg)
    assert len(evaluators) == len(PDE_MODES) * reconstruct.BLOCKS
    for name in ("xy", "rows", "wts"):
        assert len({id(getattr(e, name)) for e in evaluators}) == 1
    assert evaluators[0].xy.shape == (2, cfg.image.nx * cfg.image.ny)
    for i, e in enumerate(evaluators):
        assert not any(np.shares_memory(e.basis, other.basis) for other in evaluators[:i])


def test_reconstruct_reads_each_snapshot_once_per_block(tmp_path, monkeypatch):
    # an evaluator maps a snapshot when a view first needs it and keeps the
    # last two, so a field is read once per snapshot, plus at most the two
    # snapshots around each block boundary again
    cfg = tiny_config(str(tmp_path))
    stage_simulate(cfg)
    stage_solve_motion(cfg, modes=PDE_MODES)
    reads = {}
    read = formats.FieldFile.read
    monkeypatch.setattr(formats.FieldFile, "read", lambda self, k, out: reads.setdefault(self.file.name, []).append(k) or read(self, k, out))
    stage_reconstruct(cfg)
    k = cfg.solver.num_snapshots
    assert len(reads) == len(PDE_MODES)
    for snapshots in reads.values():
        assert sorted(set(snapshots)) == list(range(k))
        assert len(snapshots) <= k + 2 * (reconstruct.BLOCKS - 1)


def test_field_on_shifted_lattice_is_mismatch(tmp_path):
    # same node count and classification, other coordinates
    cfg = tiny_config(str(tmp_path))
    grid = solver_grid(cfg)
    shifted = replace(grid, x_coords=grid.x_coords + 1e-9)
    fields = np.zeros((2,) + grid.shape + (2,))
    history = elastic.DisplacementHistory(times=np.array([0.0, 1.0]), fields=fields, grid=shifted, dt=0.0, num_steps=0)
    path = str(tmp_path / "field_exact.field")
    formats.write_field(path, history)
    with pytest.raises(MismatchError, match="lattice"):
        with pipeline.load_field_provider(cfg, path, deformation.NodeMap(grid)):
            pass


def test_field_at_other_snapshot_times_is_mismatch(tmp_path):
    # a field written for 9 snapshots loads with that config and is stale
    # once the config asks for 5
    cfg = tiny_config(str(tmp_path))
    grid = solver_grid(cfg)
    times = pipeline.snapshot_times(cfg)
    fields = np.zeros((len(times),) + grid.shape + (2,))
    path = str(tmp_path / "field_exact.field")
    formats.write_field(path, elastic.DisplacementHistory(times=times, fields=fields, grid=grid, dt=0.0, num_steps=0))
    node_map = deformation.NodeMap(grid)
    with pipeline.load_field_provider(cfg, path, node_map) as provider:
        assert np.array_equal(provider.times, times)
    cfg.solver.num_snapshots = 5
    with pytest.raises(MismatchError, match="snapshot times"):
        with pipeline.load_field_provider(cfg, path, node_map):
            pass


@pytest.mark.slow
class TestStages:
    def test_full_pipeline(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "out"))
        written = run("all", cfg)
        expected = {
            "sinogram.sino",
            "ground_truth.img",
            "recon_static.img",
            "recon_exact_motion.img",
            "recon_pde_exact.img",
            "recon_pde_noisy.img",
            "recon_pde_sparse.img",
            "report.json",
        }
        assert expected.issubset(set(written))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["images"]) == {
            "recon_static",
            "recon_exact_motion",
            "recon_pde_exact",
            "recon_pde_noisy",
            "recon_pde_sparse",
        }
        for entry in report["images"].values():
            assert entry["rmse"] >= 0.0

    def test_simulate_deterministic(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "o1"))
        stage_simulate(cfg)
        cfg2 = tiny_config(str(tmp_path / "o2"))
        stage_simulate(cfg2)
        a = (tmp_path / "o1" / "sinogram.sino").read_bytes()
        b = (tmp_path / "o2" / "sinogram.sino").read_bytes()
        assert a == b

    def test_reconstruct_requires_sinogram(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "out"))
        os.makedirs(cfg.output_dir, exist_ok=True)
        with pytest.raises(MissingInputError):
            stage_reconstruct(cfg)

    def test_reconstruct_detects_geometry_mismatch(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "out"))
        stage_simulate(cfg)
        cfg.scan.num_detectors = 51  # disagree with the stored header
        with pytest.raises(MismatchError):
            stage_reconstruct(cfg)

    def test_evaluate_identical_image_reports_inf(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "out"))
        stage_simulate(cfg)
        gt = formats.read_image(os.path.join(cfg.output_dir, "ground_truth.img"))
        formats.write_image(os.path.join(cfg.output_dir, "recon_static.img"), gt)
        stage_evaluate(cfg)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        entry = report["images"]["recon_static"]
        assert entry["rmse"] == 0.0
        assert entry["psnr"] == "inf"

    def test_report_is_strict_json_and_a_non_finite_image_is_missing_input(self, tmp_path, capsys):
        cfg = tiny_config(str(tmp_path / "out"))
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(cfg, cfg_path)
        stage_simulate(cfg)
        gt = formats.read_image(os.path.join(cfg.output_dir, "ground_truth.img"))
        formats.write_image(os.path.join(cfg.output_dir, "recon_static.img"), gt)
        report = Path(cfg.output_dir, "report.json")

        def no_bare_constants(name):
            raise ValueError(f"bare {name} in report.json")

        assert cli_main(["evaluate", "--config", cfg_path]) == 0
        json.loads(report.read_text(), parse_constant=no_bare_constants)
        report.unlink()
        gt.values[3, 4] = np.nan
        formats.write_image(os.path.join(cfg.output_dir, "recon_static.img"), gt)
        capsys.readouterr()
        assert cli_main(["evaluate", "--config", cfg_path]) == 3
        assert "recon_static.img: corrupt image, 1 of 2401 values are not finite" in capsys.readouterr().err
        assert not report.exists()

    def test_solve_motion_writes_loadable_field(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "out"))
        stage_solve_motion(cfg, modes=("exact",))
        path = os.path.join(cfg.output_dir, "field_exact.field")
        x, y, kind, times, fields = formats.read_field(path)
        assert len(times) == cfg.solver.num_snapshots
        assert np.all(np.isfinite(fields))
        # boundary values at the final snapshot match the exact motion
        grid = solver_grid(cfg)
        assert np.array_equal(kind, grid.kind)


@pytest.mark.slow
class TestCli:
    def test_stage_run_and_exit_codes(self, tmp_path, capsys):
        cfg = tiny_config(str(tmp_path / "out"))
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(cfg, cfg_path)
        assert cli_main(["simulate", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "sinogram.sino" in out

    def test_missing_config_is_config_error(self, tmp_path):
        assert cli_main(["simulate", "--config", str(tmp_path / "none.json")]) == 2

    def test_invalid_config_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 1}))
        assert cli_main(["simulate", "--config", str(p)]) == 2

    def test_output_dir_that_cannot_be_made_is_config_error(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(tiny_config(str(tmp_path / "out")), cfg_path)
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        out = str(blocker / "out")
        assert cli_main(["simulate", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert out in err and "Not a directory" in err
        assert "Traceback" not in err

    def test_missing_inputs_is_io_error(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "out"))
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(cfg, cfg_path)
        assert cli_main(["reconstruct", "--config", cfg_path]) == 3

    def test_evaluate_without_a_reconstruction_is_missing_input(self, tmp_path, capsys):
        cfg, cfg_path = self.simulated(tmp_path)
        assert cli_main(["evaluate", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert "no reconstruction image" in err and "recon_static.img" in err and "recon_pde_sparse.img" in err
        assert not Path(cfg.output_dir, "report.json").exists()

    @staticmethod
    def simulated(tmp_path, modes=()):
        """A tiny config and its path, with the sinogram and the fields of
        ``modes`` written."""
        cfg = tiny_config(str(tmp_path / "out"))
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(cfg, cfg_path)
        stage_simulate(cfg)
        if modes:
            stage_solve_motion(cfg, modes=modes)
        return cfg, cfg_path

    def test_sinogram_time_map_mismatch_is_artifact_mismatch(self, tmp_path):
        cfg, cfg_path = self.simulated(tmp_path)
        cfg.scan.time_scale *= 1.5
        dump_config(cfg, cfg_path)
        assert cli_main(["reconstruct", "--config", cfg_path]) == 5

    def test_field_from_another_lattice_is_artifact_mismatch(self, tmp_path):
        cfg, cfg_path = self.simulated(tmp_path, modes=("exact",))
        cfg.solver.grid_nx = cfg.solver.grid_ny = 41  # the field was solved on 33^2
        dump_config(cfg, cfg_path)
        assert cli_main(["reconstruct", "--config", cfg_path]) == 5

    def test_stale_field_is_artifact_mismatch(self, tmp_path):
        cfg, cfg_path = self.simulated(tmp_path, modes=("exact",))
        cfg.solver.num_snapshots = 5  # the field was solved at 9
        dump_config(cfg, cfg_path)
        assert cli_main(["reconstruct", "--config", cfg_path]) == 5

    def test_truncated_field_is_artifact_mismatch(self, tmp_path):
        cfg, cfg_path = self.simulated(tmp_path, modes=("exact",))
        field = Path(cfg.output_dir, "field_exact.field")
        field.write_bytes(field.read_bytes()[:-8])
        assert cli_main(["reconstruct", "--config", cfg_path]) == 5

    def run_with_header(self, tmp_path, capsys, name, header, stage="reconstruct"):
        """Exit code and stderr of `dynact <stage>` after the header line
        of artifact ``name`` is replaced by ``header``."""
        cfg, cfg_path = self.simulated(tmp_path, modes=("exact",))
        path = Path(cfg.output_dir, name)
        path.write_bytes(header + path.read_bytes().split(b"\n", 1)[1])
        code = cli_main([stage, "--config", cfg_path])
        return code, capsys.readouterr().err

    def test_v1_sinogram_is_missing_input(self, tmp_path, capsys):
        # a v1 sinogram has no time map; it is not read with the config's
        header = b"DYNACT-SINO v1 40 61 0.0 3.141592653589793 -1.0 1.0\n"
        code, err = self.run_with_header(tmp_path, capsys, "sinogram.sino", header)
        assert code == 3
        assert "found 'DYNACT-SINO v1'" in err

    def test_v1_field_is_missing_input(self, tmp_path, capsys):
        header = b"DYNACT-FIELD v1 33 33 9\n"
        code, err = self.run_with_header(tmp_path, capsys, "field_exact.field", header)
        assert code == 3
        assert "found 'DYNACT-FIELD v1'" in err

    def test_v2_field_is_missing_input(self, tmp_path, capsys):
        # a v2 field also stored the ghost nodes
        header = b"DYNACT-FIELD v2 33 33 9 395\n"
        code, err = self.run_with_header(tmp_path, capsys, "field_exact.field", header)
        assert code == 3
        assert "found 'DYNACT-FIELD v2'" in err

    @pytest.mark.parametrize(
        "name, header, stage",
        [
            ("sinogram.sino", b"DYNACT-SINO v2 40 61 0.0 3.141592653589793 -1.0 1.0 0.0 0.15707963267948966\n", "reconstruct"),
            ("field_exact.field", b"DYNACT-FIELD v3 33 33 9 395\n", "reconstruct"),
            ("ground_truth.img", b"DYNACT-IMG v1 49 49 -1.0 1.0 -1.0 1.0\n", "evaluate"),
        ],
        ids=["SINO-v2", "FIELD-v3", "IMG-v1"],
    )
    def test_previous_positional_header_is_missing_input(self, tmp_path, capsys, name, header, stage):
        code, err = self.run_with_header(tmp_path, capsys, name, header, stage)
        assert code == 3
        assert f"found '{' '.join(header.decode().split()[:2])}'" in err

    def test_malformed_sinogram_header_is_missing_input(self, tmp_path, capsys):
        header = b"DYNACT-SINO v3 num_angles=forty num_detectors=61 angle_start=0.0 angle_end=3.141592653589793 detector_min=-1.0 detector_max=1.0 time_offset=0.0 time_scale=1.0\n"
        code, err = self.run_with_header(tmp_path, capsys, "sinogram.sino", header)
        assert code == 3
        assert "malformed 'DYNACT-SINO v3' header: num_angles:" in err

    def test_failed_reconstruct_leaves_no_image_to_evaluate(self, tmp_path, capsys):
        # a reconstruct that failed on a corrupt field left the earlier
        # run's images, and evaluate exited 0 scoring a stale one
        cfg, cfg_path = self.simulated(tmp_path, modes=("exact",))
        for stage in ("reconstruct", "evaluate"):
            assert cli_main([stage, "--config", cfg_path]) == 0
        assert Path(cfg.output_dir, "recon_pde_exact.img").exists()
        field = Path(cfg.output_dir, "field_exact.field")
        field.write_bytes(field.read_bytes()[:-8] + np.float64(np.nan).tobytes())
        assert cli_main(["reconstruct", "--config", cfg_path]) == 3
        assert not list(Path(cfg.output_dir).glob("recon_*"))
        assert cli_main(["evaluate", "--config", cfg_path]) == 3
        assert "no reconstruction image" in capsys.readouterr().err
        assert not Path(cfg.output_dir, "report.json").exists()

    def test_failed_evaluate_leaves_no_report(self, tmp_path, capsys):
        cfg, cfg_path = self.simulated(tmp_path)
        for stage in ("reconstruct", "evaluate"):
            assert cli_main([stage, "--config", cfg_path]) == 0
        Path(cfg.output_dir, "ground_truth.img").unlink()
        assert cli_main(["evaluate", "--config", cfg_path]) == 3
        assert "ground_truth.img" in capsys.readouterr().err
        assert not Path(cfg.output_dir, "report.json").exists()

    def test_non_finite_field_is_missing_input(self, tmp_path, capsys):
        # one NaN in the last stored value reached 44 of the 2401 pixels of
        # recon_pde_exact.img, and only evaluate failed, blaming the image
        cfg, cfg_path = self.simulated(tmp_path, modes=("exact",))
        field = Path(cfg.output_dir, "field_exact.field")
        field.write_bytes(field.read_bytes()[:-8] + np.float64(np.nan).tobytes())
        capsys.readouterr()
        assert cli_main(["reconstruct", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert "field_exact.field: corrupt field snapshot 8, 1 of" in err
        assert "Traceback" not in err
        assert not Path(cfg.output_dir, "recon_pde_exact.img").exists()

    @pytest.mark.parametrize("stage, name", [("simulate", "sinogram.sino"), ("solve-motion", "field_exact.field"), ("evaluate", "report.json")])
    def test_unwritable_artifact_is_config_error(self, tmp_path, capsys, stage, name):
        # a directory where the stage writes an artifact died with an
        # IsADirectoryError traceback and exit 1
        cfg, cfg_path = self.simulated(tmp_path)
        formats.write_image(os.path.join(cfg.output_dir, "recon_static.img"), formats.read_image(os.path.join(cfg.output_dir, "ground_truth.img")))
        blocker = Path(cfg.output_dir, name)
        blocker.unlink(missing_ok=True)
        blocker.mkdir()
        capsys.readouterr()
        assert cli_main([stage, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {str(blocker)!r}: Is a directory" in err
        assert "Traceback" not in err
        assert blocker.is_dir()

    def test_out_and_seed_overrides(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "ignored"))
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(cfg, cfg_path)
        out2 = str(tmp_path / "other")
        assert cli_main(["simulate", "--config", cfg_path, "--out", out2, "--seed", "7"]) == 0
        assert os.path.isfile(os.path.join(out2, "sinogram.sino"))

    def test_seed_outside_u64_is_config_error(self, tmp_path):
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(tiny_config(str(tmp_path / "out")), cfg_path)
        assert cli_main(["simulate", "--config", cfg_path, "--seed", "-1"]) == 2
        assert not os.path.exists(tmp_path / "out")

    def test_scan_end_overflowing_to_inf_is_config_error(self, tmp_path, capsys):
        # time_offset + time_scale * num_angles overflows: the unit-disk check
        # sampled linspace(0, inf) and the solve raised an IndexError
        cfg = tiny_config(str(tmp_path / "out"))
        cfg.scan.time_scale = 1e307
        assert cfg.scan.t_end == np.inf
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(cfg, cfg_path)
        assert cli_main(["all", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "scan.t_end = time_offset + time_scale * num_angles must be finite" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "out")

    def test_vanishing_motion_scale_is_config_error(self, tmp_path, capsys):
        cfg = tiny_config(str(tmp_path / "out"))
        cfg.motion.amplitude = cfg.motion.offset = 0.0
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(cfg, cfg_path)
        assert cli_main(["simulate", "--config", cfg_path]) == 2
        assert "motion: scale factor vanishes" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")
