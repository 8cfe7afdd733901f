import copy
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dynact import deformation, elastic, formats, pipeline
from dynact.cli import main as cli_main
from dynact.config import config_from_dict, config_to_dict, default_config, dump_config
from dynact.errors import ConfigError, MismatchError, MissingInputError
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
    # numpy is the one declared dependency: importing dynact in a fresh
    # interpreter loads no other module from outside the standard library
    # (modules that the interpreter's start-up loads are not counted)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dynact\n"
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    src = str(Path(deformation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "dynact" in loaded
    assert loaded - {"dynact", "numpy"} <= set(sys.stdlib_module_names)


def test_artifacts_independent_of_workers(tmp_path, monkeypatch):
    # next to criterion 10's BLAS thread counts: every artifact of `all`
    # has the same bytes whether the view blocks run on 1 or 2 threads
    out = {}
    for workers in (1, 2):
        monkeypatch.setattr(sys.modules["dynact.reconstruct"], "WORKERS", workers)
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


def test_solve_stage_holds_no_earlier_history(tmp_path, monkeypatch):
    # each mode's history is written and dropped before the next mode solves
    cfg = tiny_config(str(tmp_path))
    solved = []

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in solved)
        history = solve_motion(*args, **kwargs)
        solved.extend([weakref.ref(history), weakref.ref(history.fields)])
        return history

    monkeypatch.setattr(pipeline, "solve_motion", tracked)
    stage_solve_motion(cfg, modes=PDE_MODES)
    assert len(solved) == 2 * len(PDE_MODES)


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

    def test_missing_inputs_is_io_error(self, tmp_path):
        cfg = tiny_config(str(tmp_path / "out"))
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(cfg, cfg_path)
        assert cli_main(["reconstruct", "--config", cfg_path]) == 3

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

    def reconstruct_with_header(self, tmp_path, capsys, name, header):
        """Exit code and stderr of `dynact reconstruct` after the header
        line of artifact ``name`` is replaced by ``header``."""
        cfg, cfg_path = self.simulated(tmp_path, modes=("exact",))
        path = Path(cfg.output_dir, name)
        path.write_bytes(header + path.read_bytes().split(b"\n", 1)[1])
        code = cli_main(["reconstruct", "--config", cfg_path])
        return code, capsys.readouterr().err

    def test_v1_sinogram_is_missing_input(self, tmp_path, capsys):
        # a v1 sinogram has no time map; it is not read with the config's
        header = b"DYNACT-SINO v1 40 61 0.0 3.141592653589793 -1.0 1.0\n"
        code, err = self.reconstruct_with_header(tmp_path, capsys, "sinogram.sino", header)
        assert code == 3
        assert "found 'DYNACT-SINO v1'" in err

    def test_v1_field_is_missing_input(self, tmp_path, capsys):
        header = b"DYNACT-FIELD v1 33 33 9\n"
        code, err = self.reconstruct_with_header(tmp_path, capsys, "field_exact.field", header)
        assert code == 3
        assert "found 'DYNACT-FIELD v1'" in err

    def test_v2_field_is_missing_input(self, tmp_path, capsys):
        # a v2 field also stored the ghost nodes
        header = b"DYNACT-FIELD v2 33 33 9 395\n"
        code, err = self.reconstruct_with_header(tmp_path, capsys, "field_exact.field", header)
        assert code == 3
        assert "found 'DYNACT-FIELD v2'" in err

    def test_malformed_sinogram_header_is_missing_input(self, tmp_path, capsys):
        header = b"DYNACT-SINO v2 forty 61 0.0 3.141592653589793 -1.0 1.0 0.0 1.0\n"
        code, err = self.reconstruct_with_header(tmp_path, capsys, "sinogram.sino", header)
        assert code == 3
        assert "malformed 'DYNACT-SINO v2' header" in err

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

    def test_vanishing_motion_scale_is_config_error(self, tmp_path, capsys):
        cfg = tiny_config(str(tmp_path / "out"))
        cfg.motion.amplitude = cfg.motion.offset = 0.0
        cfg_path = str(tmp_path / "cfg.json")
        dump_config(cfg, cfg_path)
        assert cli_main(["simulate", "--config", cfg_path]) == 2
        assert "motion: scale factor vanishes" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")
