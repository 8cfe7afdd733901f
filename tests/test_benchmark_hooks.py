"""The benchmark under perfbench/ wraps and calls names of the program, so a
change that drops or renames one breaks the benchmark and none of the
program's own tests. This loads the benchmark's workload and tracing
modules and wraps every name the tracing patches, without running a
workload."""

import importlib.util
import sys
from pathlib import Path

from dynact import pipeline
from dynact.deformation import AnalyticDeformation, FieldDeformation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_wraps_or_calls_exists():
    load("workloads")
    tracing = load("tracing")
    before = pipeline.stage_reconstruct
    with tracing.instrument(tracing.Tracer()):
        assert pipeline.stage_reconstruct is not before
    assert pipeline.stage_reconstruct is before
    # called by workloads.py and by tracing.TimedProvider, not wrapped
    for owner, name in ((pipeline, "run"), (pipeline, "solver_grid"), (AnalyticDeformation, "eval"), (FieldDeformation, "eval")):
        assert callable(getattr(owner, name)), f"{owner.__name__}.{name}"
