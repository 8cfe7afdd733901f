"""dynact benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md for why each exists): all_81, reconstruct_fields,
solve_129. The program is imported from ``src/`` of the checkout this file
sits in; it receives only the generated config and input files.

With ``--trace 0`` the run repeats the timed stage calls until
``--seconds`` is spent, each repetition in a fresh interpreter
(``repetition.py``), and spreads set-up and import samples over the
first repetitions. It checks the outputs of every repetition and reports
medians of the end-to-end metrics. With ``--trace 1`` every repetition
is traced (spans around every layer call, set-up included) and the run
reports per-layer metrics. Metric names and units come from
``BENCHMARK.json``. Scratch files go to ``.perfbench/`` in the checkout;
the spans and a full result record with the environment stay there
after the run.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS/OpenMP pools would otherwise start one thread per core; pin them
# before numpy is imported so a run uses one core for numerics.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / ".perfbench"
# Set-up and import take about 0.1-0.3 s, and the machine's speed drifts
# over seconds, so their samples are spread over the first repetitions:
# SAMPLES_PER_ROUND of each before each of the first untraced repetitions.
# Import times fall into a fast and a slow mode (about 0.085 s and 0.13 s
# on a 2-vCPU VM) that last from seconds to whole runs. A median of the
# probes flips between the modes from run to run; their mean follows the
# share of each mode, as the wall time of a repetition does.
NUM_SETUPS = 15
NUM_IMPORT_PROBES = 15
SAMPLES_PER_ROUND = 5
MIN_REPETITIONS = {0: 3, 1: 1}  # by --trace
REPETITION_TIMEOUT_S = 150
IMPORT_PROBE = "import time; t = time.perf_counter(); import dynact; print(time.perf_counter() - t)"

sys.path.insert(0, str(SRC))
try:
    import workloads as W
except ImportError as exc:  # a checkout without the dynact sources
    W = None
    IMPORT_ERROR = exc

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced sizes for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_seconds() -> float:
    """Time of ``import dynact`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout.strip())


def timed_setup(w, seed, work_dir, ops, small):
    t0 = time.perf_counter()
    path = W.setup(w, seed, work_dir, ops, small)
    return path, time.perf_counter() - t0


def repetition(args, work_dir: Path, ops, trace: bool) -> dict:
    """Run one repetition in a child interpreter and merge its operation counts."""
    cmd = [sys.executable, str(HERE / "repetition.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--dir", str(work_dir)] + ["--trace"] * trace + ["--small"] * args.small
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=REPETITION_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    ops.attempted += rep["attempted"]
    ops.failed += rep["failed"]
    ops.failures += rep["failures"]
    return rep


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def sample_setup(args, w, work: Path, samples: dict, ops) -> None:
    """Take this round's share of the set-up and import samples."""
    for _ in range(SAMPLES_PER_ROUND):
        if len(samples["setup_once_s"]) < NUM_SETUPS:
            i = len(samples["setup_once_s"])
            _, dt = timed_setup(w, args.seed, str(work / f"setup{i}"), ops, args.small)
            samples["setup_once_s"].append(dt)
            shutil.rmtree(work / f"setup{i}")
        if len(samples["import_s"]) < NUM_IMPORT_PROBES:
            samples["import_s"].append(import_seconds())


def metric_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def run_benchmark(args, work: Path) -> tuple[dict, dict]:
    w = W.WORKLOADS[args.workload]
    ops = W.Ops()
    samples: dict[str, list] = {"setup_once_s": [], "import_s": [], "wall_s": [], "peak_rss_mib": []}
    quality: dict[str, float] = {}
    layer_samples: list[dict] = []
    spans: list[dict] = []
    if not args.trace:
        run_dir = work / "main"
        _, dt = timed_setup(w, args.seed, str(run_dir), ops, args.small)
        samples["setup_once_s"].append(dt)

    start = time.perf_counter()
    k = 0
    while True:
        if args.trace:  # a traced repetition sets up its own directory
            if k:
                shutil.rmtree(run_dir)
            run_dir = work / f"traced{k}"
        else:
            sample_setup(args, w, work, samples, ops)
            W.clear_outputs(w, str(run_dir))
        rep = repetition(args, run_dir, ops, trace=bool(args.trace))
        samples["wall_s"].append(rep["wall_s"])
        samples["peak_rss_mib"].append(rep["peak_rss_mib"])
        quality.update(W.check_outputs(w, str(run_dir / "config.json"), ops))
        if args.trace:
            layer_samples.append(rep["layers"])
            base = len(spans)  # ids and parents count from 0 in each repetition
            for s in rep["spans"]:
                parent = None if s["parent"] is None else s["parent"] + base
                spans.append(dict(s, id=s["id"] + base, parent=parent, run=f"rep{k}"))
        k += 1
        per_round = median_or_none(samples["wall_s"]) or 0.0
        if k >= MIN_REPETITIONS[args.trace] and time.perf_counter() - start + per_round > args.seconds:
            break

    if w.name == "solve_129":
        quality.update(W.check_solved_field_reconstruction(str(run_dir / "config.json"), ops))

    wall_s = median_or_none(samples["wall_s"])
    if wall_s is None:
        raise RuntimeError("no repetition of the timed stages completed: " + "; ".join(ops.failures))
    extra = {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "failed_share": ops.failed / ops.attempted,
        "repetitions": len(samples["wall_s"]),
        "samples": samples,
        "quality": quality,
    }
    if args.trace == 0:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.mean(samples["import_s"]) + statistics.median(samples["setup_once_s"]),
            "peak_rss_mib": statistics.median(samples["peak_rss_mib"]),
            "ok_share": 1.0 - ops.failed / ops.attempted,
            **quality,
        }
        units = metric_units("end_to_end")
    else:
        units = metric_units("per_layer")
        unknown = set().union(*layer_samples) - set(units)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {', '.join(sorted(unknown))}")
        # a layer the workload never calls reads 0
        metrics = {name: statistics.median(ls.get(name, 0.0) for ls in layer_samples) for name in units}
        spans_path = BENCH_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    return result, extra


def report(result: dict, extra: dict, env: dict) -> None:
    print(f"perfbench {env['workload']} seed={env['seed']} seconds={env['seconds']:g} trace={env['trace']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"operations: {extra['attempted']} attempted, {extra['failed']} failed, failed_share {extra['failed_share']:.4g}")
    for name in extra["failures"]:
        print(f"  FAILED {name}")
    print(f"repetitions: {extra['repetitions']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name in ("rmse_pde_noisy", "rmse_pde_sparse", "field_max_err"):
        if name in extra["quality"]:
            print(f"  {name:36s} {extra['quality'][name]:.6g} 1")


def main(argv=None) -> int:
    args = parse_args(argv)
    if W is None:
        print(f"perfbench: cannot import dynact from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    BENCH_DIR.mkdir(exist_ok=True)
    work = BENCH_DIR / f"work-{os.getpid()}"
    try:
        result, extra = run_benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(args)
    record = {"environment": env, **extra, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BENCH_DIR / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(result, extra, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
