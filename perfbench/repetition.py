"""One repetition of a workload in a fresh interpreter, as a CLI call runs.

    python3 perfbench/repetition.py --workload <name> --seed <n> --dir <work dir> [--trace] [--small]

Untraced, it runs the timed stage calls on the config that ``run.py`` set
up in ``--dir``. With ``--trace`` it does the set-up itself and both
parts run under spans. It prints one JSON line: the timed wall time, the
operations it attempted and failed, its own peak RSS and, when traced,
the per-layer metrics and the spans. Each repetition has a process of its
own, as one CLI call does, so its peak RSS (``VmHWM``) is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_kib() -> float:
    """High-water RSS of this process image.

    ``ru_maxrss`` is not used on Linux: it keeps the high-water mark of the
    image replaced by exec, which for a spawned child is the parent's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--small", action="store_true")
    args = p.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    ops = workloads.Ops()
    out: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            with tracer.span("setup"):
                config_path = workloads.setup(w, args.seed, args.dir, ops, args.small)
            with tracer.span("run") as root:
                ok = workloads.run_timed(w, config_path, ops)
        wall = root.duration
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["spans"] = [s.record() for s in tracer.spans]
    else:
        config_path = os.path.join(args.dir, "config.json")
        t0 = time.perf_counter()
        ok = workloads.run_timed(w, config_path, ops)
        wall = time.perf_counter() - t0
    out.update(
        wall_s=wall if ok else None,
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures,
        peak_rss_mib=peak_rss_kib() / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
