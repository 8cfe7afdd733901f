"""Command line entry point: ``dynact <stage> --config <path>``."""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config, validate_config
from .errors import DynactError
from .pipeline import STAGES, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dynact", description="Dynamic CT simulation and motion-compensated reconstruction")
    p.add_argument("stage", choices=STAGES, help="pipeline stage to run")
    p.add_argument("--config", required=True, help="path to a pipeline config JSON file")
    p.add_argument("--out", default=None, help="override the config output directory")
    p.add_argument("--seed", type=int, default=None, help="override boundary.rng_seed, the boundary noise seed")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.output_dir = args.out
        if args.seed is not None:
            cfg.boundary.spec.rng_seed = args.seed
            validate_config(cfg)
        written = run(args.stage, cfg)
    except DynactError as exc:
        print(f"dynact: error: {exc}", file=sys.stderr)
        return exc.exit_code
    for name in written:
        print(os.path.join(cfg.output_dir, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
