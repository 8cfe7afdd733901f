"""Pipeline configuration: versioned JSON schema with exhaustive validation.

The config owns every knob of the pipeline; stages never hard-code
geometry. The dataclasses (``PipelineConfig`` and the specs it holds) are
the schema: ``config_from_dict`` and ``config_to_dict`` walk their fields
and type hints, so each field is declared once. Every field is required
except those in ``_OPTIONAL``; unknown keys are ignored.
``load_config`` -> dataclasses -> ``dump_config`` round-trips all fields
exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from importlib import resources
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .boundary import BoundarySpec
from .errors import ConfigError, MotionError
from .motion import AffineMotion
from .phantom import Ellipse, PhantomSpec, check_support_in_unit_disk
from .projection import ScanGeometry
from .reconstruct import FilterSpec, ImageSpec

CONFIG_VERSION = 1


@dataclass
class MaterialConfig:
    lame_lambda: float = 3460.0
    lame_mu: float = 1480.0


@dataclass
class PriorConfig:
    spine_density: float = 1850.0
    soft_tissue_density: float = 1050.0


@dataclass
class SolverConfig:
    grid_nx: int = 257
    grid_ny: int = 257
    num_snapshots: int = 133


@dataclass
class BoundaryConfig:
    # the JSON holds the spec's fields flat in the boundary section
    spec: BoundarySpec = field(default_factory=BoundarySpec, metadata={"flat": True})
    num_sample_times: int = 661


@dataclass
class PipelineConfig:
    version: int = CONFIG_VERSION
    output_dir: str = "out"
    phantom: PhantomSpec = field(default_factory=PhantomSpec)
    motion: AffineMotion = field(default_factory=AffineMotion)
    scan: ScanGeometry = field(default_factory=ScanGeometry)
    material: MaterialConfig = field(default_factory=MaterialConfig)
    prior: PriorConfig = field(default_factory=PriorConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    boundary: BoundaryConfig = field(default_factory=BoundaryConfig)
    filter: FilterSpec = field(default_factory=lambda: FilterSpec(gamma=2.0 / 450.0))
    image: ImageSpec = field(default_factory=ImageSpec)


def _finite(v) -> bool:
    # NaN fails the comparison, and so does an int too large for a float
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# Leaf types of the schema: (description, check, conversion from JSON).
_LEAVES = {
    float: ("a finite number", _finite, float),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    bool: ("a boolean", lambda v: isinstance(v, bool), bool),
    str: ("a string", lambda v: isinstance(v, str), str),
    tuple[float, float]: (
        "a pair of finite numbers",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_finite, v)),
        lambda v: (float(v[0]), float(v[1])),
    ),
}

# Leaves that may be absent from the JSON; every other field is required.
_OPTIONAL = {(Ellipse, "label"), (BoundarySpec, "time_constant_noise")}


def _read(tp, v, where: str):
    """Convert the JSON value found at ``where`` to the schema type ``tp``."""
    if is_dataclass(tp):
        if not isinstance(v, dict):
            raise ConfigError(f"config: {where} must be an object, got {v!r}")
        hints = get_type_hints(tp)
        kwargs = {}
        for f in fields(tp):
            key = f"{where}.{f.name}" if where else f.name
            if f.metadata.get("flat"):
                kwargs[f.name] = _read(hints[f.name], v, where)
            elif f.name in v:
                kwargs[f.name] = _read(hints[f.name], v[f.name], key)
            elif (tp, f.name) not in _OPTIONAL:
                raise ConfigError(f"config: missing key {key}")
        try:
            return tp(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"config: {where}: {exc}") from exc
    if get_origin(tp) is list:
        if not isinstance(v, list):
            raise ConfigError(f"config: {where} must be a list, got {v!r}")
        return [_read(get_args(tp)[0], e, f"{where}[{k}]") for k, e in enumerate(v)]
    what, ok, convert = _LEAVES[tp]
    if not ok(v):
        raise ConfigError(f"config: {where} must be {what}, got {v!r}")
    return convert(v)


def _write(v):
    """The JSON form of a schema value; the inverse of ``_read``."""
    if is_dataclass(v):
        out = {}
        for f in fields(v):
            sub = _write(getattr(v, f.name))
            out.update(sub if f.metadata.get("flat") else {f.name: sub})
        return out
    if isinstance(v, (list, tuple)):
        return [_write(e) for e in v]
    return v


def config_from_dict(raw: dict) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    # the version decides the layout, so it is checked before the walk
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config: unsupported version {raw.get('version')!r} (expected {CONFIG_VERSION})")
    cfg = _read(PipelineConfig, raw, "")
    validate_config(cfg)
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict:
    return _write(cfg)


def validate_config(cfg: PipelineConfig) -> None:
    """Check every module precondition the pipeline relies on."""
    problems: list[str] = []
    if not cfg.phantom.ellipses:
        problems.append("phantom.ellipses must not be empty")
    try:
        cfg.phantom.require_labeled("body")
    except ConfigError as exc:
        problems.append(str(exc))
    try:
        cfg.phantom.require_labeled("spine")
    except ConfigError as exc:
        problems.append(str(exc))
    if cfg.solver.grid_nx < 9 or cfg.solver.grid_ny < 9:
        problems.append("solver grid must be at least 9x9")
    if cfg.scan.time_offset < 0:
        problems.append("scan.time_offset must be >= 0: the solved snapshots start at t = 0")
    if cfg.scan.time_scale <= 0:
        problems.append("scan.time_scale must be positive")
    if cfg.scan.t_end <= 0:
        problems.append("scan.t_end = time_offset + time_scale * num_angles must be positive")
    elif not np.isfinite(cfg.scan.t_end):
        problems.append("scan.t_end = time_offset + time_scale * num_angles must be finite")
    if cfg.solver.num_snapshots < 2:
        problems.append("solver.num_snapshots must be >= 2")
    if cfg.boundary.num_sample_times < 2:
        problems.append("boundary.num_sample_times must be >= 2")
    try:
        cfg.boundary.spec.validate()
    except ConfigError as exc:
        problems.append(f"boundary.{exc}")
    if cfg.material.lame_mu <= 0:
        problems.append("material.lame_mu must be positive")
    if cfg.material.lame_lambda + 2 * cfg.material.lame_mu <= 0:
        problems.append("material.lame_lambda + 2*mu must be positive")
    if cfg.prior.spine_density <= 0 or cfg.prior.soft_tissue_density <= 0:
        problems.append("prior densities must be positive")
    try:
        cfg.filter.validate(cfg.scan.num_detectors)
    except ConfigError as exc:
        problems.append(f"filter.{exc}")
    if cfg.image.nx < 2 or cfg.image.ny < 2:
        problems.append("image dimensions must be >= 2")
    if not problems:
        # phantom support must stay in the unit disk over the whole scan
        times = np.linspace(0.0, cfg.scan.t_end, 65)
        try:
            r = check_support_in_unit_disk(cfg.phantom, cfg.motion, times)
        except MotionError as exc:
            problems.append(f"motion: {exc}")
        else:
            if r >= 1.0:
                problems.append(
                    f"phantom leaves the unit disk under the motion (max radius {r:.4f})"
                )
    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def dump_config(cfg: PipelineConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config_to_dict(cfg), f, indent=2)
        f.write("\n")


def default_config() -> PipelineConfig:
    """The shipped thorax configuration (artifact-chosen phantom values)."""
    text = resources.files("dynact.data").joinpath("default_config.json").read_text()
    return config_from_dict(json.loads(text))
