import json
import re
from importlib import resources
from pathlib import Path

import pytest

from dynact.config import (
    config_from_dict,
    config_to_dict,
    default_config,
    dump_config,
    load_config,
)
from dynact.errors import ConfigError


def test_default_config_loads(thorax_config):
    cfg = thorax_config
    assert cfg.scan.num_angles == 660
    assert cfg.scan.num_detectors == 451
    assert cfg.material.lame_lambda == 3460.0
    assert cfg.material.lame_mu == 1480.0
    assert cfg.prior.spine_density == 1850.0
    assert cfg.prior.soft_tissue_density == 1050.0
    assert cfg.motion.amplitude == 0.05
    assert cfg.motion.frequency == 0.04
    assert cfg.motion.offset == 0.95
    assert cfg.motion.drift_coeff == 0.44
    labels = [e.label for e in cfg.phantom.ellipses]
    assert labels.count("lung") == 2
    assert "spine" in labels and "tumour" in labels and "body" in labels


def test_roundtrip_identity(tmp_path, thorax_config):
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    dump_config(thorax_config, p1)
    cfg2 = load_config(p1)
    dump_config(cfg2, p2)
    assert json.loads(Path(p1).read_text()) == json.loads(Path(p2).read_text())
    assert config_to_dict(cfg2) == config_to_dict(thorax_config)


def _leaf_paths(node, path=()):
    """Key paths of every leaf in a JSON config, e.g. ("scan", "num_angles")."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for k, v in enumerate(node):
            yield from _leaf_paths(v, path + (k,))
    else:
        yield path


def _dotted(path) -> str:
    """("phantom", "ellipses", 0, "center") -> "phantom.ellipses[0].center"."""
    out = ""
    for k in path:
        out += f"[{k}]" if isinstance(k, int) else f".{k}" if out else k
    return out


# every leaf of the shipped config file except the two optional ones, and
# only the first ellipse (the others share its schema)
SHIPPED = json.loads(resources.files("dynact.data").joinpath("default_config.json").read_text())
REQUIRED = [
    p
    for p in _leaf_paths(SHIPPED)
    if p[-1] not in ("label", "time_constant_noise") and (p[:2] != ("phantom", "ellipses") or p[2] == 0)
]


def _container(raw, path):
    """The dict or list that holds the leaf at ``path``."""
    for k in path[:-1]:
        raw = raw[k]
    return raw


@pytest.mark.parametrize("path", REQUIRED, ids=_dotted)
def test_missing_key_reported(path):
    raw = config_to_dict(default_config())
    del _container(raw, path)[path[-1]]
    # the version is checked before the layout is read
    expected = "unsupported version None" if path == ("version",) else f"missing key {_dotted(path)}"
    with pytest.raises(ConfigError, match=re.escape(expected)):
        config_from_dict(raw)


# one case or more for every leaf type, and for a non-object section or element
WRONG_TYPES = [
    (("solver", "grid_nx"), "big", "an integer"),
    (("image", "nx"), True, "an integer"),
    (("image", "ny"), 64.0, "an integer"),
    (("motion", "amplitude"), "0.05", "a finite number"),
    (("material", "lame_mu"), float("inf"), "a finite number"),
    (("filter", "gamma"), False, "a finite number"),
    (("boundary", "time_constant_noise"), 0, "a boolean"),
    (("boundary", "mode"), 1, "a string"),
    (("output_dir",), None, "a string"),
    (("phantom", "ellipses", 1, "semi_axes"), [0.2], "a pair of finite numbers"),
    (("phantom", "ellipses", 1, "center"), ["0", 0.0], "a pair of finite numbers"),
    (("phantom", "ellipses"), {"center": [0.0, 0.0]}, "a list"),
    (("phantom", "ellipses", 2), [0.0, 0.0], "an object"),
    (("scan",), 660, "an object"),
]


@pytest.mark.parametrize("path, value, expected", WRONG_TYPES, ids=[_dotted(c[0]) for c in WRONG_TYPES])
def test_wrong_type_reported(path, value, expected):
    raw = config_to_dict(default_config())
    _container(raw, path)[path[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(f"{_dotted(path)} must be {expected}")):
        config_from_dict(raw)


def test_unsupported_version():
    raw = config_to_dict(default_config())
    raw["version"] = 99
    with pytest.raises(ConfigError, match="version"):
        config_from_dict(raw)


def test_escaping_phantom_rejected():
    raw = config_to_dict(default_config())
    raw["phantom"]["ellipses"][0]["semi_axes"] = [0.99, 0.99]
    with pytest.raises(ConfigError, match="unit disk"):
        config_from_dict(raw)


def test_missing_spine_label_rejected():
    raw = config_to_dict(default_config())
    for e in raw["phantom"]["ellipses"]:
        if e["label"] == "spine":
            e["label"] = ""
    with pytest.raises(ConfigError, match="spine"):
        config_from_dict(raw)


def test_bad_boundary_mode_rejected():
    raw = config_to_dict(default_config())
    raw["boundary"]["mode"] = "wild"
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict(raw)


# a value a component spec rejects: the message names where it sits
BAD_VALUES = [
    (("phantom", "ellipses", 2, "semi_axes"), [0.0, 0.3],
     "config: phantom.ellipses[2]: ellipse semi_axes must be positive, got (0.0, 0.3)"),
    (("scan", "num_angles"), 0, "config: scan: num_angles must be >= 1"),
    (("boundary", "noise_std"), -1.0, "boundary.noise_std must be >= 0"),
    (("filter", "gamma"), 0.0, "filter.gamma must be positive"),
]


@pytest.mark.parametrize("path, value, expected", BAD_VALUES, ids=[_dotted(c[0]) for c in BAD_VALUES])
def test_spec_error_names_its_location(path, value, expected):
    raw = config_to_dict(default_config())
    _container(raw, path)[path[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(expected)):
        config_from_dict(raw)


@pytest.mark.parametrize("key, value, expected", [
    ("time_scale", 0.0, "scan.time_scale must be positive"),
    ("time_scale", -0.1, "scan.time_scale must be positive"),
    ("time_offset", -1e6, "scan.t_end = time_offset + time_scale * num_angles must be positive"),
    ("time_offset", -40.0, "scan.time_offset must be >= 0: the solved snapshots start at t = 0"),
], ids=["time_scale=0", "time_scale<0", "t_end<0", "time_offset<0"])
def test_scan_without_forward_time_rejected(key, value, expected):
    # such a scan has no snapshot times to solve at, or views before the
    # first snapshot (which would read it, clamped): it is rejected at
    # load, naming the key, rather than in solve-motion or not at all
    raw = config_to_dict(default_config())
    raw["scan"][key] = value
    with pytest.raises(ConfigError, match=re.escape(expected)) as exc_info:
        config_from_dict(raw)
    assert exc_info.value.exit_code == 2


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
def test_rng_seed_outside_u64_rejected(seed):
    # the noise generator masks its seed to 64 bits, so these would alias
    # 2**64 - 1 and 0
    raw = config_to_dict(default_config())
    raw["boundary"]["rng_seed"] = seed
    with pytest.raises(ConfigError, match=re.escape(f"boundary.rng_seed must be in [0, 2**64), got {seed}")):
        config_from_dict(raw)
    raw["boundary"]["rng_seed"] = 2**64 - 1
    assert config_from_dict(raw).boundary.spec.rng_seed == 2**64 - 1


def test_invalid_json_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(p))


def test_validation_collects_multiple_problems():
    raw = config_to_dict(default_config())
    raw["solver"]["num_snapshots"] = 1
    raw["material"]["lame_mu"] = -1.0
    with pytest.raises(ConfigError) as e:
        config_from_dict(raw)
    msg = str(e.value)
    assert "num_snapshots" in msg and "lame_mu" in msg


def test_string_bool_rejected():
    raw = config_to_dict(default_config())
    raw["boundary"]["time_constant_noise"] = "false"
    with pytest.raises(ConfigError, match="boundary.time_constant_noise must be a boolean"):
        config_from_dict(raw)


def test_nan_ellipse_center_rejected(tmp_path):
    raw = config_to_dict(default_config())
    raw["phantom"]["ellipses"][3]["center"] = [float("nan"), -0.42]
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(raw))  # written as a bare NaN, which json.load accepts
    with pytest.raises(ConfigError, match=re.escape("phantom.ellipses[3].center must be a pair of finite numbers")):
        load_config(str(p))


def test_non_string_label_rejected():
    raw = config_to_dict(default_config())
    raw["phantom"]["ellipses"][4]["label"] = 7
    with pytest.raises(ConfigError, match=re.escape("phantom.ellipses[4].label must be a string")):
        config_from_dict(raw)


def test_optional_leaves_default_when_absent():
    raw = config_to_dict(default_config())
    del raw["boundary"]["time_constant_noise"]
    del raw["phantom"]["ellipses"][4]["label"]
    cfg = config_from_dict(raw)
    assert cfg.boundary.spec.time_constant_noise is False
    assert cfg.phantom.ellipses[4].label == ""


def test_parent_layout_with_unknown_keys_loads():
    # configs written before solver.cfl_safety and seed were dropped still load
    raw = config_to_dict(default_config())
    raw["solver"]["cfl_safety"] = 0.9
    raw["seed"] = 20260808
    raw["comment"] = "ignored"
    assert config_to_dict(config_from_dict(raw)) == config_to_dict(default_config())
