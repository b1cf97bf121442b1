"""Config schema validation: strict keys, types, and line-anchored errors."""

import json
import math
import re
from functools import reduce

import pytest

from sedsim.config import (_NUM, _SCHEMA, ConfigError, config_hash,
                           dumps_config, load_config, validate_config)


def minimal_ou_config():
    return {
        "schema_version": 1,
        "experiment": "ou_calibration",
        "seeds": {"master_seed": 5},
        "particle": {"mass": 1.0, "tau": 0.001,
                     "potential": {"kind": "harmonic", "omega0": 1.0}},
        "langevin": {"friction": 10.0, "D0": 0.1},
        "time": {"dt": 0.01, "t_final": 0.4},
        "ensemble": {"n_traj": 1000,
                     "initial_conditions": {"sampler": "delta"}},
        "coarse_grain": {"delta_t": 0.02,
                         "x_bins": {"min": -3.0, "max": 3.0, "n": 15},
                         "t_window": [0.2, 0.21]},
        "outputs": {"directory": "runs/x"},
        "tolerances": {},
    }


def test_round_trip(tmp_path):
    cfg = minimal_ou_config()
    p = tmp_path / "c.json"
    p.write_text(dumps_config(cfg))
    assert load_config(p) == cfg


def test_validate_passes_minimal():
    validate_config(minimal_ou_config())


def test_unknown_key_is_an_error_with_line_number(tmp_path):
    cfg = minimal_ou_config()
    cfg["langevin"]["fricton"] = 1.0
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg, indent=2))
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    msg = str(exc.value)
    assert "fricton" in msg
    line = json.dumps(cfg, indent=2).splitlines()
    expected = next(i for i, s in enumerate(line, 1) if "fricton" in s)
    assert f":{expected}:" in msg


def test_field_dump_is_an_unknown_key():
    # no pipeline ever read outputs.field_dump; accepting it ignored it silently
    cfg = minimal_ou_config()
    cfg["outputs"]["field_dump"] = True
    with pytest.raises(ConfigError, match="unknown key.*field_dump"):
        validate_config(cfg)


def test_unknown_top_level_key():
    cfg = minimal_ou_config()
    cfg["extra_block"] = {}
    with pytest.raises(ConfigError, match="extra_block"):
        validate_config(cfg)


def test_duplicate_keys_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"schema_version": 1, "schema_version": 2}')
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(p)


def test_wrong_type():
    cfg = minimal_ou_config()
    cfg["time"]["dt"] = "small"
    with pytest.raises(ConfigError, match="dt"):
        validate_config(cfg)


def test_missing_required_key_in_block():
    cfg = minimal_ou_config()
    del cfg["time"]["dt"]
    with pytest.raises(ConfigError, match="dt"):
        validate_config(cfg)


def test_missing_required_block_for_pipeline():
    cfg = minimal_ou_config()
    del cfg["langevin"]
    with pytest.raises(ConfigError, match="langevin"):
        validate_config(cfg)


def test_unknown_experiment():
    cfg = minimal_ou_config()
    cfg["experiment"] = "does_not_exist"
    with pytest.raises(ConfigError, match="does_not_exist"):
        validate_config(cfg)


def test_nested_block_schema():
    cfg = minimal_ou_config()
    del cfg["coarse_grain"]["x_bins"]["n"]
    with pytest.raises(ConfigError, match="n"):
        validate_config(cfg)


def test_not_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("this is not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_hash_is_key_order_independent():
    cfg = minimal_ou_config()
    reordered = json.loads(dumps_config(cfg))
    shuffled = dict(reversed(list(reordered.items())))
    assert config_hash(cfg) == config_hash(shuffled)


def test_hash_sensitive_to_values():
    cfg = minimal_ou_config()
    other = json.loads(dumps_config(cfg))
    other["seeds"]["master_seed"] = 6
    assert config_hash(cfg) != config_hash(other)


def full_config():
    """An OU config that also holds the sed pipeline's blocks, so that it
    holds every block of the schema: each key's own rule is checked before
    the keys the pipeline never reads are refused."""
    cfg = minimal_ou_config()
    cfg["field"] = {"omega_cutoff": 1.1, "n_modes": 8}
    cfg["grid"] = {"x_min": -6.0, "x_max": 6.0, "n_points": 101}
    return cfg


def schema_leaves(schema=_SCHEMA, path=()):
    """(path, type) of every key of the schema that holds a value."""
    for key, leaf in schema.items():
        if isinstance(leaf, dict):
            yield from schema_leaves(leaf, path + (key,))
        else:
            yield path + (key,), leaf[0]


@pytest.mark.parametrize("path,value", [
    pytest.param(path, value, id=f"{'.'.join(path)}={value}")
    for path, types in schema_leaves()
    for value in [None] + ([math.nan, math.inf, True]
                           if types in (int, _NUM) else [])])
def test_every_key_refuses_null_and_what_is_no_finite_number(path, value):
    # generated from the schema: a key added to it is covered here
    cfg = full_config()
    block = reduce(lambda b, key: b.setdefault(key, {}), path[:-1], cfg)
    block[path[-1]] = value
    with pytest.raises(ConfigError,
                       match=re.escape(f"{'.'.join(path)} must be ")):
        validate_config(cfg)


def test_a_quartic_potential_still_validates():
    # the harness refuses every potential but the harmonic; the schema
    # does not, so library workloads can load a quartic sed config
    cfg = full_config()
    cfg["experiment"] = "sed_harmonic_ground"
    del cfg["langevin"]
    cfg["particle"]["potential"] = {"kind": "quartic", "k4": 1.0}
    validate_config(cfg)
