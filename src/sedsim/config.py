"""Declarative experiment configs: strict JSON schema with line-anchored errors.

A config is a nested JSON object. Unknown keys are errors, not warnings:
a silently ignored typo in a physics parameter is the costliest failure mode
this tool has. Error messages carry the source line of the offending key
whenever it can be located in the original text.
"""

from __future__ import annotations

import json
from pathlib import Path


class ConfigError(ValueError):
    """Raised on schema violations; message carries file/line when known."""


CONFIG_SCHEMA_VERSION = 1

# Block name -> {key: (type(s), required)}. Nested blocks hold a nested dict.
_NUM = (int, float)

_SCHEMA = {
    "schema_version": (int, True),
    "experiment": (str, True),
    "seeds": {
        "master_seed": (int, True),
    },
    "field": {
        "hbar": (_NUM, False),
        "c": (_NUM, False),
        "omega_cutoff": (_NUM, True),
        "omega_min": (_NUM, False),
        "n_modes": (int, True),
        "mode_spacing": (str, False),
        "components": (int, False),
    },
    "particle": {
        "mass": (_NUM, True),
        "charge": (_NUM, False),
        "tau": (_NUM, False),
        "potential": {
            "kind": (str, True),
            "omega0": (_NUM, False),
            "k4": (_NUM, False),
            "x": (list, False),
            "V": (list, False),
        },
    },
    "time": {
        "t0": (_NUM, False),
        "dt": (_NUM, True),
        "t_final": (_NUM, True),
        "record_stride": (int, False),
    },
    "ensemble": {
        "n_traj": (int, True),
        "n_workers": (int, False),
        "store_field": (bool, False),
        "initial_conditions": {
            "sampler": (str, True),
            "x0": (_NUM, False),
            "v0": (_NUM, False),
            "x_std": (_NUM, False),
            "v_std": (_NUM, False),
        },
    },
    "langevin": {
        "friction": (_NUM, True),
        "D0": (_NUM, True),
        "x_start": (_NUM, False),
        "n_traj_relax": (int, False),
        "t_relax_window": (list, False),
    },
    "coarse_grain": {
        "delta_t": (_NUM, True),
        "x_bins": {
            "min": (_NUM, True),
            "max": (_NUM, True),
            "n": (int, True),
        },
        "t_window": (list, True),
        "min_count": (int, False),
        "delta_t_sweep": (list, False),
        "thin_time": (_NUM, False),
        "classifier_bins": (int, False),
    },
    "grid": {
        "x_min": (_NUM, True),
        "x_max": (_NUM, True),
        "n_points": (int, True),
    },
    "outputs": {
        "directory": (str, True),
        "ensemble_dump": (str, False),
    },
    "tolerances": {
        "mean_energy": (_NUM, False),
        "position_variance": (_NUM, False),
        "pooled_D": (_NUM, False),
        "energy_balance": (_NUM, False),
        "classifier_margin": (_NUM, False),
        "flow_velocity_pulls": (_NUM, False),
        "osmotic_velocity_pulls": (_NUM, False),
        "diffusion_pulls": (_NUM, False),
        "variance_pulls": (_NUM, False),
        "va_consistent_fraction": (_NUM, False),
        "autocorr_z": (_NUM, False),
    },
}

# Top-level blocks each pipeline requires beyond the always-required keys.
_ALWAYS = ("schema_version", "experiment", "seeds", "outputs")
PIPELINE_BLOCKS = {
    "sed_harmonic_ground": ("field", "particle", "time", "ensemble",
                            "coarse_grain", "tolerances"),
    "ou_calibration": ("particle", "langevin", "time", "ensemble",
                       "coarse_grain", "tolerances"),
}


def _find_line(text: str | None, key: str) -> str:
    """Best-effort source line of a quoted key, formatted ':<line>' or ''."""
    if not text:
        return ""
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return f":{i}"
    return ""


def _check_block(block: dict, schema: dict, path: str, text: str | None,
                 source: str) -> None:
    for key, value in block.items():
        if key not in schema:
            raise ConfigError(
                f"{source}{_find_line(text, key)}: unknown key "
                f"{key!r} in {path or 'top level'}"
            )
        rule = schema[key]
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                raise ConfigError(
                    f"{source}{_find_line(text, key)}: {path}{key} "
                    f"must be an object"
                )
            _check_block(value, rule, f"{path}{key}.", text, source)
        else:
            types, _required = rule
            if isinstance(value, bool) and types is not bool:
                raise ConfigError(
                    f"{source}{_find_line(text, key)}: {path}{key} "
                    f"has wrong type (boolean)"
                )
            if value is not None and not isinstance(value, types):
                tname = getattr(types, "__name__", "number")
                raise ConfigError(
                    f"{source}{_find_line(text, key)}: {path}{key} "
                    f"must be of type {tname}"
                )
    for key, rule in schema.items():
        required = rule[1] if isinstance(rule, tuple) else False
        if required and key not in block:
            raise ConfigError(
                f"{source}: missing required key {path}{key}"
            )


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def validate_config(cfg: dict, text: str | None = None,
                    source: str = "config") -> dict:
    """Validate a parsed config against the schema. Returns cfg unchanged."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source}: top level must be an object")
    _check_block(cfg, _SCHEMA, "", text, source)
    if cfg["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: unsupported schema_version {cfg['schema_version']} "
            f"(this build reads {CONFIG_SCHEMA_VERSION})"
        )
    pipeline = cfg["experiment"]
    if pipeline not in PIPELINE_BLOCKS:
        known = ", ".join(sorted(PIPELINE_BLOCKS))
        raise ConfigError(
            f"{source}{_find_line(text, 'experiment')}: unknown experiment "
            f"{pipeline!r}; registered pipelines: {known}"
        )
    for blk in PIPELINE_BLOCKS[pipeline]:
        if blk not in cfg:
            raise ConfigError(
                f"{source}: missing required block {blk!r} for "
                f"experiment {pipeline!r}"
            )
    return cfg


def load_config(path: str | Path) -> dict:
    """Parse and validate a config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return validate_config(cfg, text=text, source=str(path))


def dumps_config(cfg: dict) -> str:
    """Canonical serialization: sorted keys, full float round-trip precision."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def save_config(cfg: dict, path: str | Path) -> None:
    Path(path).write_text(dumps_config(cfg))


def config_hash(cfg: dict) -> str:
    import hashlib

    return hashlib.sha256(dumps_config(cfg).encode()).hexdigest()
