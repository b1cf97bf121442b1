"""Declarative experiment configs: strict JSON schema with line-anchored errors.

A config is a nested JSON object. Unknown keys are errors, not warnings:
a silently ignored typo in a physics parameter is the costliest failure mode
this tool has. Each key's rule is in `_SCHEMA`, beside its type: `null`,
booleans where a number belongs, NaN and infinities are refused for every
key, and a number or list outside its rule is refused with the rule in
words. Once the experiment is known, a key its pipeline never reads is
refused (PIPELINE_KEYS). Error messages carry the source line of the
offending key whenever it can be located in the original text. Rules that
join several keys (the window inside the run, the lags' room in it) belong
to the pipeline's plan (`harness`), which also refuses before anything is
written.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from pathlib import Path


class ConfigError(ValueError):
    """Raised on schema violations; message carries file/line when known."""


CONFIG_SCHEMA_VERSION = 1

# Block name -> {key: (type(s), required[, rule])}; nested blocks hold a
# nested dict. A rule speaks JSON Schema's vocabulary (draft 2020-12):
# minimum and exclusiveMinimum bound every number of the leaf, a list's
# items included; enum lists the allowed values; minItems and maxItems
# bound a list's length. A list leaf holds finite ints or floats.
_NUM = (int, float)
_POSITIVE = {"exclusiveMinimum": 0}
_NONNEGATIVE = {"minimum": 0}
_COUNT = {"minimum": 1}
_PAIR = {"minItems": 2, "maxItems": 2}
# the tolerances only one pipeline reads; both read classifier_margin
_SED_TOLERANCES = ("mean_energy", "position_variance", "pooled_D",
                   "energy_balance", "autocorr_z")
_OU_TOLERANCES = ("variance_pulls", "flow_velocity_pulls",
                  "osmotic_velocity_pulls", "diffusion_pulls",
                  "va_consistent_fraction")

_SCHEMA = {
    "schema_version": (int, True),
    "experiment": (str, True),
    "seeds": {
        "master_seed": (int, True, _NONNEGATIVE),
    },
    "field": {
        "hbar": (_NUM, False, _POSITIVE),
        "c": (_NUM, False, _POSITIVE),
        "omega_cutoff": (_NUM, True, _POSITIVE),
        "omega_min": (_NUM, False, _NONNEGATIVE),
        "n_modes": (int, True, _COUNT),
    },
    "particle": {
        "mass": (_NUM, True, _POSITIVE),
        "charge": (_NUM, False),
        "tau": (_NUM, False, _NONNEGATIVE),
        "potential": {
            "kind": (str, True),
            "omega0": (_NUM, False, _POSITIVE),
            "k4": (_NUM, False),
        },
    },
    "time": {
        "t0": (_NUM, False),
        "dt": (_NUM, True, _POSITIVE),
        "t_final": (_NUM, True),
        "record_stride": (int, False, _COUNT),
    },
    "ensemble": {
        "n_traj": (int, True, _COUNT),
        "n_workers": (int, False, _COUNT),
        # the sed energy balance reads the stored field
        "store_field": (bool, False, {"enum": (True,)}),
        "initial_conditions": {
            "sampler": (str, True,
                        {"enum": ("delta", "gaussian", "stationary-guess")}),
            "x0": (_NUM, False),
            "v0": (_NUM, False),
            "x_std": (_NUM, False, _NONNEGATIVE),
            "v_std": (_NUM, False, _NONNEGATIVE),
        },
    },
    "langevin": {
        "friction": (_NUM, True, _POSITIVE),
        "D0": (_NUM, True, _POSITIVE),
        "x_start": (_NUM, False),
        "n_traj_relax": (int, False, _COUNT),
        "t_relax_window": (list, False, _PAIR),
    },
    "coarse_grain": {
        "delta_t": (_NUM, True, _POSITIVE),
        "x_bins": {
            "min": (_NUM, True),
            "max": (_NUM, True),
            "n": (int, True, {"minimum": 5}),
        },
        "t_window": (list, True, _PAIR),
        "min_count": (int, False, _COUNT),
        "delta_t_sweep": (list, False, {"minItems": 1, **_POSITIVE}),
        "thin_time": (_NUM, False, _POSITIVE),
        "classifier_bins": (int, False, {"minimum": 5}),
    },
    "grid": {
        "x_min": (_NUM, True),
        "x_max": (_NUM, True),
        "n_points": (int, True, {"minimum": 16}),
    },
    "outputs": {
        "directory": (str, True),
        # "none" or "binary", the one format dynamics.dump_ensemble writes
        "ensemble_dump": (str, False, {"enum": ("binary", "none")}),
    },
    "tolerances": {key: (_NUM, False, _NONNEGATIVE) for key in (
        "classifier_margin", *_SED_TOLERANCES, *_OU_TOLERANCES)},
}

# Pipeline -> (the top-level blocks it requires beyond those the schema
# requires, the dotted keys and blocks it never reads). The latter are
# refused, so that a key meant for the other pipeline is not ignored.
PIPELINE_KEYS = {
    "sed_harmonic_ground": (
        ("field", "particle", "time", "ensemble", "coarse_grain",
         "tolerances"),
        ("langevin", "coarse_grain.classifier_bins",
         *(f"tolerances.{k}" for k in _OU_TOLERANCES))),
    "ou_calibration": (
        ("particle", "langevin", "time", "ensemble", "coarse_grain",
         "tolerances"),
        ("field", "grid", "time.record_stride", "ensemble.n_workers",
         "ensemble.store_field",
         *(f"tolerances.{k}" for k in _SED_TOLERANCES))),
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


# what a value lacks of its leaf's type, in words
_TYPE_WORDS = {int: "an integer", _NUM: "a finite number", str: "a string",
               bool: "a boolean", list: "a list of finite numbers"}


def _numbers(value) -> list:
    return value if isinstance(value, list) else [value]


# rule keyword -> (test of (value, bound), what a value that fails lacks)
_RULES = {
    "minimum": (lambda v, b: all(x >= b for x in _numbers(v)), "at least {}"),
    "exclusiveMinimum": (lambda v, b: all(x > b for x in _numbers(v)),
                         "greater than {}"),
    "enum": (lambda v, b: v in b, "{}"),
    "minItems": (lambda v, b: len(v) >= b, "a list of {} or more numbers"),
    "maxItems": (lambda v, b: len(v) <= b, "a list of {} or fewer numbers"),
}


def _typed(value, types) -> bool:
    """value has the leaf type types: a boolean only where types is bool, a
    float only when finite, a list only of such ints and floats."""
    if types is list:
        return isinstance(value, list) and all(_typed(x, _NUM) for x in value)
    return (isinstance(value, types)
            and isinstance(value, bool) == (types is bool)
            and not (isinstance(value, float) and not math.isfinite(value)))


def _breach(value, types, rule: dict) -> str | None:
    """What value lacks of the leaf type types and of rule, in words; None
    when it has both."""
    if not _typed(value, types):
        return _TYPE_WORDS[types]
    for keyword, bound in rule.items():
        test, words = _RULES[keyword]
        if not test(value, bound):
            if keyword == "enum":
                return words.format(" or ".join(map(json.dumps, bound)))
            if types is list and keyword in ("minimum", "exclusiveMinimum"):
                words = "a list of numbers " + words
            return words.format(bound)
    return None


def _check_block(block: dict, schema: dict, path: str, text: str | None,
                 source: str) -> None:
    for key, value in block.items():
        where = f"{source}{_find_line(text, key)}"
        if key not in schema:
            raise ConfigError(
                f"{where}: unknown key {key!r} in {path or 'top level'}")
        leaf = schema[key]
        if isinstance(leaf, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: {path}{key} must be an object")
            _check_block(value, leaf, f"{path}{key}.", text, source)
            continue
        breach = _breach(value, leaf[0], leaf[2] if len(leaf) > 2 else {})
        if breach:
            raise ConfigError(
                f"{where}: {path}{key} must be {breach}, not "
                f"{json.dumps(value, default=repr)}")
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
    if pipeline not in PIPELINE_KEYS:
        known = ", ".join(sorted(PIPELINE_KEYS))
        raise ConfigError(
            f"{source}{_find_line(text, 'experiment')}: unknown experiment "
            f"{pipeline!r}; registered pipelines: {known}"
        )
    required, unread = PIPELINE_KEYS[pipeline]
    for blk in required:
        if blk not in cfg:
            raise ConfigError(
                f"{source}: missing required block {blk!r} for "
                f"experiment {pipeline!r}"
            )
    for dotted in unread:
        *blocks, key = dotted.split(".")
        if key in reduce(lambda blk, name: blk.get(name, {}), blocks, cfg):
            raise ConfigError(f"{source}{_find_line(text, key)}: {dotted} is "
                              f"not read by experiment {pipeline!r}")
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


def dumps_config(obj) -> str:
    """Canonical serialization of every JSON artifact, configs included:
    sorted keys, full float round-trip precision, numpy scalars and arrays
    as their Python values."""
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=lambda o: o.tolist()) + "\n"


def config_hash(cfg: dict) -> str:
    import hashlib

    return hashlib.sha256(dumps_config(cfg).encode()).hexdigest()
