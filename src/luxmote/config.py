"""Declarative JSON run configuration.

One file describes either a single node or a whole deployment; a third schema
describes an exploration grid.  The models enforce every field rule, types
included (``check_fields``); this module checks the JSON shape (objects,
lists, ``[x, y]`` points and 6-entry table rows), rejects unknown keys so
typos fail loudly, maps mode names, and puts the file and section before
each model's message: ``<file>.supercap: capacitance_f must be a number,
got True``.  ``NaN``, ``Infinity`` and literals that overflow to infinity
(``1e999``) are rejected with their JSON path, and so are a document nested
too deeply for the parser and a file that is not UTF-8.  All sections and
keys are optional and fall back to the model defaults.

Node schema (all keys optional unless noted):

    {
      "node_id": "n01",
      "mode": "periodic_sensing" | "event_detection" | "advertising",
      "position_m": [x, y],
      "v_on": 2.4,
      "pinned_qos": null | 1..7,
      "supercap":  {"capacitance_f", "voltage_v", "v_rated", "v_cutoff", "leak_current_a"},
      "harvester": {"i_ref_a", "v_ref_v", "lux_ref"},
      "converter": {"v_boost_min", "eta_boost", "eta_cold", "eta_buck", "v_out_v"},
      "load":      {"i_standby_a", "e_sense_tx_j", "e_event_detect_j", "e_advertise_j", "e_controller_step_j"},
      "table":     [[state, v_lo, v_hi, sense_s, pir_s, adv_s], ... 7 rows]
    }

Deployment schema:

    {
      "base_station_m": [x, y],
      "radio_range_m": 30.0,
      "nodes": [ <node schema>, ... ]
    }

Sweep-grid schema:

    {
      "capacitances_f": [..], "qos_states": [..],
      "mode": "...", "lux_levels": [..],
      "node": <node schema without mode and supercap.capacitance_f>
    }

The grid's mode and capacitances set every row's, so the node's are rejected.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .deployment import DeploymentConfig
from .explore import SweepGrid
from .qos import ApplicationMode, QosTable
from .simulate import NodeConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _check_object(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _build(cls, section: dict, where: str):
    # The model checks each field's type and range; this names the file.
    try:
        return cls(**section)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _mode(value, where: str) -> ApplicationMode:
    try:
        return ApplicationMode(value)
    except ValueError:
        raise ConfigError(
            f"{where}: {value!r} is not one of {[m.value for m in ApplicationMode]}"
        ) from None


def _check_list(obj: dict, key: str, where: str, what: str = "a list", size=None) -> None:
    value = obj.get(key)
    if key in obj and not (isinstance(value, list) and size in (None, len(value))):
        raise ConfigError(f"{where}.{key}: must be {what}")


def _section(obj: dict, key: str, where: str):
    # The section's model is the type of NodeConfig's default for it.
    cls = type(NodeConfig.__dataclass_fields__[key].default)
    section = obj.get(key, {})
    _check_object(section, cls.__dataclass_fields__, f"{where}.{key}")
    return _build(cls, section, f"{where}.{key}")


def parse_node_config(obj: dict, where: str = "node") -> NodeConfig:
    _check_object(obj, NodeConfig.__dataclass_fields__, where)
    _check_list(obj, "position_m", where, "[x, y]", size=2)
    kwargs = dict(obj)
    if "mode" in obj:
        kwargs["mode"] = _mode(obj["mode"], f"{where}.mode")
    for key in ("supercap", "harvester", "converter", "load"):
        kwargs[key] = _section(obj, key, where)
    if "table" in obj:
        _check_list(obj, "table", where, "a list of 7 rows")
        for i, row in enumerate(obj["table"]):
            if not (isinstance(row, (list, tuple)) and len(row) == 6):
                raise ConfigError(
                    f"{where}.table[{i}]: each row is [state, v_lo, v_hi, sense_s, pir_s, adv_s]"
                )
        kwargs["table"] = _build(QosTable, {"rows": obj["table"]}, f"{where}.table")
    return _build(NodeConfig, kwargs, where)


def parse_deployment_config(obj: dict, where: str = "deployment") -> DeploymentConfig:
    _check_object(obj, DeploymentConfig.__dataclass_fields__, where)
    _check_list(obj, "base_station_m", where, "[x, y]", size=2)
    _check_list(obj, "nodes", where)
    kwargs = dict(obj)
    kwargs["nodes"] = tuple(
        parse_node_config(n, where=f"{where}.nodes[{i}]") for i, n in enumerate(obj.get("nodes", []))
    )
    return _build(DeploymentConfig, kwargs, where)


_GRID_KEYS = ("capacitances_f", "qos_states", "mode", "lux_levels", "node")


def parse_sweep_grid(obj: dict, where: str = "grid") -> tuple[SweepGrid, NodeConfig]:
    _check_object(obj, _GRID_KEYS, where)
    kwargs = {key: value for key, value in obj.items() if key != "node"}
    for key in ("capacitances_f", "qos_states", "lux_levels"):
        _check_list(obj, key, where)
    if "mode" in obj:
        kwargs["mode"] = _mode(obj["mode"], f"{where}.mode")
    grid = _build(SweepGrid, kwargs, where)
    node = obj.get("node", {})
    base = parse_node_config(node, where=f"{where}.node")
    if "mode" in node:
        raise ConfigError(f"{where}.node.mode: the grid's mode sets it")
    if "capacitance_f" in node.get("supercap", {}):
        raise ConfigError(f"{where}.node.supercap.capacitance_f: the grid's capacitances_f set it")
    return grid, base


def _load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int of too many digits
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    # json accepts NaN and +-Infinity, and turns 1e999 into inf.
    stack = [(obj, str(path))]
    while stack:
        value, where = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: must be a finite number, got {value}")
        if isinstance(value, dict):
            stack.extend((v, f"{where}.{k}") for k, v in value.items())
        elif isinstance(value, list):
            stack.extend((v, f"{where}[{i}]") for i, v in enumerate(value))
    return obj


def load_node_config(path) -> NodeConfig:
    return parse_node_config(_load_json(path), where=str(path))


def load_deployment_config(path) -> DeploymentConfig:
    return parse_deployment_config(_load_json(path), where=str(path))


def load_sweep_grid(path) -> tuple[SweepGrid, NodeConfig]:
    return parse_sweep_grid(_load_json(path), where=str(path))


def load_any_config(path):
    """Dispatch on shape: a 'nodes' key means a deployment, any grid key but
    'mode', which a node has too, a sweep grid, anything else a single node."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "nodes" in obj:
        return parse_deployment_config(obj, where=str(path))
    if isinstance(obj, dict) and any(key in obj for key in _GRID_KEYS if key != "mode"):
        return parse_sweep_grid(obj, where=str(path))
    return parse_node_config(obj, where=str(path))
