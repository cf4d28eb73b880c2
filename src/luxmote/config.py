"""Declarative JSON run configuration.

One file describes either a single node or a whole deployment; a third schema
describes an exploration grid.  Every domain invariant is enforced at load
time and violations name the offending field.  Numbers must be finite:
``NaN``, ``Infinity`` and literals that overflow to infinity (``1e999``) are
rejected with their JSON path, and so is a document nested too deeply for
the parser.  All sections and keys are optional and fall back to the model
defaults; unknown keys are rejected so typos fail loudly.

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
      "mode": "...", "lux_levels": [..], "node": <node schema>
    }
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .deployment import DeploymentConfig
from .energy import ConverterModel, HarvesterModel, LoadModel, SupercapState
from .explore import SweepGrid
from .qos import ApplicationMode, QosTable
from .simulate import NodeConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _build(cls, section: dict, where: str):
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _number(value, where: str) -> float:
    # bool is an int in Python, but a JSON true is not a number.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{where}: must be a finite number, got {value}") from None


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: must be an integer, got {value!r}")
    return value


def _mode(value, where: str) -> ApplicationMode:
    try:
        return ApplicationMode(value)
    except ValueError:
        raise ConfigError(
            f"{where}: {value!r} is not one of {[m.value for m in ApplicationMode]}"
        ) from None


def _point(obj: dict, key: str, where: str) -> tuple[float, float]:
    pos = obj[key]
    if not (isinstance(pos, (list, tuple)) and len(pos) == 2):
        raise ConfigError(f"{where}.{key}: must be [x, y]")
    return (_number(pos[0], f"{where}.{key}[0]"), _number(pos[1], f"{where}.{key}[1]"))


def _section(obj: dict, key: str, cls, where: str):
    section = obj.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{where}.{key}: must be an object")
    where = f"{where}.{key}"
    _check_keys(section, cls.__dataclass_fields__, where)
    numbers = {name: _number(value, f"{where}.{name}") for name, value in section.items()}
    return _build(cls, numbers, where)


def parse_node_config(obj: dict, where: str = "node") -> NodeConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    _check_keys(obj, NodeConfig.__dataclass_fields__, where)

    # NodeConfig checks node_id and pinned_qos; _build names the file.
    kwargs = {key: obj[key] for key in ("node_id", "pinned_qos") if key in obj}
    if "mode" in obj:
        kwargs["mode"] = _mode(obj["mode"], f"{where}.mode")
    if "position_m" in obj:
        kwargs["position_m"] = _point(obj, "position_m", where)
    if "v_on" in obj:
        kwargs["v_on"] = _number(obj["v_on"], f"{where}.v_on")

    kwargs["supercap"] = _section(obj, "supercap", SupercapState, where)
    kwargs["harvester"] = _section(obj, "harvester", HarvesterModel, where)
    kwargs["converter"] = _section(obj, "converter", ConverterModel, where)
    kwargs["load"] = _section(obj, "load", LoadModel, where)
    if "table" in obj:
        rows = obj["table"]
        if not isinstance(rows, list):
            raise ConfigError(f"{where}.table: must be a list of 7 rows")
        cells = []
        for i, row in enumerate(rows):
            if not (isinstance(row, (list, tuple)) and len(row) == 6):
                raise ConfigError(
                    f"{where}.table[{i}]: each row is [state, v_lo, v_hi, sense_s, pir_s, adv_s]"
                )
            state = _integer(row[0], f"{where}.table[{i}][0]")
            numbers = (_number(x, f"{where}.table[{i}][{j}]") for j, x in enumerate(row[1:], 1))
            cells.append((state, *numbers))
        try:
            kwargs["table"] = QosTable(rows=tuple(cells))
        except ValueError as exc:
            raise ConfigError(f"{where}.table: {exc}") from None

    return _build(NodeConfig, kwargs, where)


def parse_deployment_config(obj: dict, where: str = "deployment") -> DeploymentConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    _check_keys(obj, DeploymentConfig.__dataclass_fields__, where)
    kwargs = {}
    if "base_station_m" in obj:
        kwargs["base_station_m"] = _point(obj, "base_station_m", where)
    if "radio_range_m" in obj:
        kwargs["radio_range_m"] = _number(obj["radio_range_m"], f"{where}.radio_range_m")
    nodes = obj.get("nodes", [])
    if not isinstance(nodes, list):
        raise ConfigError(f"{where}.nodes: must be a list")
    kwargs["nodes"] = tuple(
        parse_node_config(n, where=f"{where}.nodes[{i}]") for i, n in enumerate(nodes)
    )
    return _build(DeploymentConfig, kwargs, where)


_GRID_KEYS = ("capacitances_f", "qos_states", "mode", "lux_levels", "node")


def parse_sweep_grid(obj: dict, where: str = "grid") -> tuple[SweepGrid, NodeConfig]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    _check_keys(obj, _GRID_KEYS, where)
    kwargs = {}
    for key in ("capacitances_f", "qos_states", "lux_levels"):
        if key in obj:
            if not isinstance(obj[key], list):
                raise ConfigError(f"{where}.{key}: must be a list")
            entry = _integer if key == "qos_states" else _number
            kwargs[key] = tuple(entry(x, f"{where}.{key}[{i}]") for i, x in enumerate(obj[key]))
    if "mode" in obj:
        kwargs["mode"] = _mode(obj["mode"], f"{where}.mode")
    grid = _build(SweepGrid, kwargs, where)
    base = parse_node_config(obj.get("node", {}), where=f"{where}.node")
    return grid, base


def _load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
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
    """Dispatch on shape: a 'nodes' key means a deployment, a 'capacitances_f'
    or 'qos_states' key a sweep grid, anything else a single node."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "nodes" in obj:
        return parse_deployment_config(obj, where=str(path))
    if isinstance(obj, dict) and ("capacitances_f" in obj or "qos_states" in obj):
        return parse_sweep_grid(obj, where=str(path))
    return parse_node_config(obj, where=str(path))
