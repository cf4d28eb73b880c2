"""Config loading: schema validation with field-level diagnostics."""

import json
import re
from pathlib import Path

import pytest

from luxmote.config import (
    ConfigError,
    load_any_config,
    load_deployment_config,
    load_node_config,
    load_sweep_grid,
    parse_deployment_config,
    parse_node_config,
    parse_sweep_grid,
)
from luxmote.deployment import DeploymentConfig
from luxmote.qos import ApplicationMode
from luxmote.simulate import NodeConfig


REPO = Path(__file__).resolve().parents[1]


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestNodeConfig:
    def test_empty_object_gives_defaults(self):
        cfg = parse_node_config({})
        assert cfg == NodeConfig()

    def test_full_round_trip(self, tmp_path):
        obj = {
            "node_id": "door-3F",
            "mode": "event_detection",
            "position_m": [12.5, -4.0],
            "v_on": 2.6,
            "pinned_qos": None,
            "supercap": {"capacitance_f": 0.47, "voltage_v": 2.9},
            "harvester": {"i_ref_a": 40e-6},
            "converter": {"eta_buck": 0.85},
            "load": {"e_event_detect_j": 10e-6},
        }
        cfg = load_node_config(write(tmp_path, "node.json", obj))
        assert cfg.node_id == "door-3F"
        assert cfg.mode is ApplicationMode.EVENT_DETECTION
        assert cfg.position_m == (12.5, -4.0)
        assert cfg.supercap.capacitance_f == 0.47
        assert cfg.converter.eta_buck == 0.85

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="capacitance"):
            parse_node_config({"supercap": {"capacitance": 1.0}})

    def test_negative_capacitance_named(self):
        with pytest.raises(ConfigError, match="supercap"):
            parse_node_config({"supercap": {"capacitance_f": -1.0}})

    def test_bad_mode_lists_choices(self):
        with pytest.raises(ConfigError, match="advertising"):
            parse_node_config({"mode": "beaconing"})

    def test_table_override(self):
        rows = [
            [7, 3.4, 3.6, 10.0, 5.0, 0.05],
            [6, 3.2, 3.4, 20.0, 10.0, 0.1],
            [5, 3.0, 3.2, 30.0, 15.0, 0.2],
            [4, 2.8, 3.0, 60.0, 30.0, 0.3],
            [3, 2.6, 2.8, 120.0, 60.0, 0.45],
            [2, 2.4, 2.6, 150.0, 150.0, 1.0],
            [1, 2.1, 2.4, 300.0, 300.0, 2.5],
        ]
        cfg = parse_node_config({"table": rows})
        assert cfg.table.rows == tuple(tuple(row) for row in rows)

    def test_overlapping_table_cites_rows(self):
        rows = [
            [7, 3.3, 3.6, 20.0, 10.0, 0.1],
            [6, 3.2, 3.4, 40.0, 20.0, 0.2],
            [5, 3.0, 3.2, 60.0, 30.0, 0.4],
            [4, 2.8, 3.0, 120.0, 60.0, 0.64],
            [3, 2.6, 2.8, 240.0, 120.0, 0.9],
            [2, 2.4, 2.6, 300.0, 300.0, 2.0],
            [1, 2.1, 2.4, 600.0, 600.0, 5.0],
        ]
        with pytest.raises(ConfigError) as err:
            parse_node_config({"table": rows})
        assert "6" in str(err.value) and "7" in str(err.value)

    def test_malformed_table_row(self):
        with pytest.raises(ConfigError, match=r"table\[0\]"):
            parse_node_config({"table": [[7, 3.4, 3.6]]})

    def test_v_on_consistency_checked(self):
        with pytest.raises(ConfigError, match="v_on"):
            parse_node_config({"v_on": 2.0})

    def test_pinned_qos_range(self):
        with pytest.raises(ConfigError, match="pinned_qos"):
            parse_node_config({"pinned_qos": 9})


@pytest.mark.parametrize(
    "parse, obj, message",
    [
        (parse_node_config, [], "node: must be an object"),
        (parse_node_config, {"node_id": 7}, "node: node_id must be a string, got 7"),
        (
            parse_node_config,
            {"node_id": ""},
            re.escape(
                "node: node_id must not be empty, '.' or '..' or contain '/', '\\' or NUL, got ''"
            ),
        ),
        (parse_node_config, {"position_m": [1.0]}, r"node.position_m: must be \[x, y\]"),
        (parse_node_config, {"supercap": 1.0}, "node.supercap: must be an object"),
        (parse_node_config, {"table": {}}, "node.table: must be a list of 7 rows"),
        (parse_deployment_config, "x", "deployment: must be an object"),
        (parse_deployment_config, {"nodes": {}}, "deployment.nodes: must be a list"),
        (parse_sweep_grid, None, "grid: must be an object"),
        (parse_sweep_grid, {"capacitances_f": 1.0}, "grid.capacitances_f: must be a list"),
        (parse_sweep_grid, {"lux_levels": "300"}, "grid.lux_levels: must be a list"),
        # sweep sets each row's mode and capacitance from the grid's own keys.
        (
            parse_sweep_grid,
            {
                "capacitances_f": [1.0],
                "qos_states": [7],
                "node": {"mode": "advertising", "supercap": {"capacitance_f": 0.02}},
            },
            "grid.node.mode: the grid's mode sets it",
        ),
        (
            parse_sweep_grid,
            {"node": {"supercap": {"capacitance_f": 0.02}}},
            "grid.node.supercap.capacitance_f: the grid's capacitances_f set it",
        ),
    ],
)
def test_json_shape_errors_name_the_key(parse, obj, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse(obj)


class TestDeploymentConfigParse:
    def test_defaults(self):
        cfg = parse_deployment_config({})
        assert cfg == DeploymentConfig()

    def test_nodes_parsed_with_index_in_errors(self):
        obj = {"nodes": [{"node_id": "a"}, {"supercap": {"capacitance_f": -1}}]}
        with pytest.raises(ConfigError, match=r"nodes\[1\]"):
            parse_deployment_config(obj)

    def test_bad_delivery_model(self):
        # delivery is always hard-range; the retired key fails as unknown
        with pytest.raises(ConfigError, match="unknown key.*delivery_model"):
            parse_deployment_config({"delivery_model": "hard_range"})

    def test_bundled_deployment_loads(self):
        cfg = load_deployment_config(REPO / "configs" / "deployment_15node.json")
        assert len(cfg.nodes) == 15
        assert cfg.radio_range_m == 30.0
        ids = sorted(n.node_id for n in cfg.nodes)
        assert ids[0] == "n01" and ids[-1] == "n15"


class TestSweepGridParse:
    def test_defaults(self):
        grid, base = parse_sweep_grid({})
        assert grid.qos_states == (1, 2, 3, 4, 5, 6, 7)
        assert base == NodeConfig()

    def test_bundled_grid_loads(self):
        grid, base = load_sweep_grid(REPO / "configs" / "sweep_default.json")
        assert grid.capacitances_f == (0.5, 1.0, 2.0)
        assert grid.lux_levels == (10.0, 25.0, 50.0)

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_sweep_grid({"mode": "party"})

    def test_node_section_feeds_base(self):
        grid, base = parse_sweep_grid({"node": {"load": {"e_sense_tx_j": 0.0}}})
        assert base.load.e_sense_tx_j == 0.0


class TestLoadAny:
    def test_dispatch(self, tmp_path):
        node = write(tmp_path, "n.json", {"node_id": "x"})
        dep = write(tmp_path, "d.json", {"nodes": []})
        grid = write(tmp_path, "g.json", {"qos_states": [1]})
        assert isinstance(load_any_config(node), NodeConfig)
        assert isinstance(load_any_config(dep), DeploymentConfig)
        grid_result = load_any_config(grid)
        assert isinstance(grid_result, tuple)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_node_config("/nonexistent/config.json")

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"node_id": "\xff"}')
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
            load_node_config(path)

    def test_integer_of_too_many_digits_names_file(self, tmp_path):
        # json refuses (or, without an int-to-str limit, the model refuses)
        path = tmp_path / "big.json"
        path.write_text('{"v_on": 1%s}' % ("0" * 5000))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_node_config(path)

    def test_invalid_json_named(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_node_config(path)
