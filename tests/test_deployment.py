"""Deployment tests: delivery model, node independence, metric aggregation."""

import json
import math
from dataclasses import asdict, dataclass, field, fields

import pytest

from luxmote.cli import main
from luxmote.deployment import (
    DeploymentConfig,
    NodeMetrics,
    compute_metrics,
    link_delivery,
    node_distance_m,
    report_summary,
    run_deployment,
    write_deployment_report,
)
from luxmote.energy import SupercapState
from luxmote.qos import ApplicationMode
from luxmote.simulate import (
    EnergyLedger,
    NodeConfig,
    NodeLog,
    ledger_summary,
    run_node,
    write_ledger_json,
)
from luxmote.traces import Trace
from test_cli import _deploy_argv, _mixed_fleet

OFFICE = Trace.constant(300.0)


def small_fleet(n=3, v0=3.2):
    return DeploymentConfig(
        nodes=tuple(
            NodeConfig(
                node_id=f"n{i:02d}",
                position_m=(float(5 * i), 0.0),
                supercap=SupercapState(voltage_v=v0),
            )
            for i in range(1, n + 1)
        )
    )


class TestLinkDelivery:
    def test_examples(self):
        assert link_delivery(10.0, 30.0) is True
        assert link_delivery(30.0, 30.0) is True  # boundary inclusive
        assert link_delivery(45.0, 30.0) is False

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            link_delivery(-1.0, 30.0)


class TestDeploymentConfig:
    def test_duplicate_ids_rejected(self):
        node = NodeConfig(node_id="a")
        with pytest.raises(ValueError, match="duplicate"):
            DeploymentConfig(nodes=(node, node))

    def test_nonpositive_range_rejected(self):
        with pytest.raises(ValueError):
            DeploymentConfig(radio_range_m=0.0)


class TestRunDeployment:
    def test_empty_deployment(self):
        report = run_deployment(DeploymentConfig(), {}, duration_s=100.0)
        assert report.nodes == {}
        aggregate = report.aggregate
        assert aggregate["packets_emitted"] == 0
        assert aggregate["uptime_fraction"] == 1.0
        # Each sum starts from its field's default times 0.
        assert aggregate["alive_at_end"] == 0 and aggregate["alive_at_end"] is not False
        assert aggregate["dead_seconds"] == 0.0 and isinstance(aggregate["dead_seconds"], float)
        assert aggregate["ledger"] == asdict(EnergyLedger())
        assert aggregate["qos_histogram"] == {str(s): 0 for s in range(1, 8)}

    @pytest.mark.parametrize("duration", ["100", -5.0, 0.0, True, math.nan, math.inf])
    def test_empty_fleet_duration_checked(self, duration):
        # Without a node to run, no run_node checked it: "100", -5.0 and True
        # once reached the report.
        with pytest.raises(ValueError, match="^duration_s must be"):
            run_deployment(DeploymentConfig(), {}, duration_s=duration)

    def test_missing_trace_names_node(self):
        config = small_fleet(2)
        with pytest.raises(ValueError, match="n02"):
            run_deployment(config, {"n01": OFFICE}, duration_s=100.0)

    def test_out_of_range_node_emits_but_never_delivers(self):
        config = DeploymentConfig(
            nodes=(
                NodeConfig(node_id="near", position_m=(30.0, 0.0)),
                NodeConfig(node_id="far", position_m=(31.0, 0.0)),
            )
        )
        traces = {"near": OFFICE, "far": OFFICE}
        report = run_deployment(config, traces, duration_s=3600.0)
        near = report.nodes["near"]
        far = report.nodes["far"]
        assert report.logs["near"].packets_emitted > 0
        assert near.packets_delivered == report.logs["near"].packets_emitted
        assert report.logs["far"].packets_emitted > 0
        assert far.packets_delivered == 0
        assert (near.distance_m, far.distance_m) == (30.0, 31.0)

    def test_node_independence(self):
        # per-node results equal running each node alone
        config = small_fleet(3)
        traces = {n.node_id: OFFICE for n in config.nodes}
        report = run_deployment(config, traces, duration_s=7200.0, detail=True)
        for node in config.nodes:
            alone = run_node(node, OFFICE, duration_s=7200.0, detail=True)
            joint = report.logs[node.node_id]
            assert ledger_summary(alone) == ledger_summary(joint)
            assert alone.records == joint.records

    def test_delivery_monotonic_in_range(self):
        config = small_fleet(4)
        traces = {n.node_id: OFFICE for n in config.nodes}
        delivered = []
        for radio_range in (30.0, 16.0, 11.0, 6.0, 1.0):
            cfg = DeploymentConfig(nodes=config.nodes, radio_range_m=radio_range)
            report = run_deployment(cfg, traces, duration_s=600.0)
            delivered.append(report.aggregate["packets_delivered"])
        assert all(b <= a for a, b in zip(delivered, delivered[1:]))

    def test_determinism(self):
        config = small_fleet(2)
        traces = {n.node_id: OFFICE for n in config.nodes}
        a = run_deployment(config, traces, duration_s=3600.0)
        b = run_deployment(config, traces, duration_s=3600.0)
        from luxmote.deployment import report_summary

        assert report_summary(a) == report_summary(b)


class TestMetrics:
    def test_alive_whole_run_uptime_one(self):
        config = small_fleet(1)
        traces = {"n01": OFFICE}
        report = run_deployment(config, traces, duration_s=3600.0)
        log = report.logs["n01"]
        assert log.uptime_fraction == 1.0
        assert log.dead_seconds == 0.0

    def test_histogram_all_at_seven_for_pinned_top(self):
        config = DeploymentConfig(nodes=(NodeConfig(node_id="n01", pinned_qos=7),))
        report = run_deployment(config, {"n01": OFFICE}, duration_s=600.0)
        log = report.logs["n01"]
        assert log.qos_histogram[7] == log.controller_steps > 0
        assert sum(log.qos_histogram[1:]) == log.controller_steps

    def test_mean_interval_twenty_seconds_at_top_qos(self):
        # two packets 20 s apart in periodic sensing at state 7
        config = DeploymentConfig(
            nodes=(NodeConfig(node_id="n01", supercap=SupercapState(voltage_v=3.5)),)
        )
        report = run_deployment(config, {"n01": OFFICE}, duration_s=41.0)
        assert report.logs["n01"].packets_emitted == 3  # t = 0, 20, 40
        m = report.nodes["n01"]
        assert m.mean_packet_interval_s == pytest.approx(20.0)
        assert report.aggregate["mean_interval_s"]["periodic_sensing"] == pytest.approx(20.0)

    def test_totals_sum_over_nodes(self):
        config = small_fleet(4)
        traces = {n.node_id: OFFICE for n in config.nodes}
        report = run_deployment(config, traces, duration_s=1800.0)
        agg = report.aggregate
        logs = report.logs.values()
        assert agg["packets_emitted"] == sum(log.packets_emitted for log in logs)
        assert agg["packets_delivered"] == sum(m.packets_delivered for m in report.nodes.values())
        assert agg["controller_steps"] == sum(log.controller_steps for log in logs)
        for s in range(1, 8):
            assert agg["qos_histogram"][str(s)] == sum(log.qos_histogram[s] for log in logs)

    def test_invariants(self):
        config = small_fleet(3)
        traces = {n.node_id: OFFICE for n in config.nodes}
        report = run_deployment(config, traces, duration_s=3600.0)
        for node_id, log in report.logs.items():
            assert 0.0 <= log.uptime_fraction <= 1.0
            assert report.nodes[node_id].packets_delivered <= log.packets_emitted
            assert sum(log.qos_histogram[1:]) == log.controller_steps

    def test_event_latency_aggregation(self):
        node = NodeConfig(
            node_id="pir",
            mode=ApplicationMode.EVENT_DETECTION,
            supercap=SupercapState(voltage_v=3.5),
        )
        config = DeploymentConfig(nodes=(node,))
        events = Trace.from_samples([(1.0, 1.0), (6.0, 1.0), (20.0, 1.0)])
        report = run_deployment(
            config, {"pir": OFFICE}, {"pir": events}, duration_s=60.0
        )
        assert report.logs["pir"].events_detected == 3
        assert report.logs["pir"].notifications_emitted == 2
        m = report.nodes["pir"]
        assert m.notification_latency_max_s == pytest.approx(14.0)
        assert report.aggregate["notification_latency_mean_s"] == pytest.approx(14.0 / 3)

    def test_compute_metrics_directly(self):
        log = run_node(NodeConfig(node_id="x"), OFFICE, duration_s=100.0)
        node = NodeMetrics(log.packets_emitted - 1, 3.0, log.mean_packet_interval_s, None, None)
        aggregate = compute_metrics({"x": log}, {"x": node})
        assert aggregate["node_count"] == 1
        assert aggregate["packets_delivered"] == log.packets_emitted - 1
        assert aggregate["packets_emitted"] == log.packets_emitted
        assert aggregate["ledger"] == asdict(log.ledger)


@dataclass
class _CountingLog(NodeLog):
    """A NodeLog with one counter more, and one more field left out."""

    added_counter: int = 0
    added_scratch: int = field(default=0, metadata={"summary": False})


def _fold(values):
    """Left-to-right sum, as ``EnergyLedger.add`` books the fleet's terms."""
    total = 0.0
    for value in values:
        total += value
    return total


def _assert_summed_over_ledgers(summary):
    """Each aggregate key that is also a ledger key, the mean uptime aside,
    equals its sum over the ledgers in node_id order; returns those keys."""
    aggregate = summary["aggregate"]
    ledgers = [summary["ledgers"][node_id] for node_id in sorted(summary["ledgers"])]
    summed = set(aggregate) & set(ledgers[0]) - {"uptime_fraction"}
    for key in summed:
        if key == "ledger":
            for term, total in aggregate[key].items():
                assert total == _fold(ledger[key][term] for ledger in ledgers), term
        elif key == "qos_histogram":
            for state, total in aggregate[key].items():
                assert total == sum(ledger[key][state] for ledger in ledgers), state
        else:
            assert aggregate[key] == sum(ledger[key] for ledger in ledgers), key
    uptimes = [ledger["uptime_fraction"] for ledger in ledgers]
    assert aggregate["uptime_fraction"] == sum(uptimes) / len(uptimes)
    return summed


class TestReportSummary:
    def test_every_metrics_field_is_reported(self, tmp_path):
        config = small_fleet(2)
        report = run_deployment(config, {n.node_id: OFFICE for n in config.nodes}, duration_s=60.0)
        summary = report_summary(report)
        node_fields = {f.name for f in fields(NodeMetrics)}
        left_out = {f.name for f in fields(_CountingLog) if not f.metadata.get("summary", True)}
        per_node = {f.name for f in fields(NodeLog) if not f.metadata.get("sum", True)}
        assert set(summary["nodes"]) == set(summary["ledgers"]) == {"n01", "n02"}
        for nid, log in report.logs.items():
            ledger = summary["ledgers"][nid]
            assert ledger == ledger_summary(log)
            assert set(summary["nodes"][nid]) == node_fields
            assert not set(summary["nodes"][nid]) & set(ledger)
            assert not left_out & set(ledger)
        aggregate = summary["aggregate"]
        residuals = {"energy_residual_j", "energy_residual_relative"}
        derived = {"node_count", "packets_delivered", "mean_interval_s"} | {
            "notification_latency_mean_s",
            "notification_latency_max_s",
        }
        assert set(aggregate) == set(summary["ledgers"]["n01"]) - per_node - residuals | derived
        assert aggregate["node_count"] == 2
        logs = report.logs.values()
        assert aggregate["packets_emitted"] == sum(log.packets_emitted for log in logs)
        assert len(_assert_summed_over_ledgers(summary)) == 12

        # A field added to NodeLog reaches every output with no other edit;
        # one marked as left out reaches none.
        for nid, log in report.logs.items():
            values = {f.name: getattr(log, f.name) for f in fields(log)}
            report.logs[nid] = _CountingLog(**values, added_counter=17, added_scratch=5)
        write_deployment_report(report, tmp_path)
        write_ledger_json(report.logs["n01"], tmp_path / "n01_ledger.json")
        written = json.loads((tmp_path / "report.json").read_text())
        ledgers = written["ledgers"]
        assert json.loads((tmp_path / "n01_ledger.json").read_text()) == ledgers["n01"]
        for nid, log in report.logs.items():
            for ledger in (ledger_summary(log), ledgers[nid]):
                assert ledger["added_counter"] == 17
                assert not left_out & set(ledger)
                assert set(ledger) == set(summary["ledgers"][nid]) | {"added_counter"}
        assert written["aggregate"]["added_counter"] == 17 * 2
        assert set(written["aggregate"]) == set(aggregate) | {"added_counter"}
        assert "added_counter" in _assert_summed_over_ledgers(written)

    def test_fleet_sums_over_ledgers(self, tmp_path):
        # A node that dies and recovers in the dark, an event node and a
        # leaky node, through the CLI and report.json.
        config, traces = _mixed_fleet(tmp_path, 6 * 3600, ("leaky", "pir", "dim"))
        assert main(_deploy_argv(config, traces, 6 * 3600, tmp_path / "out")) == 0
        summary = json.loads((tmp_path / "out" / "report.json").read_text())
        assert summary["aggregate"]["deaths"] == 1
        assert summary["aggregate"]["events_detected"] == 60
        assert summary["aggregate"]["ledger"]["leak_j"] > 0.0
        assert len(_assert_summed_over_ledgers(summary)) == 12


class TestDistance:
    def test_node_distance(self):
        node = NodeConfig(position_m=(3.0, 4.0))
        assert node_distance_m(node, (0.0, 0.0)) == pytest.approx(5.0)

