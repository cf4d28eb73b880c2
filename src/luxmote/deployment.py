"""Multi-node deployments: per-node simulation, range-gated packet delivery
to a base station and fleet-level metrics.

Nodes share no energy or radio state, so each is simulated independently; a
node's outcome in a deployment equals its outcome when run alone.  Delivery
is hard-range: every packet of a node within the radio range reaches the
base station, none of a node beyond it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .energy import require_finite
from .simulate import NodeConfig, NodeLog, ledger_summary, run_node


@dataclass(frozen=True)
class DeploymentConfig:
    nodes: tuple[NodeConfig, ...] = ()
    base_station_m: tuple[float, float] = (0.0, 0.0)
    radio_range_m: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        require_finite(self)
        if self.radio_range_m <= 0:
            raise ValueError(f"radio_range_m must be > 0, got {self.radio_range_m}")
        if len(self.base_station_m) != 2:
            raise ValueError(f"base_station_m must be (x, y), got {self.base_station_m}")
        object.__setattr__(
            self,
            "base_station_m",
            (float(self.base_station_m[0]), float(self.base_station_m[1])),
        )
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate node ids: {dupes}")


def link_delivery(distance_m: float, range_m: float) -> bool:
    """Hard-range link: delivered iff distance <= range."""
    if distance_m < 0:
        raise ValueError(f"distance_m must be >= 0, got {distance_m}")
    return distance_m <= range_m


def node_distance_m(config: NodeConfig, base_station_m) -> float:
    return math.hypot(
        config.position_m[0] - base_station_m[0],
        config.position_m[1] - base_station_m[1],
    )


@dataclass(frozen=True)
class NodeMetrics:
    node_id: str
    mode: str
    uptime_fraction: float
    dead_seconds: float
    deaths: int
    recoveries: int
    controller_steps: int
    packets_emitted: int
    packets_delivered: int
    mean_packet_interval_s: Optional[float]
    qos_histogram: tuple[int, ...]  # index 0 unused, 1..7
    events_detected: int
    notifications_emitted: int
    events_missed_dead: int
    notification_latency_mean_s: Optional[float]
    notification_latency_max_s: Optional[float]
    final_voltage_v: float
    distance_m: float


@dataclass(frozen=True)
class Metrics:
    """Fleet aggregate plus per-node breakdown."""

    per_node: dict
    uptime_fraction: float
    dead_seconds: float
    packets_emitted: int
    packets_delivered: int
    controller_steps: int
    qos_histogram: tuple[int, ...]
    mean_interval_s: dict  # mode value -> mean seconds between packets, or None
    notification_latency_mean_s: Optional[float]
    notification_latency_max_s: Optional[float]


@dataclass
class DeploymentReport:
    duration_s: float
    radio_range_m: float
    base_station_m: tuple[float, float]
    metrics: Metrics
    logs: list = field(default_factory=list)


def compute_metrics(logs: list[NodeLog], delivered: dict, distances: dict) -> Metrics:
    """Deterministic aggregate over per-node logs.

    ``delivered`` maps node_id to packets delivered; ``distances`` to the
    node-to-base-station distance.  Logs are folded in (node_id) order so the
    result is independent of simulation order.
    """
    per_node = {}
    hist = [0] * 8
    gap_sum = {}
    gap_count = {}
    latencies_all = []
    total_dead = 0.0
    uptime_sum = 0.0
    for log in sorted(logs, key=lambda l: l.node_id):
        lat = log.notification_latencies_s
        per_node[log.node_id] = NodeMetrics(
            node_id=log.node_id,
            mode=log.mode.value,
            uptime_fraction=log.uptime_fraction,
            dead_seconds=log.dead_seconds,
            deaths=log.deaths,
            recoveries=log.recoveries,
            controller_steps=log.controller_steps,
            packets_emitted=log.packets_emitted,
            packets_delivered=delivered[log.node_id],
            mean_packet_interval_s=log.mean_packet_interval_s,
            qos_histogram=tuple(log.qos_histogram),
            events_detected=log.events_detected,
            notifications_emitted=log.notifications_emitted,
            events_missed_dead=log.events_missed_dead,
            notification_latency_mean_s=(sum(lat) / len(lat)) if lat else None,
            notification_latency_max_s=max(lat) if lat else None,
            final_voltage_v=log.final_voltage_v,
            distance_m=distances[log.node_id],
        )
        for s in range(1, 8):
            hist[s] += log.qos_histogram[s]
        mode = log.mode.value
        gap_sum[mode] = gap_sum.get(mode, 0.0) + log.packet_gap_sum_s
        gap_count[mode] = gap_count.get(mode, 0) + log.packet_gap_count
        latencies_all.extend(lat)
        total_dead += log.dead_seconds
        uptime_sum += log.uptime_fraction
    n = len(logs)
    mean_interval = {
        mode: (gap_sum[mode] / gap_count[mode]) if gap_count[mode] else None
        for mode in gap_sum
    }
    return Metrics(
        per_node=per_node,
        uptime_fraction=(uptime_sum / n) if n else 1.0,
        dead_seconds=total_dead,
        packets_emitted=sum(m.packets_emitted for m in per_node.values()),
        packets_delivered=sum(m.packets_delivered for m in per_node.values()),
        controller_steps=sum(m.controller_steps for m in per_node.values()),
        qos_histogram=tuple(hist),
        mean_interval_s=mean_interval,
        notification_latency_mean_s=(
            sum(latencies_all) / len(latencies_all) if latencies_all else None
        ),
        notification_latency_max_s=max(latencies_all) if latencies_all else None,
    )


def run_deployment(
    config: DeploymentConfig,
    light_traces: dict,
    event_traces: Optional[dict] = None,
    *,
    duration_s: float,
    detail: bool = False,
) -> DeploymentReport:
    """Simulate every node independently and aggregate.

    ``light_traces`` maps node_id to a light Trace (one per node, required);
    ``event_traces`` maps node_id to an impulse Trace for event-detection
    nodes.  Each node's outcome is identical to running that node alone.
    """
    event_traces = event_traces or {}
    missing = [n.node_id for n in config.nodes if n.node_id not in light_traces]
    if missing:
        raise ValueError(f"missing light trace for node(s): {', '.join(sorted(missing))}")

    logs = []
    delivered = {}
    distances = {}
    for node in config.nodes:
        log = run_node(
            node,
            light_traces[node.node_id],
            event_traces.get(node.node_id),
            duration_s=duration_s,
            detail=detail,
        )
        logs.append(log)
        dist = node_distance_m(node, config.base_station_m)
        distances[node.node_id] = dist
        in_range = link_delivery(dist, config.radio_range_m)
        delivered[node.node_id] = log.packets_emitted if in_range else 0

    return DeploymentReport(
        duration_s=float(duration_s),
        radio_range_m=config.radio_range_m,
        base_station_m=config.base_station_m,
        metrics=compute_metrics(logs, delivered, distances),
        logs=logs,
    )


def _fields_dict(metrics, skip: str) -> dict:
    """Every field of a metrics dataclass but ``skip``, the QoS histogram
    keyed by state."""
    out = {f.name: getattr(metrics, f.name) for f in fields(metrics) if f.name != skip}
    hist = out["qos_histogram"]
    out["qos_histogram"] = {str(s): hist[s] for s in range(1, 8)}
    return out


def report_summary(report: DeploymentReport) -> dict:
    agg = report.metrics
    return {
        "duration_s": report.duration_s,
        "radio_range_m": report.radio_range_m,
        "base_station_m": list(report.base_station_m),
        "aggregate": {"node_count": len(agg.per_node), **_fields_dict(agg, "per_node")},
        "nodes": {nid: _fields_dict(m, "node_id") for nid, m in sorted(agg.per_node.items())},
        "ledgers": {log.node_id: ledger_summary(log) for log in report.logs},
    }


def write_deployment_report(report: DeploymentReport, out_dir) -> None:
    """report.json plus one CSV log per node (when detail was on)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "report.json").open("w", encoding="utf-8") as fh:
        json.dump(report_summary(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    from .simulate import write_node_log_csv

    for log in report.logs:
        if log.records:
            write_node_log_csv(log, out / f"{log.node_id}_log.csv")

