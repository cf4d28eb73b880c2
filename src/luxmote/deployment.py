"""Multi-node deployments: per-node simulation, range-gated packet delivery
to a base station and fleet-level metrics.

Nodes share no energy or radio state, so each is simulated independently; a
node's outcome in a deployment equals its outcome when run alone.  A run
that writes its node logs to a directory runs the nodes in a pool of up to
one worker process per available CPU: a free worker takes the next node not
yet taken, and writes the node's log line by line as the node runs.
Delivery is hard-range: every packet of a node within the radio range
reaches the base station, none of a node beyond it.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .energy import check_fields
from .simulate import (
    EnergyLedger, NodeConfig, NodeLog, check_duration, ledger_summary, run_node, write_json,
)


@dataclass(frozen=True)
class DeploymentConfig:
    nodes: tuple[NodeConfig, ...] = ()
    base_station_m: tuple[float, float] = (0.0, 0.0)
    radio_range_m: float = 30.0

    def __post_init__(self):
        check_fields(self)
        if self.radio_range_m <= 0:
            raise ValueError(f"radio_range_m must be > 0, got {self.radio_range_m}")
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
    """What a node's report entry adds to its ``ledger_summary``: the delivery
    and distance only a deployment knows, and values derived from its log."""

    packets_delivered: int
    distance_m: float
    mean_packet_interval_s: Optional[float]
    notification_latency_mean_s: Optional[float]
    notification_latency_max_s: Optional[float]


@dataclass
class DeploymentReport:
    duration_s: float
    radio_range_m: float
    base_station_m: tuple[float, float]
    nodes: dict = field(default_factory=dict)  # node_id -> NodeMetrics, in config order
    logs: dict = field(default_factory=dict)  # node_id -> NodeLog, in config order

    @property
    def aggregate(self) -> dict:
        """The fleet aggregate of the logs, as report.json holds it."""
        return compute_metrics(self.logs, self.nodes)


def _mean_max(values: list) -> tuple[Optional[float], Optional[float]]:
    return (sum(values) / len(values), max(values)) if values else (None, None)


def compute_metrics(logs: dict, nodes: dict) -> dict:
    """Deterministic fleet aggregate of per-node logs, JSON-ready.

    ``logs`` maps node_id to its NodeLog and ``nodes`` to its NodeMetrics.
    Every ``NodeLog`` field that ``ledger_summary`` reports is summed over
    the logs, in node_id order, unless it is marked ``_PER_NODE``: from the
    field's default times 0 (so ``alive_at_end`` counts the nodes alive at
    the end), the ledger through ``EnergyLedger.add`` and the QoS histogram
    state by state.  Derived are the node count, the mean uptime fraction,
    the packets delivered, the mean packet interval per mode and the mean
    and maximum notification latency.
    """
    ordered = [logs[node_id] for node_id in sorted(logs)]
    aggregate = {"node_count": len(ordered)}
    for f in fields(type(ordered[0]) if ordered else NodeLog):
        if not (f.metadata.get("summary", True) and f.metadata.get("sum", True)):
            continue
        values = [getattr(log, f.name) for log in ordered]
        total = f.default_factory() if f.default is MISSING else f.default * 0
        if isinstance(total, EnergyLedger):
            for value in values:
                total.add(value, 1)
            aggregate[f.name] = asdict(total)
        elif isinstance(total, list):  # the QoS histogram, keyed "1" to "7"
            aggregate[f.name] = {str(s): sum(c) for s, c in enumerate(zip(total, *values)) if s}
        else:
            aggregate[f.name] = sum(values, total)
    gaps = {}  # mode value -> [first-to-last packet seconds, packets after the first]
    for log in ordered:
        gap = gaps.setdefault(log.mode.value, [0.0, 0])
        if log.packets_emitted:
            gap[0] += log.last_packet_s - log.first_packet_s
            gap[1] += log.packets_emitted - 1
    latency_mean, latency_max = _mean_max(
        [lat for log in ordered for lat in log.notification_latencies_s]
    )
    uptime_sum = sum(log.uptime_fraction for log in ordered)
    aggregate.update(
        uptime_fraction=uptime_sum / len(ordered) if ordered else 1.0,
        packets_delivered=sum(nodes[log.node_id].packets_delivered for log in ordered),
        mean_interval_s={mode: (s / c if c else None) for mode, (s, c) in gaps.items()},
        notification_latency_mean_s=latency_mean,
        notification_latency_max_s=latency_max,
    )
    return aggregate


def _run_one(node, light, events, *, duration_s, detail, log_dir) -> NodeLog:
    """Runs one node of a deployment.  With ``log_dir``, the node's log is
    written there as the node runs."""
    log_path = None if log_dir is None else Path(log_dir) / f"{node.node_id}_log.csv"
    return run_node(node, light, events, duration_s=duration_s, detail=detail, log_path=log_path)


def run_deployment(
    config: DeploymentConfig,
    light_traces: dict,
    event_traces: Optional[dict] = None,
    *,
    duration_s: float,
    detail: bool = False,
    log_dir=None,
) -> DeploymentReport:
    """Simulate every node independently; the report's ``aggregate`` sums
    their logs when read.

    ``light_traces`` maps node_id to a light Trace (one per node, required);
    ``event_traces`` maps node_id to an impulse Trace for event-detection
    nodes.  Each node's outcome is identical to running that node alone.

    With ``log_dir`` (``detail`` only), each node's ``<node_id>_log.csv`` is
    written there as the node runs, and its NodeLog keeps no records.  The
    nodes then run in a pool of forked workers, one per available CPU and at
    most one per node, while this process waits; a free worker takes the
    next node not yet taken.  The error raised is always that of the first
    failing node in config order, or ``BrokenProcessPool`` if a worker dies.
    """
    if log_dir is not None and not detail:
        raise ValueError("log_dir needs detail=True")
    duration_s = check_duration(duration_s)  # also for a fleet with no node
    event_traces = event_traces or {}
    missing = [n.node_id for n in config.nodes if n.node_id not in light_traces]
    if missing:
        raise ValueError(f"missing light trace for node(s): {', '.join(sorted(missing))}")
    n = 1
    if log_dir is not None:
        Path(log_dir).mkdir(parents=True, exist_ok=True)
        if hasattr(os, "fork"):  # and with it multiprocessing's "fork" start method
            affinity = getattr(os, "sched_getaffinity", None)
            cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
            n = max(1, min(cpus, len(config.nodes)))
    nodes = config.nodes
    lights = [light_traces[node.node_id] for node in nodes]
    events = [event_traces.get(node.node_id) for node in nodes]
    run = functools.partial(_run_one, duration_s=duration_s, detail=detail, log_dir=log_dir)
    if n == 1:
        logs = list(map(run, nodes, lights, events))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork")) as pool:
            logs = list(pool.map(run, nodes, lights, events))

    report = DeploymentReport(duration_s, config.radio_range_m, config.base_station_m)
    for node, log in zip(nodes, logs):
        report.logs[node.node_id] = log
        dist = node_distance_m(node, config.base_station_m)
        report.nodes[node.node_id] = NodeMetrics(
            log.packets_emitted if link_delivery(dist, config.radio_range_m) else 0,
            dist,
            log.mean_packet_interval_s,
            *_mean_max(log.notification_latencies_s),
        )
    return report


def report_summary(report: DeploymentReport) -> dict:
    """report.json: the run's extent, the fleet aggregate and, per node, its
    ``ledger_summary`` under "ledgers" and its ``NodeMetrics`` under "nodes"."""
    return {
        "duration_s": report.duration_s,
        "radio_range_m": report.radio_range_m,
        "base_station_m": list(report.base_station_m),
        "aggregate": report.aggregate,
        "nodes": {node_id: asdict(m) for node_id, m in report.nodes.items()},
        "ledgers": {node_id: ledger_summary(log) for node_id, log in report.logs.items()},
    }


def write_deployment_report(report: DeploymentReport, out_dir) -> dict:
    """Writes report.json and returns what it wrote (``report_summary``);
    ``run_deployment(..., log_dir=...)`` writes the node logs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = report_summary(report)
    write_json(summary, out / "report.json")
    return summary
