"""Multi-node deployments: per-node simulation, range-gated packet delivery
to a base station and fleet-level metrics.

Nodes share no energy or radio state, so each is simulated independently; a
node's outcome in a deployment equals its outcome when run alone.  A run
that writes its node logs to a directory runs the nodes in up to one process
per available CPU: each process takes the next node not yet taken, and
writes the node's log line by line as the node runs.  Delivery is
hard-range: every packet of a node within the radio range reaches the base
station, none of a node beyond it.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .energy import require_finite
from .simulate import NodeConfig, NodeLog, ledger_summary, run_node, write_json


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
    """What a node's report entry adds to its ``ledger_summary``: the delivery
    and distance only a deployment knows, and values derived from its log."""

    packets_delivered: int
    distance_m: float
    mean_packet_interval_s: Optional[float]
    notification_latency_mean_s: Optional[float]
    notification_latency_max_s: Optional[float]


@dataclass(frozen=True)
class Metrics:
    """Fleet aggregate plus the per-node ``NodeMetrics`` by node id."""

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
    logs: dict = field(default_factory=dict)  # node_id -> NodeLog, in config order


def _mean_max(values: list) -> tuple[Optional[float], Optional[float]]:
    return (sum(values) / len(values), max(values)) if values else (None, None)


def compute_metrics(logs: dict, delivered: dict, distances: dict) -> Metrics:
    """Deterministic aggregate over per-node logs.

    ``logs`` maps node_id to its NodeLog, ``delivered`` to packets delivered
    and ``distances`` to the node-to-base-station distance.  Logs are folded
    in node_id order so the result is independent of simulation order.
    """
    ordered = [logs[node_id] for node_id in sorted(logs)]
    per_node = {}
    gaps = {}  # mode value -> [gap sum, gap count]
    for log in ordered:
        per_node[log.node_id] = NodeMetrics(
            delivered[log.node_id],
            distances[log.node_id],
            log.mean_packet_interval_s,
            *_mean_max(log.notification_latencies_s),
        )
        gap = gaps.setdefault(log.mode.value, [0.0, 0])
        gap[0] += log.packet_gap_sum_s
        gap[1] += log.packet_gap_count
    latency_mean, latency_max = _mean_max(
        [lat for log in ordered for lat in log.notification_latencies_s]
    )
    uptime_sum = sum(log.uptime_fraction for log in ordered)
    return Metrics(
        per_node=per_node,
        uptime_fraction=(uptime_sum / len(ordered)) if ordered else 1.0,
        dead_seconds=sum((log.dead_seconds for log in ordered), 0.0),  # a float when empty
        packets_emitted=sum(log.packets_emitted for log in ordered),
        packets_delivered=sum(m.packets_delivered for m in per_node.values()),
        controller_steps=sum(log.controller_steps for log in ordered),
        qos_histogram=(0, *(sum(log.qos_histogram[s] for log in ordered) for s in range(1, 8))),
        mean_interval_s={mode: (s / c if c else None) for mode, (s, c) in gaps.items()},
        notification_latency_mean_s=latency_mean,
        notification_latency_max_s=latency_max,
    )


def _run_pulled(take, nodes, light_traces, event_traces, duration_s, detail, log_dir) -> dict:
    """Runs ``nodes[k]`` for each index k that ``take()`` returns, until k
    is past the end or a node fails: {k: its NodeLog, or the exception it
    raised}.  With ``log_dir``, each node's log is written there as the node
    runs."""
    done = {}
    while (k := take()) < len(nodes):
        node = nodes[k]
        log_path = None if log_dir is None else Path(log_dir) / f"{node.node_id}_log.csv"
        try:
            done[k] = run_node(
                node,
                light_traces[node.node_id],
                event_traces.get(node.node_id),
                duration_s=duration_s,
                detail=detail,
                log_path=log_path,
            )
        except Exception as exc:
            done[k] = exc
            break
    return done


def _pull_in_worker(results, take, job) -> None:
    """A forked worker's run: ``_run_pulled``, its outcomes sent to the caller."""
    with results:
        results.send(_run_pulled(take, *job))


def run_deployment(
    config: DeploymentConfig,
    light_traces: dict,
    event_traces: Optional[dict] = None,
    *,
    duration_s: float,
    detail: bool = False,
    log_dir=None,
) -> DeploymentReport:
    """Simulate every node independently and aggregate.

    ``light_traces`` maps node_id to a light Trace (one per node, required);
    ``event_traces`` maps node_id to an impulse Trace for event-detection
    nodes.  Each node's outcome is identical to running that node alone.

    With ``log_dir`` (``detail`` only), each node's ``<node_id>_log.csv`` is
    written there as the node runs, and its NodeLog keeps no records.  The
    nodes then run in up to one process per available CPU, this one and
    forked workers: each process takes the next node index from one shared
    counter until none is left, so a process that draws short nodes takes
    more of them.  The error raised is always that of the first failing node
    in config order.
    """
    if log_dir is not None and not detail:
        raise ValueError("log_dir needs detail=True")
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
    job = (config.nodes, light_traces, event_traces, duration_s, detail, log_dir)
    if n == 1:
        outcomes = _run_pulled(itertools.count().__next__, *job)
    else:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        counter = ctx.Value("i", 0)  # the index of the next node to run

        def take():
            with counter.get_lock():
                k = counter.value
                counter.value = k + 1
            return k

        workers = []
        try:
            for _ in range(n - 1):
                reader, writer = ctx.Pipe(duplex=False)
                worker = ctx.Process(target=_pull_in_worker, args=(writer, take, job))
                worker.start()
                writer.close()  # so that a worker's death ends the read with EOFError
                workers.append((reader, worker))
            outcomes = _run_pulled(take, *job)  # this process pulls nodes too
            for reader, worker in workers:
                try:
                    outcomes.update(reader.recv())
                except EOFError:
                    worker.join()
                    raise RuntimeError(
                        f"node worker {worker.pid} ended with exit code {worker.exitcode}"
                    ) from None
        finally:
            for reader, worker in workers:
                reader.close()
                worker.join()

    logs, delivered, distances = {}, {}, {}
    # Indices are taken in order and every taken node ends, so a node never
    # run comes after a failed one.
    for k, node in enumerate(config.nodes):
        log = outcomes[k]
        if isinstance(log, Exception):
            raise log
        logs[node.node_id] = log
        dist = distances[node.node_id] = node_distance_m(node, config.base_station_m)
        in_range = link_delivery(dist, config.radio_range_m)
        delivered[node.node_id] = log.packets_emitted if in_range else 0

    return DeploymentReport(
        duration_s=float(duration_s),
        radio_range_m=config.radio_range_m,
        base_station_m=config.base_station_m,
        metrics=compute_metrics(logs, delivered, distances),
        logs=logs,
    )


def report_summary(report: DeploymentReport) -> dict:
    """report.json: the run's extent, the fleet aggregate and, per node, its
    ``ledger_summary`` under "ledgers" and its ``NodeMetrics`` under "nodes"."""
    agg = report.metrics
    aggregate = {f.name: getattr(agg, f.name) for f in fields(agg) if f.name != "per_node"}
    aggregate["qos_histogram"] = {str(s): agg.qos_histogram[s] for s in range(1, 8)}
    return {
        "duration_s": report.duration_s,
        "radio_range_m": report.radio_range_m,
        "base_station_m": list(report.base_station_m),
        "aggregate": {"node_count": len(agg.per_node), **aggregate},
        "nodes": {node_id: asdict(m) for node_id, m in agg.per_node.items()},
        "ledgers": {node_id: ledger_summary(log) for node_id, log in report.logs.items()},
    }


def write_deployment_report(report: DeploymentReport, out_dir) -> None:
    """report.json only; ``run_deployment(..., log_dir=...)`` writes the node logs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(report_summary(report), out / "report.json")
