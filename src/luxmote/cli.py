"""Command-line entry point for batch experiments.

Subcommands: simulate-node, simulate-deployment, explore, validate-config.
Exit codes: 0 on success, 1 on validation or runtime errors (with a
diagnostic on stderr).  Outputs contain no wall-clock timestamps, so reruns
with identical arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import (
    ConfigError,
    load_any_config,
    load_deployment_config,
    load_node_config,
    load_sweep_grid,
)
from .deployment import run_deployment, write_deployment_report
from .explore import sweep, write_frontier_csv
from .qos import ApplicationMode
from .simulate import run_node, write_ledger_json
from .traces import TraceError, load_trace_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luxmote",
        description="Simulate battery-free light-harvesting BLE sensor nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("simulate-node", help="run one node against its traces")
    node.add_argument("--config", required=True, help="node config JSON")
    node.add_argument("--light-trace", required=True, help="light trace CSV (time_s,value)")
    node.add_argument("--events-trace", help="event impulse trace CSV (event-detection mode)")
    node.add_argument("--duration-s", required=True, type=float)
    node.add_argument("--out", required=True, help="output directory")

    dep = sub.add_parser("simulate-deployment", help="run a multi-node deployment")
    dep.add_argument("--config", required=True, help="deployment config JSON")
    dep.add_argument(
        "--trace-dir",
        required=True,
        help="directory holding <node_id>_light.csv and optional <node_id>_events.csv",
    )
    dep.add_argument("--duration-s", required=True, type=float)
    dep.add_argument("--out", required=True, help="output directory")

    exp = sub.add_parser("explore", help="sweep the design space to a frontier CSV")
    exp.add_argument("--config", required=True, help="sweep grid JSON")
    exp.add_argument("--out", required=True, help="frontier CSV path")

    val = sub.add_parser("validate-config", help="check a config file and exit")
    val.add_argument("--config", required=True, help="node, deployment or grid JSON")

    return parser


def _check_duration(args) -> None:
    if not 0.0 < args.duration_s < math.inf:
        raise ConfigError(f"--duration-s must be finite and > 0, got {args.duration_s}")


def cmd_simulate_node(args) -> int:
    _check_duration(args)
    config = load_node_config(args.config)
    light = load_trace_csv(args.light_trace)
    events = load_trace_csv(args.events_trace) if args.events_trace else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log = run_node(
        config,
        light,
        events,
        duration_s=args.duration_s,
        log_path=out / f"{config.node_id}_log.csv",
    )
    write_ledger_json(log, out / f"{config.node_id}_ledger.json")
    print(
        f"{config.node_id}: {log.packets_emitted} packets, "
        f"uptime {log.uptime_fraction:.4f}, final {log.final_voltage_v:.3f} V"
    )
    return 0


def cmd_simulate_deployment(args) -> int:
    _check_duration(args)
    config = load_deployment_config(args.config)
    trace_dir = Path(args.trace_dir)
    light_traces = {}
    event_traces = {}
    for node in config.nodes:
        light_path = trace_dir / f"{node.node_id}_light.csv"
        if not light_path.exists():
            raise ConfigError(f"node {node.node_id}: missing light trace {light_path}")
        light_traces[node.node_id] = load_trace_csv(light_path)
        events_path = trace_dir / f"{node.node_id}_events.csv"
        if node.mode is ApplicationMode.EVENT_DETECTION and events_path.exists():
            event_traces[node.node_id] = load_trace_csv(events_path)
    report = run_deployment(
        config,
        light_traces,
        event_traces,
        duration_s=args.duration_s,
        detail=True,
        log_dir=args.out,
    )
    write_deployment_report(report, args.out)
    agg = report.metrics
    print(
        f"{len(agg.per_node)} nodes: {agg.packets_delivered}/{agg.packets_emitted} "
        f"packets delivered, mean uptime {agg.uptime_fraction:.4f}"
    )
    return 0


def cmd_explore(args) -> int:
    grid, base = load_sweep_grid(args.config)
    rows = sweep(grid, base)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_frontier_csv(rows, out, lux_levels=grid.lux_levels)
    print(f"{len(rows)} frontier rows written to {out}")
    return 0


def cmd_validate_config(args) -> int:
    load_any_config(args.config)
    print(f"{args.config}: OK")
    return 0


_COMMANDS = {
    "simulate-node": cmd_simulate_node,
    "simulate-deployment": cmd_simulate_deployment,
    "explore": cmd_explore,
    "validate-config": cmd_validate_config,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; fold usage errors
        # into the documented failure code
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, TraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
