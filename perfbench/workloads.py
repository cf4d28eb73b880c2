"""The benchmark's workloads: their inputs, set-up, timed run and summary.

Each workload is driven through luxmote's public API or CLI only.  The parent
process calls ``prepare`` once per benchmark run to write the inputs; every
repetition then runs ``setup``, ``run`` and ``summarize`` in a fresh
interpreter (see worker.py).  luxmote is never imported at module level here,
so the parent stays free of it.

Why these three, and which layers each one loads, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

DAY_S = 86400.0

LEDGER_KEYS = ("harvest_panel_j", "harvest_stored_j", "drain_stored_j", "load_j", "leak_j")
NODE_KEYS = (
    "controller_steps",
    "packets_emitted",
    "deaths",
    "recoveries",
    "uptime_fraction",
    "dead_seconds",
    "final_voltage_v",
    "events_detected",
    "events_missed_dead",
    "notifications_emitted",
)
RESIDUAL_LIMIT = 1e-6


def _node_stats(ledger: dict, delivered=None) -> dict:
    """Deterministic per-node statistics from a ``ledger_summary`` dict."""
    stats = {key: ledger[key] for key in NODE_KEYS}
    stats["ledger"] = {key: ledger["ledger"][key] for key in LEDGER_KEYS}
    if delivered is not None:
        stats["packets_delivered"] = delivered
    return stats


def _node_problems(node_id: str, ledger: dict, delivered=None) -> list[str]:
    problems = []
    residual = ledger["energy_residual_relative"]
    if not residual <= RESIDUAL_LIMIT:
        problems.append(f"{node_id}: energy residual {residual!r} > {RESIDUAL_LIMIT}")
    steps = sum(ledger["qos_histogram"].values())
    if ledger["controller_steps"] != steps:
        problems.append(
            f"{node_id}: controller_steps {ledger['controller_steps']} != histogram sum {steps}"
        )
    if delivered is not None and delivered > ledger["packets_emitted"]:
        problems.append(
            f"{node_id}: {delivered} packets delivered > {ledger['packets_emitted']} emitted"
        )
    return problems


def _report_stats(summary: dict) -> tuple[dict, list[str]]:
    """Statistics and checks for a deployment ``report_summary`` dict."""
    stats, problems = {}, []
    for node_id, ledger in sorted(summary["ledgers"].items()):
        delivered = summary["nodes"][node_id]["packets_delivered"]
        stats[node_id] = _node_stats(ledger, delivered)
        problems += _node_problems(node_id, ledger, delivered)
    return stats, problems


class FleetSteady:
    """The paper's headline scenario: the shipped 15-node fleet at a constant
    300 lux, periodic sensing, summary counters only."""

    name = "fleet_steady"
    days = 4.0  # the fleet pins at the 3.6 V ceiling from about day 0.8

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        pass  # shipped inputs; the seed changes nothing here

    def setup(self, root: Path, work: Path, call):
        import luxmote

        config = call(
            "config.load_deployment_config",
            luxmote.load_deployment_config,
            root / "configs" / "deployment_15node.json",
        )
        traces = {
            node.node_id: call(
                "traces.load_trace_csv",
                luxmote.load_trace_csv,
                root / "configs" / "traces" / f"{node.node_id}_light.csv",
            )
            for node in config.nodes
        }
        return config, traces

    def run(self, inputs, out: Path, call, clock) -> dict:
        import luxmote

        config, traces = inputs
        t0 = clock()
        report = call(
            "deployment.run_deployment",
            luxmote.run_deployment,
            config,
            traces,
            duration_s=self.days * DAY_S,
            detail=False,
        )
        return {"report": report, "sim_s": clock() - t0}

    def summarize(self, result: dict, out: Path) -> dict:
        from luxmote.deployment import report_summary

        stats, problems = _report_stats(report_summary(result["report"]))
        return {
            "node_days": len(stats) * self.days,
            "stats": stats,
            "problems": problems,
            "records": 0,
            "bytes_written": 0,
            "outputs_digest": None,
        }


class AdvBrownout:
    """One advertising node at a constant 300 lux over whole days: the most
    wakeups per node-day, and about five brown-outs and recoveries a day."""

    name = "adv_brownout"
    days = 1.0

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        node = {
            "node_id": "adv01",
            "mode": "advertising",
            "position_m": [3.0, 2.0],
            "supercap": {"capacitance_f": 1.0, "voltage_v": 2.5},
        }
        (work / "adv_node.json").write_text(json.dumps(node, indent=2) + "\n")

    def setup(self, root: Path, work: Path, call):
        import luxmote

        config = call("config.load_node_config", luxmote.load_node_config, work / "adv_node.json")
        light = call(
            "traces.load_trace_csv",
            luxmote.load_trace_csv,
            root / "configs" / "traces" / "n01_light.csv",
        )
        return config, light

    def run(self, inputs, out: Path, call, clock) -> dict:
        import luxmote

        config, light = inputs
        t0 = clock()
        log = call(
            "simulate.run_node",
            luxmote.run_node,
            config,
            light,
            duration_s=self.days * DAY_S,
            detail=False,
        )
        return {"log": log, "sim_s": clock() - t0}

    def summarize(self, result: dict, out: Path) -> dict:
        from luxmote.simulate import ledger_summary

        ledger = ledger_summary(result["log"])
        node_id = ledger["node_id"]
        return {
            "node_days": self.days,
            "stats": {node_id: _node_stats(ledger)},
            "problems": _node_problems(node_id, ledger),
            "records": 0,
            "bytes_written": 0,
            "outputs_digest": None,
        }


def _diurnal_light(rng: random.Random, days: int, peak_lux: float) -> list[tuple[float, float]]:
    """Minute-resolution office light: dark nights, a daylight arch with
    seeded sunrise, sunset, level and flicker.  The sample count is fixed so
    that every seed costs the same to parse and to simulate."""
    samples = []
    for day in range(days):
        rise = 7.5 + rng.uniform(-0.25, 0.25)
        sset = 18.5 + rng.uniform(-0.25, 0.25)
        peak = peak_lux * rng.uniform(0.95, 1.05)
        for minute in range(1440):
            hour = minute / 60.0
            lux = 0.0
            if rise < hour < sset:
                arch = math.sin(math.pi * (hour - rise) / (sset - rise)) ** 0.5
                lux = max(0.0, peak * arch * (1.0 + rng.gauss(0.0, 0.03)))
            samples.append((day * DAY_S + minute * 60.0, round(lux, 1)))
    return samples


def _motion_events(rng: random.Random, days: int, per_day: int) -> list[float]:
    """Distinct whole-second motion times within office hours."""
    times = []
    for day in range(days):
        start = int(day * DAY_S + 8 * 3600)
        times += sorted(rng.sample(range(start, start + 10 * 3600), per_day))
    return [float(t) for t in times]


def _write_csv(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("time_s,value\n")
        for t, v in rows:
            fh.write(f"{t!r},{v!r}\n")


class OfficeCli:
    """A seeded mixed office fleet run through the CLI: an ``explore`` sweep,
    then ``simulate-deployment`` with per-event logs and the report."""

    name = "office_cli"
    days = 2
    # (kind, count, node overrides, peak lux).  The counts and sizes are
    # fixed; the seed only moves values, so every seed is the same work.
    FLEET = (
        ("desk", 6, {"mode": "periodic_sensing"}, 450.0),
        ("leaky", 3, {"mode": "periodic_sensing", "supercap": {"leak_current_a": 1e-6}}, 450.0),
        ("pir", 4, {"mode": "event_detection"}, 450.0),
        # Small storage under dim light: charges by day, browns out at night.
        ("dim", 2, {"mode": "periodic_sensing", "supercap": {"capacitance_f": 0.02}}, 40.0),
    )
    EVENTS_PER_DAY = 150
    SWEEP_CAPACITANCES = 100  # x 7 QoS states = 700 frontier rows

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        rng = random.Random(seed)
        traces = work / "traces"
        traces.mkdir(parents=True)
        nodes = []
        for kind, count, overrides, peak in self.FLEET:
            for i in range(count):
                node_id = f"{kind}{i + 1:02d}"
                supercap = {"capacitance_f": 1.0, "voltage_v": 2.5}
                supercap.update(overrides.get("supercap", {}))
                nodes.append(
                    {
                        "node_id": node_id,
                        "mode": overrides["mode"],
                        # Some nodes fall outside the 30 m radio range.
                        "position_m": [
                            round(rng.uniform(0.0, 45.0), 2),
                            round(rng.uniform(0.0, 20.0), 2),
                        ],
                        "supercap": supercap,
                    }
                )
                _write_csv(traces / f"{node_id}_light.csv", _diurnal_light(rng, self.days, peak))
                if overrides["mode"] == "event_detection":
                    events = _motion_events(rng, self.days, self.EVENTS_PER_DAY)
                    _write_csv(traces / f"{node_id}_events.csv", [(t, 1.0) for t in events])
        deployment = {"base_station_m": [0.0, 0.0], "radio_range_m": 30.0, "nodes": nodes}
        (work / "deployment.json").write_text(json.dumps(deployment, indent=2) + "\n")
        grid = {
            "capacitances_f": sorted(
                round(rng.uniform(0.05, 5.0), 4) for _ in range(self.SWEEP_CAPACITANCES)
            ),
            "qos_states": [1, 2, 3, 4, 5, 6, 7],
            "mode": "periodic_sensing",
            "lux_levels": [10.0, 25.0, 50.0, 100.0, 200.0],
        }
        (work / "grid.json").write_text(json.dumps(grid, indent=2) + "\n")

    def setup(self, root: Path, work: Path, call):
        import luxmote

        config = call(
            "config.load_deployment_config",
            luxmote.load_deployment_config,
            work / "deployment.json",
        )
        call("config.load_sweep_grid", luxmote.load_sweep_grid, work / "grid.json")
        for path in sorted((work / "traces").glob("*.csv")):
            call("traces.load_trace_csv", luxmote.load_trace_csv, path)
        return work  # the CLI loads the files again itself

    def run(self, inputs, out: Path, call, clock) -> dict:
        import luxmote.cli

        work = inputs
        explore = [
            "explore",
            "--config",
            str(work / "grid.json"),
            "--out",
            str(out / "frontier.csv"),
        ]
        simulate = [
            "simulate-deployment",
            "--config",
            str(work / "deployment.json"),
            "--trace-dir",
            str(work / "traces"),
            "--duration-s",
            repr(self.days * DAY_S),
            "--out",
            str(out / "report"),
        ]
        # The simulation part of the run, for node_days_per_s: one timer
        # around the CLI's call into the deployment layer.
        run_deployment = luxmote.cli.run_deployment
        sim_s = 0.0

        def timed(*args, **kwargs):
            nonlocal sim_s
            t0 = clock()
            try:
                return run_deployment(*args, **kwargs)
            finally:
                sim_s += clock() - t0

        luxmote.cli.run_deployment = timed
        try:
            codes = [call("cli.main", luxmote.cli.main, argv) for argv in (explore, simulate)]
        finally:
            luxmote.cli.run_deployment = run_deployment
        return {"codes": codes, "sim_s": sim_s}

    def summarize(self, result: dict, out: Path) -> dict:
        problems = [
            f"luxmote {cmd} exited {code}"
            for cmd, code in zip(("explore", "simulate-deployment"), result["codes"])
            if code != 0
        ]
        stats = {}
        if not problems:
            summary = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
            stats, problems = _report_stats(summary)
        digest = hashlib.sha256()
        records = 0
        bytes_written = 0
        for path in sorted(out.rglob("*")):
            if not path.is_file():
                continue
            data = path.read_bytes()
            digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
            if path.parent.name == "report":
                bytes_written += len(data)
                if path.name.endswith("_log.csv"):
                    records += data.count(b"\n") - 1
        return {
            "node_days": len(stats) * float(self.days),
            "stats": stats,
            "problems": problems,
            "records": records,
            "bytes_written": bytes_written,
            "outputs_digest": digest.hexdigest(),
        }


WORKLOADS = {w.name: w for w in (FleetSteady(), AdvBrownout(), OfficeCli())}
