"""luxmote benchmark: end-to-end and per-layer metrics for named workloads.

    python3 perfbench/run.py --workload fleet_steady --seed 1 --seconds 30 --trace 0

Repeats the workload, each repetition in a fresh interpreter, until
``--seconds`` is used up, then prints the medians of the end-to-end metrics
(``--trace 0``) or of the per-layer metrics (``--trace 1``, which alternates
untraced and traced repetitions).  Every repetition is checked; the command
exits 1 if any failed.  The last line of standard output is the result
object; the line before it holds spreads, simulated statistics and the
environment.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Host speed on a shared machine drifts by tens of percent.  Each repetition
# samples the time of a fixed calibration loop throughout its run (HostSpeed
# in worker.py), and times are reported as seconds on a reference host that
# runs that loop in CAL_REF_S: measured time * CAL_REF_S / mean calibration.
CAL_REF_S = 0.002
MIN_REPS = 3  # per workload and tracing mode, even when --seconds is shorter

END_TO_END = {
    "wall_s": "s",
    "node_days_per_s": "node-day/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def spread(values) -> dict:
    values = sorted(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_rep(name: str, traced: bool, work: Path, rep: int, timeout_s: float):
    """One repetition in a fresh interpreter: (record, error)."""
    spec = {
        "workload": name,
        "traced": traced,
        "root": str(ROOT),
        "work": str(work),
        "out": str(work / f"rep{rep}"),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout_s, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"repetition timed out after {timeout_s:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited with code {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "worker printed no result"


def scale(rec: dict) -> float:
    """Factor from this repetition's host speed to the reference host's."""
    return CAL_REF_S / rec["calibration_s"]


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced repetition, with their units; times
    are scaled to the reference host like the end-to-end ones."""
    layers = rec["trace"]["layers"]
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "units": 0}
    factor = scale(rec)

    def get(name):
        stat = layers.get(name, zero)
        return {**stat, "incl_s": stat["incl_s"] * factor, "self_s": stat["self_s"] * factor}

    def per(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    m = {}
    for name in (
        "qos.step",
        "qos.interval_for",
        "energy.discharge",
        "explore.min_lux_for_perpetual",
    ):
        m[f"{name}.calls"] = (get(name)["calls"], "count")
        m[f"{name}.self_us_per_call"] = (per(get(name)["self_s"], get(name)["calls"]), "us")
    m["qos.reset.calls"] = (get("qos.reset")["calls"], "count")
    push, pop = get("simulate.heap.push"), get("simulate.heap.pop")
    m["simulate.heap.push.calls"] = (push["calls"], "count")
    m["simulate.heap.pop.calls"] = (pop["calls"], "count")
    m["simulate.heap.self_us_per_call"] = (
        per(push["self_s"] + pop["self_s"], push["calls"] + pop["calls"]),
        "us",
    )
    run_node = get("simulate.run_node")
    m["simulate.run_node.calls"] = (run_node["calls"], "count")
    m["simulate.run_node.self_s"] = (run_node["self_s"], "s")
    m["simulate.run_node.self_us_per_event"] = (per(run_node["self_s"], run_node["units"]), "us")
    writer = get("simulate.write_node_log_csv")
    m["simulate.write_node_log_csv.self_s"] = (writer["self_s"], "s")
    m["simulate.write_node_log_csv.us_per_record"] = (per(writer["incl_s"], writer["units"]), "us")
    loader = get("traces.load_trace_csv")
    m["traces.load_trace_csv.calls"] = (loader["calls"], "count")
    m["traces.load_trace_csv.us_per_sample"] = (per(loader["incl_s"], loader["units"]), "us")
    for name in (
        "config.load_deployment_config",
        "config.load_sweep_grid",
        "deployment.run_deployment",
        "deployment.compute_metrics",
        "deployment.write_deployment_report",
        "deployment.report_summary",
        "explore.sweep",
        "cli.main",
    ):
        m[f"{name}.self_s"] = (get(name)["self_s"], "s")
    m["deployment.bytes_written"] = (rec["bytes_written"], "B")
    sweep = get("explore.sweep")
    m["explore.sweep.us_per_row"] = (per(sweep["incl_s"], sweep["units"]), "us")
    nodes = rec["stats"].values()
    m["simulate.wakeups"] = (sum(n["controller_steps"] for n in nodes), "count")
    m["simulate.external_events"] = (
        sum(n["events_detected"] + n["events_missed_dead"] for n in nodes),
        "count",
    )
    m["simulate.deaths"] = (sum(n["deaths"] for n in nodes), "count")
    m["simulate.recoveries"] = (sum(n["recoveries"] for n in nodes), "count")
    m["simulate.records"] = (rec["records"], "count")
    return m


def totals(stats: dict) -> dict:
    """Fleet totals of the per-node statistics, for the printed summary."""
    nodes = list(stats.values())
    out = {
        "nodes": len(nodes),
        "wakeups": sum(n["controller_steps"] for n in nodes),
        "packets_emitted": sum(n["packets_emitted"] for n in nodes),
        "packets_delivered": sum(n.get("packets_delivered", 0) for n in nodes),
        "deaths": sum(n["deaths"] for n in nodes),
        "recoveries": sum(n["recoveries"] for n in nodes),
        "dead_seconds": sum(n["dead_seconds"] for n in nodes),
        "final_voltage_v": [n["final_voltage_v"] for n in nodes],
    }
    for key in nodes[0]["ledger"] if nodes else ():
        out[key] = sum(n["ledger"][key] for n in nodes)
    return out


def summarize(name: str, reps: list, trace: bool) -> tuple[dict, dict, int]:
    """(metrics, detail, failed count) for one workload's repetitions."""
    # Every repetition of one commit and seed must simulate the same thing.
    ok = [r for r in reps if r["rec"] is not None]
    reference = {}
    for key in ("stats_digest", "outputs_digest"):
        seen = collections.Counter(r["rec"][key] for r in ok)
        reference[key] = seen.most_common(1)[0][0] if seen else None
    for r in reps:
        rec = r["rec"]
        if rec is None:
            continue
        r["problems"] += rec["problems"]
        if rec["stats_digest"] != reference["stats_digest"]:
            r["problems"].append("simulated statistics differ from the other repetitions")
        if rec["outputs_digest"] != reference["outputs_digest"]:
            r["problems"].append("output files differ from the other repetitions")
        if "trace" in rec and rec["trace"]["self_sum_s"] > rec["trace"]["window_s"] + 1e-9:
            r["problems"].append("traced self times add up to more than the traced wall time")
    good = [r for r in reps if not r["problems"]]
    plain = [r["rec"] for r in good if not r["traced"]]
    traced = [r["rec"] for r in good if r["traced"]]

    samples = {
        "wall_s": [r["wall_s"] * scale(r) for r in plain],
        "node_days_per_s": [r["node_days"] / (r["sim_s"] * scale(r)) for r in plain],
        "setup_s": [r["setup_s"] * scale(r) for r in plain],
        "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
    }
    failed = len(reps) - len(good)
    detail = {
        "end_to_end": {k: spread(v) for k, v in samples.items()},
        "unscaled_wall_s": spread([r["wall_s"] for r in plain]),
        "calibration_s": spread([r["rec"]["calibration_s"] for r in good]),
        "failed_frac": failed / len(reps),
        "failures": [f"rep {r['rep']}: {p}" for r in reps for p in r["problems"]],
        "stats_digest": reference["stats_digest"],
        "outputs_digest": reference["outputs_digest"],
        "stats_totals": totals(good[0]["rec"]["stats"]) if good else None,
    }
    metrics = {}
    if not trace:
        for key, unit in END_TO_END.items():
            if samples[key]:
                metrics[key] = (detail["end_to_end"][key]["median"], unit)
    elif traced:
        per_rep = [layer_metrics(rec) for rec in traced]
        units = {k: unit for k, (_, unit) in per_rep[0].items()}
        layer = {k: spread([m[k][0] for m in per_rep]) for k in units}
        traced_wall = spread([rec["wall_s"] * scale(rec) for rec in traced])["median"]
        if plain:
            layer["trace.overhead_ratio"] = spread(
                [traced_wall / detail["end_to_end"]["wall_s"]["median"]]
            )
            units["trace.overhead_ratio"] = "ratio"
        detail["per_layer"] = layer
        detail["absent_layers"] = traced[0]["trace"]["absent"]
        detail["traced_wall_s"] = spread([rec["wall_s"] * scale(rec) for rec in traced])
        metrics = {k: (layer[k]["median"], units[k]) for k in units}
    return metrics, detail, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        help=f"one of {', '.join(WORKLOADS)}, or several joined by commas to interleave them",
    )
    parser.add_argument("--seed", type=int, required=True, help="workload seed for generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full detail, with spans, to this JSON file")
    args = parser.parse_args()

    names = args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    if not (ROOT / "src" / "luxmote" / "__init__.py").is_file():
        print(f"perfbench: no luxmote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        for name in names:
            (base / name).mkdir(parents=True)
            WORKLOADS[name].prepare(ROOT, base / name, args.seed)
        # Round-robin over workloads and tracing modes, so that drift in host
        # speed falls on all of them alike.
        plan = [(n, False) for n in names] + [(n, True) for n in names if args.trace]
        reps = []
        last = {}
        start = time.perf_counter()
        while True:
            name, traced = plan[len(reps) % len(plan)]
            elapsed = time.perf_counter() - start
            expected = elapsed + last.get((name, traced), 0.0)
            if len(reps) >= MIN_REPS * len(plan) and expected > args.seconds:
                break
            if expected > RUN_LIMIT_S / 1.5:
                break
            t0 = time.perf_counter()
            rec, error = run_rep(name, traced, base / name, len(reps), RUN_LIMIT_S - elapsed)
            last[name, traced] = time.perf_counter() - t0
            reps.append(
                {
                    "name": name,
                    "traced": traced,
                    "rep": len(reps),
                    "rec": rec,
                    "problems": [error] if error else [],
                }
            )
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass

    env = next((r["rec"]["env"] for r in reps if r["rec"]), {})
    env.update(
        cpus=os.cpu_count(),
        commit=git_commit(),
        platform=platform.platform(),
        seconds=args.seconds,
        seed=args.seed,
        trace=args.trace,
    )
    metrics, details, failed = {}, {}, 0
    for name in names:
        m, detail, f = summarize(name, [r for r in reps if r["name"] == name], bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        details[name] = detail
        failed += f

    print(json.dumps({"detail": {"env": env, "workloads": details}}))
    if args.out:
        full = {
            "env": env,
            "workloads": details,
            "repetitions": [
                {k: r[k] for k in ("name", "traced", "rep", "problems")} | {"record": r["rec"]}
                for r in reps
            ],
        }
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
