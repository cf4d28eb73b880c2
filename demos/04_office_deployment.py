"""A small office fleet: well-lit desks, a dim corner, a motion sensor, and
one node parked past the radio horizon.

Run:  python3 demos/04_office_deployment.py
"""

from luxmote import (
    ApplicationMode,
    DeploymentConfig,
    NodeConfig,
    SupercapState,
    Trace,
    run_deployment,
)

H = 3600.0
bright = Trace.constant(350.0)
dim = Trace.constant(18.0)  # around the bare survival threshold
window = Trace.from_samples([(0.0, 0.0), (7 * H, 600.0), (19 * H, 0.0)])
# people pass the door in bursts: several triggers a few seconds apart,
# then twenty minutes of quiet
motion = Trace.from_samples(
    [
        (float(burst + k), 1.0)
        for burst in range(9 * 3600, 18 * 3600, 1200)
        for k in (0, 3, 7, 12, 18)
    ]
)

nodes = (
    NodeConfig(node_id="desk-a", position_m=(4.0, 2.0)),
    NodeConfig(node_id="desk-b", position_m=(9.0, 3.0)),
    NodeConfig(node_id="window", position_m=(14.0, 1.0),
               supercap=SupercapState(voltage_v=2.6)),
    NodeConfig(node_id="corner", position_m=(22.0, 6.0),
               supercap=SupercapState(voltage_v=2.8)),
    NodeConfig(node_id="door-pir", position_m=(6.0, 8.0),
               mode=ApplicationMode.EVENT_DETECTION),
    NodeConfig(node_id="stairwell", position_m=(40.0, 0.0)),  # out of range
)

config = DeploymentConfig(nodes=nodes, base_station_m=(0.0, 0.0), radio_range_m=30.0)
traces = {
    "desk-a": bright,
    "desk-b": bright,
    "window": window,
    "corner": dim,
    "door-pir": bright,
    "stairwell": bright,
}

report = run_deployment(config, traces, {"door-pir": motion}, duration_s=3 * 86400.0)

agg = report.aggregate
print(f"{agg['node_count']} nodes over 3 days: "
      f"{agg['packets_delivered']}/{agg['packets_emitted']} packets delivered")
print(f"fleet uptime {agg['uptime_fraction']:.4f}, total dead {agg['dead_seconds']:.0f} s\n")

print(f"{'node':10s} {'dist':>5s} {'uptime':>7s} {'emitted':>8s} {'delivered':>9s} "
      f"{'mean gap':>9s} {'top state':>9s}")
# counters come from each node's log; delivery, distance and the derived
# means from the deployment's per-node metrics
for node_id, m in sorted(report.nodes.items()):
    log = report.logs[node_id]
    gap = f"{m.mean_packet_interval_s:.1f}s" if m.mean_packet_interval_s else "-"
    top = max(range(1, 8), key=lambda s: log.qos_histogram[s])
    print(f"{node_id:10s} {m.distance_m:4.0f}m {log.uptime_fraction:7.4f} "
          f"{log.packets_emitted:8d} {m.packets_delivered:9d} {gap:>9s} {top:9d}")

pir = report.logs["door-pir"]
print(f"\nmotion sensor: {pir.events_detected} events, "
      f"{pir.notifications_emitted} notifications "
      f"(hold-off coalesced the rest; worst latency "
      f"{report.nodes['door-pir'].notification_latency_max_s or 0:.0f} s)")
print("\nthe stairwell node keeps sensing but its packets never reach the")
print("base station; the dim corner node rides the bottom service levels.")
