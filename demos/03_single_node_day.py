"""One node, one synthetic office day: trace-driven simulation with the full
event log, energy ledger, and a dip into darkness overnight.

Writes demo_out/day_log.csv and demo_out/day_ledger.json.

Run:  python3 demos/03_single_node_day.py
"""

import csv
from pathlib import Path

from luxmote import (
    NodeConfig,
    SupercapState,
    Trace,
    ledger_summary,
    run_node,
    write_ledger_json,
)

# Office lighting: dark until 07:30, bright working hours with a dim lunch
# break, evening ramp-down, dark overnight.
H = 3600.0
light = Trace.from_samples(
    [
        (0.0, 0.0),
        (7.5 * H, 420.0),
        (12.0 * H, 150.0),
        (13.0 * H, 420.0),
        (18.0 * H, 60.0),
        (20.0 * H, 0.0),
    ]
)

config = NodeConfig(
    node_id="desk-07",
    supercap=SupercapState(capacitance_f=0.4, voltage_v=3.1, v_rated=3.6),
)

# The log is written to day_log.csv as the run makes it, not kept in memory.
out = Path("demo_out")
out.mkdir(exist_ok=True)
log = run_node(config, light, duration_s=48 * H, log_path=out / "day_log.csv")

print(f"node {log.node_id}: {log.controller_steps} wakeups, "
      f"{log.packets_emitted} packets")
print(f"uptime {log.uptime_fraction:.4f}  "
      f"(dead {log.dead_seconds:.0f} s, deaths {log.deaths}, recoveries {log.recoveries})")
print(f"voltage {log.initial_voltage_v:.2f} -> {log.final_voltage_v:.3f} V")

print("\nservice-level occupancy:")
for state in range(7, 0, -1):
    count = log.qos_histogram[state]
    if count:
        bar = "#" * max(1, int(60 * count / log.controller_steps))
        print(f"  state {state}: {count:6d} {bar}")

led = log.ledger
print("\nenergy ledger (storage side):")
print(f"  panel output      {led.harvest_panel_j:9.3f} J")
print(f"  stored            {led.harvest_stored_j:9.3f} J")
print(f"  drained for loads {led.drain_stored_j:9.3f} J")
print(f"  delivered to rail {led.load_j:9.3f} J")
print(f"  conversion losses {led.conversion_loss_j:9.3f} J")
print(f"  conservation residual: {log.energy_residual_relative:.2e} (relative)")

write_ledger_json(log, out / "day_ledger.json")
with (out / "day_log.csv").open(encoding="utf-8", newline="") as fh:
    records = sum(1 for _ in csv.reader(fh)) - 1  # less the header
print(f"\nwrote {out / 'day_log.csv'} ({records} records) "
      f"and {out / 'day_ledger.json'}")
assert ledger_summary(log)["energy_residual_relative"] <= 1e-6
