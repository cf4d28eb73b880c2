"""Design-space exploration: how much light does each service level need,
and how long does a node coast through darkness?

Run:  python3 demos/05_design_space.py
"""

from pathlib import Path

from luxmote import (
    NodeConfig,
    SweepGrid,
    min_lux_for_perpetual,
    steady_state_power,
    survival_at_lux_s,
    sweep,
    write_frontier_csv,
)

DAY = 86400.0
cfg = NodeConfig()

print("periodic sensing with the default hardware:")
print(f"{'state':>5s} {'interval':>9s} {'steady power':>13s} {'min lux':>8s} "
      f"{'dark survival':>14s}")
for row in sorted(cfg.table.rows):
    state = row.state
    p = steady_state_power(cfg, state)
    lux = min_lux_for_perpetual(cfg, state)
    days = survival_at_lux_s(cfg, state, 0.0) / DAY
    print(f"{state:5d} {row.sense_interval_s:8.0f}s {p * 1e6:11.2f} uW "
          f"{lux:8.1f} {days:13.1f} d")

print("\nreading the table: a desk lit to ~33 lux sustains 20 s sensing")
print("forever; below ~18 lux even the slowest level eventually browns out,")
print("and the storage element buys about two weeks of darkness either way.")

grid = SweepGrid(
    capacitances_f=(0.25, 0.5, 1.0, 2.0),
    qos_states=(1, 3, 5, 7),
    lux_levels=(10.0, 25.0),
)
rows = sweep(grid, cfg)
out = Path("demo_out")
out.mkdir(exist_ok=True)
write_frontier_csv(rows, out / "frontier.csv", lux_levels=grid.lux_levels)
print(f"\nswept {len(rows)} (capacitance, state) points -> demo_out/frontier.csv")

biggest = max(rows, key=lambda r: r.darkness_survival_s)
print(f"longest coast: {biggest.capacitance_f} F at state {biggest.qos_state} "
      f"-> {biggest.darkness_survival_s / DAY:.1f} days of darkness")
