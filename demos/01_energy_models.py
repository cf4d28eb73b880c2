"""Tour of the physical energy models: storage element, indoor panel,
two-path converter, and the standby draw.

Run:  python3 demos/01_energy_models.py
"""

from luxmote import (
    ConverterModel,
    HarvesterModel,
    LoadModel,
    NodeConfig,
    SupercapState,
    Trace,
    run_node,
    standby_power,
)


cap = SupercapState(capacitance_f=1.0, voltage_v=3.0)
conv = ConverterModel()
panel = HarvesterModel()
load = LoadModel()


def stored_j(v):
    """Energy the element holds at ``v`` volts: 0.5 * C * V^2."""
    return 0.5 * cap.capacitance_f * v * v


print("=== storage element ===")
print(f"1 F at {cap.voltage_v} V holds {stored_j(cap.voltage_v):.3f} J")
print(f"usable down to the {cap.v_cutoff} V brown-out: "
      f"{stored_j(cap.voltage_v) - stored_j(cap.v_cutoff):.3f} J")

print("\n=== indoor panel (linear in lux), from an hour's simulated ledger ===")
for lux in (0, 100, 300, 600, 1000):
    hour = run_node(NodeConfig(harvester=panel), Trace.constant(lux), duration_s=3600.0)
    print(f"  {lux:5d} lux -> {hour.ledger.harvest_panel_j / 3600.0 * 1e6:8.2f} uW raw panel output")

print("\n=== converter input path ===")
print(f"the boost charger passes {conv.eta_boost:.0%} of the panel output once the")
print(f"storage is at or above {conv.v_boost_min} V; below that the cold-start path")
print(f"passes only {conv.eta_cold:.0%}, which is why brown-outs are so costly.")
light = Trace.constant(300.0)
for v in (1.0, 1.8):
    empty = NodeConfig(supercap=SupercapState(voltage_v=v), converter=conv, harvester=panel)
    dead_s = run_node(empty, light, duration_s=5 * 86400.0, detail=False).dead_seconds
    print(f"  from {v:.1f} V to the 2.4 V restart at 300 lux: {dead_s / 3600.0:6.1f} h")

print("\n=== a day at 300 lux: charging while sensing ===")
node = NodeConfig(supercap=cap, converter=conv, harvester=panel, load=load)
for hour in range(0, 25, 4):
    v = cap.voltage_v
    if hour:
        v = run_node(node, light, duration_s=hour * 3600.0, detail=False).final_voltage_v
    print(f"  t = {hour:2d} h: {v:.3f} V")

print("\n=== paying for work ===")
print(f"standby draw (storage side): {standby_power(load, conv) * 1e6:.2f} uW")
# A load-side joule costs 1/eta_buck joules of stored energy.
e_tx = load.e_sense_tx_j / conv.eta_buck
v_tx = (v * v - 2.0 * e_tx / cap.capacitance_f) ** 0.5
print(f"one sense+transmit ({load.e_sense_tx_j * 1e6:.0f} uJ load-side) moves the "
      f"voltage by {(v - v_tx) * 1e6:.2f} uV")
usable_j = stored_j(v) - stored_j(cap.v_cutoff)
print(f"above the {cap.v_cutoff} V cutoff the element holds {usable_j:.3f} J, "
      f"{usable_j * conv.eta_buck:.3f} J load-side")
