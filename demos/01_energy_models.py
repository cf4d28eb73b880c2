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
    discharge,
    harvest_power,
    run_node,
    standby_power,
)

cap = SupercapState(capacitance_f=1.0, voltage_v=3.0)
conv = ConverterModel()
panel = HarvesterModel()
load = LoadModel()

print("=== storage element ===")
print(f"1 F at {cap.voltage_v} V holds {cap.energy_j:.3f} J")
print(f"usable down to the {cap.v_cutoff} V brown-out: "
      f"{cap.energy_j - 0.5 * cap.v_cutoff**2:.3f} J")

print("\n=== indoor panel (linear in lux) ===")
for lux in (0, 100, 300, 600, 1000):
    print(f"  {lux:5d} lux -> {harvest_power(panel, lux) * 1e6:8.2f} uW raw panel output")

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
state = SupercapState(capacitance_f=cap.capacitance_f, voltage_v=v)

print("\n=== paying for work ===")
print(f"standby draw (storage side): {standby_power(load, conv) * 1e6:.2f} uW")
one_tx = discharge(state, load.e_sense_tx_j, conv)
print(f"one sense+transmit ({load.e_sense_tx_j * 1e6:.0f} uJ load-side) moves the "
      f"voltage by {(state.voltage_v - one_tx.voltage_v) * 1e6:.2f} uV")

drained = state
joules = 0.0
while not drained.dead:
    drained = discharge(drained, 0.1, conv)
    joules += 0.1
print(f"draining 0.1 J at a time kills the node after {joules:.1f} J load-side")
print(f"final voltage {drained.voltage_v:.3f} V (cutoff {drained.v_cutoff} V)")
