"""The adaptive duty-cycle controller reacting to light and voltage history.

Feeds the controller a synthetic morning: lights off, then on, then off
again, with the voltage following the energy balance, and prints the chosen
service level at every evaluation.

Run:  python3 demos/02_adaptive_controller.py
"""

from luxmote import (
    DEFAULT_TABLE,
    ApplicationMode,
    ControllerState,
    step,
)

print("service-level table (state: sensing / event hold-off / advertising):")
for row in DEFAULT_TABLE.rows:
    print(
        f"  state {row.state}: [{row.v_lo:.1f}, {row.v_hi:.1f}) V -> "
        f"{row.sense_interval_s:>5.0f} s / {row.pir_interval_s:>5.0f} s / "
        f"{row.adv_interval_s:>4.2f} s"
    )

# A crude morning: the voltage drifts down in the dark and up in the light.
phases = [
    ("pre-dawn dark", 0.0, -0.004, 10),
    ("lights on", 450.0, +0.006, 12),
    ("lunch dim", 120.0, +0.001, 6),
    ("evening dark", 0.0, -0.004, 12),
]

ctrl = ControllerState()
volt = 3.25
print("\n  phase            volt    lux   -> qos  next sensing interval")
for name, lux, drift, steps in phases:
    for _ in range(steps):
        volt = min(max(volt + drift, 2.1), 3.6)
        ctrl, qos = step(ctrl, volt, lux, DEFAULT_TABLE)
        interval = DEFAULT_TABLE.intervals[ApplicationMode.PERIODIC_SENSING][qos - 1]
        print(f"  {name:15s} {volt:.3f} {lux:6.0f}  ->  {qos}    {interval:6.0f} s")

print("\nfalling light or voltage walks the service level down one step per")
print("rule; rising history walks it back up; the table re-seeds it whenever")
print("the element sits at the 3.6 V ceiling.")
