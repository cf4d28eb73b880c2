"""Design-space exploration: steady-state power at a fixed service level,
minimum illuminance for perpetual operation, and sweep frontiers over
capacitance and service level.

The steady-state view deliberately ignores controller transients: it asks
"is service level s sustainable at this light level", which is the operating
point the adaptive controller converges to.  It also averages each wakeup's
payment over its interval, so ``min_lux`` is a threshold on the mean draw,
not on the dips after each payment.  The storage leak enters both the
threshold and the survival times, which come from the simulator's
integrator; the differential tests tie the two together.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .energy import check_fields, standby_power
from .qos import ApplicationMode
from .simulate import EnergyLedger, NodeConfig, _Phys, action_energy_j


def steady_state_power(config: NodeConfig, state: int) -> float:
    """Storage-side power of a node pinned at ``state``: the standby draw plus
    the per-wakeup action energy amortized over the state's interval, both
    referred through the buck converter."""
    if not 1 <= state <= 7:
        raise ValueError(f"state must be in [1, 7], got {state}")
    p_action_load = action_energy_j(config) / config.table.intervals[config.mode][state - 1]
    return standby_power(config.load, config.converter) + p_action_load / config.converter.eta_buck


def min_lux_for_perpetual(config: NodeConfig, state: int) -> float:
    """Smallest constant illuminance at which the boost-path harvest covers
    the steady-state draw P of ``state`` and the leak I at V_floor, so that a
    pinned node's leak equilibrium sits at or above it: lux_ref *
    (P + I * V_floor) / (eta_boost * P_ref).  V_floor is the cutoff, or
    v_boost_min when that lies higher: an equilibrium between the two would
    not hold, as the node harvests there at eta_cold and sinks to the cutoff.
    P averages the payments over their intervals, so the dip after a payment
    can still kill a node just above this threshold.  Infinite when the panel
    yields no power but the node draws some."""
    sc = config.supercap
    v_floor = max(sc.v_cutoff, config.converter.v_boost_min)
    demand = steady_state_power(config, state) + sc.leak_current_a * v_floor
    if demand == 0.0:
        return 0.0
    p_ref = config.harvester.p_ref_w
    if p_ref == 0.0:
        return math.inf
    return config.harvester.lux_ref * demand / (config.converter.eta_boost * p_ref)


def survival_at_lux_s(config: NodeConfig, state: int, lux: float, v_start: Optional[float] = None) -> float:
    """Seconds a node pinned at ``state`` under constant ``lux`` takes from
    ``v_start`` (default: the table ceiling, or v_rated if lower) to the
    cutoff: the simulator's integrator, leak and cold-start path included,
    with the standby draw replaced by the steady-state power, so payments
    are averaged as in ``min_lux``.  Infinite if the node never gets there:
    from ``min_lux`` up for starts at or above v_boost_min."""
    if not lux >= 0.0:
        raise ValueError(f"lux must be non-negative, got {lux}")
    phys = _Phys(config)
    v0 = min(config.table.v_max, phys.v_rated) if v_start is None else v_start
    if not phys.v_cutoff <= v0 <= phys.v_rated:
        raise ValueError(f"v_start must lie in [v_cutoff, v_rated], got {v0}")
    phys.p_standby_storage = steady_state_power(config, state)
    _, used, crossing = phys.advance(v0, True, phys.p_per_lux * lux, math.inf, EnergyLedger())
    return used if crossing == "death" else math.inf


def _survival_column(lux: float) -> str:
    return f"survival_at_{lux:g}lux_s"


@dataclass(frozen=True)
class SweepGrid:
    """Grid for the frontier sweep: one row per (capacitance, state) pair.

    ``lux_levels``, when non-empty, adds a survival-time column per level;
    levels whose column names coincide are rejected.
    """

    capacitances_f: tuple[float, ...] = (1.0,)
    qos_states: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    mode: ApplicationMode = ApplicationMode.PERIODIC_SENSING
    lux_levels: tuple[float, ...] = ()

    def __post_init__(self):
        check_fields(self)
        if not self.capacitances_f or not self.qos_states:
            raise ValueError("sweep grid needs at least one capacitance and one state")
        if any(c <= 0 for c in self.capacitances_f):
            raise ValueError("capacitances must be > 0")
        if any(not 1 <= s <= 7 for s in self.qos_states):
            raise ValueError("qos states must be in [1, 7]")
        if any(x < 0 for x in self.lux_levels):
            raise ValueError("lux levels must be >= 0")
        named = {}
        for lux in self.lux_levels:
            column = _survival_column(lux)
            if column in named:
                raise ValueError(
                    f"lux_levels: {named[column]!r} and {lux!r} both name the column {column}"
                )
            named[column] = lux


@dataclass(frozen=True)
class SweepRow:
    capacitance_f: float
    qos_state: int
    mode: str
    min_lux: float
    darkness_survival_s: float
    survival_at_lux_s: tuple[float, ...] = ()


def sweep(grid: SweepGrid, base: Optional[NodeConfig] = None) -> list[SweepRow]:
    """Frontier rows for every (capacitance, state) grid point.

    Rows are pure functions of the grid point, computed in a fixed
    (capacitance, state) order.
    """
    base = base if base is not None else NodeConfig()
    rows = []
    for c in grid.capacitances_f:
        cfg = replace(
            base,
            mode=grid.mode,
            supercap=replace(base.supercap, capacitance_f=c),
        )
        for state in grid.qos_states:
            dark, *lit = (survival_at_lux_s(cfg, state, lux) for lux in (0.0, *grid.lux_levels))
            rows.append(
                SweepRow(
                    capacitance_f=c,
                    qos_state=state,
                    mode=grid.mode.value,
                    min_lux=min_lux_for_perpetual(cfg, state),
                    darkness_survival_s=dark,
                    survival_at_lux_s=tuple(lit),
                )
            )
    return rows


def write_frontier_csv(rows: list[SweepRow], path, lux_levels=()) -> None:
    """Frontier CSV: capacitance_f,qos_state,mode,min_lux,darkness_survival_s
    plus one survival_at_<lux>lux_s column per requested lux level; rows swept
    with another number of levels raise ValueError before anything is written."""
    for i, row in enumerate(rows):
        n = len(row.survival_at_lux_s)
        if n != len(lux_levels):
            raise ValueError(
                f"row {i} (capacitance_f={row.capacitance_f!r}, qos_state={row.qos_state}) "
                f"has {n} survival times for {len(lux_levels)} lux levels"
            )
    path = Path(path)
    header = ["capacitance_f", "qos_state", "mode", "min_lux", "darkness_survival_s"]
    header += [_survival_column(lux) for lux in lux_levels]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            out = [
                repr(row.capacitance_f),
                row.qos_state,
                row.mode,
                f"{row.min_lux:.2f}",
                repr(row.darkness_survival_s),
            ]
            out += [repr(x) for x in row.survival_at_lux_s]
            writer.writerow(out)
