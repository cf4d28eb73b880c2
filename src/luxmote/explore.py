"""Design-space exploration: steady-state power at a fixed service level,
minimum illuminance for perpetual operation, and sweep frontiers over
capacitance and service level.

The steady-state view deliberately ignores controller transients: it asks
"is service level s sustainable at this light level", which is the operating
point the adaptive controller converges to.  Every quantity is a closed form
of the linear panel model and that steady-state draw.  The
simulator-consistency tests tie the two together.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .energy import harvest_power, require_finite, standby_power
from .qos import ApplicationMode, interval_for
from .simulate import NodeConfig, action_energy_j


def steady_state_power(config: NodeConfig, state: int) -> float:
    """Storage-side power of a node pinned at ``state``: the standby draw plus
    the per-wakeup action energy amortized over the state's interval, both
    referred through the buck converter."""
    if not 1 <= state <= 7:
        raise ValueError(f"state must be in [1, 7], got {state}")
    interval = interval_for(config.table, state, config.mode)
    p_action_load = action_energy_j(config) / interval
    return standby_power(config.load, config.converter) + p_action_load / config.converter.eta_buck


def min_lux_for_perpetual(config: NodeConfig, state: int) -> float:
    """Smallest constant illuminance at which the boost-path harvest covers
    the steady-state draw of ``state``: lux_ref * P / (eta_boost * P_ref),
    the inversion of the linear panel model.  Infinite when the panel yields
    no power but the node draws some.
    """
    demand = steady_state_power(config, state)
    if demand == 0.0:
        return 0.0
    p_ref = config.harvester.p_ref_w
    if p_ref == 0.0:
        return math.inf
    return config.harvester.lux_ref * demand / (config.converter.eta_boost * p_ref)


def darkness_survival_s(config: NodeConfig, state: int, v_start: Optional[float] = None) -> float:
    """Zero-light survival time of a node pinned at ``state``, starting from
    ``v_start`` (default: the table ceiling) down to the brown-out cutoff:
    0.5 * C * (V0^2 - Vcut^2) / P_steady."""
    v0 = config.table.v_max if v_start is None else v_start
    sc = config.supercap
    energy = 0.5 * sc.capacitance_f * (v0**2 - sc.v_cutoff**2)
    p = steady_state_power(config, state)
    if p == 0.0:
        return math.inf
    return energy / p


def survival_at_lux_s(config: NodeConfig, state: int, lux: float, v_start: Optional[float] = None) -> float:
    """Survival under constant illuminance: infinite when the harvest covers
    the steady-state draw, otherwise the deficit drains the same energy
    budget as darkness survival."""
    deficit = steady_state_power(config, state) - config.converter.eta_boost * harvest_power(
        config.harvester, lux
    )
    if deficit <= 0.0:
        return math.inf
    v0 = config.table.v_max if v_start is None else v_start
    sc = config.supercap
    return 0.5 * sc.capacitance_f * (v0**2 - sc.v_cutoff**2) / deficit


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
        object.__setattr__(self, "capacitances_f", tuple(float(c) for c in self.capacitances_f))
        object.__setattr__(self, "qos_states", tuple(int(s) for s in self.qos_states))
        object.__setattr__(self, "lux_levels", tuple(float(x) for x in self.lux_levels))
        require_finite(self)
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
            rows.append(
                SweepRow(
                    capacitance_f=c,
                    qos_state=state,
                    mode=grid.mode.value,
                    min_lux=min_lux_for_perpetual(cfg, state),
                    darkness_survival_s=darkness_survival_s(cfg, state),
                    survival_at_lux_s=tuple(
                        survival_at_lux_s(cfg, state, lux) for lux in grid.lux_levels
                    ),
                )
            )
    return rows


def write_frontier_csv(rows: list[SweepRow], path, lux_levels=()) -> None:
    """Frontier CSV: capacitance_f,qos_state,mode,min_lux,darkness_survival_s
    plus one survival_at_<lux>lux_s column per requested lux level."""
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
