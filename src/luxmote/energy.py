"""Physical energy models: supercapacitor storage, light harvesting, converter
efficiency with cold-start, and load accounting.

The models are frozen, validated parameter sets.  Every transition that
moves energy, the panel harvest, charging over time with the cold-start and
rated-voltage regimes, and the payment of an action, has one implementation:
the simulator's integrator (``simulate._Phys``).

Sign conventions and units: energies in joules, powers in watts, currents in
amperes, voltages in volts.  "Storage-side" quantities are measured at the
supercapacitor terminals; "load-side" quantities at the regulated output
rail.  The buck converter sits between them, so a load-side joule costs
1/eta_buck storage-side joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


def require_finite(model) -> None:
    """Reject a dataclass whose float fields, or float entries of its tuple
    or list fields, are NaN or infinite; the message names the field.
    Comparisons with NaN are false, so range checks alone let NaN through."""
    for f in fields(model):
        value = getattr(model, f.name)
        for x in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SupercapState:
    """Energy storage as capacitance plus terminal voltage.

    The single source of truth for a node's energy: stored energy is exactly
    0.5 * C * V^2.  ``v_cutoff`` is the brown-out threshold below which the
    node is dead; ``v_rated`` the absolute maximum the element tolerates.
    The leak, when enabled, is a constant current drawn directly from the
    storage element.
    """

    capacitance_f: float = 1.0
    voltage_v: float = 3.0
    v_rated: float = 5.5
    v_cutoff: float = 2.1
    leak_current_a: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.capacitance_f <= 0:
            raise ValueError(f"capacitance_f must be > 0, got {self.capacitance_f}")
        if not 0.0 <= self.voltage_v <= self.v_rated:
            raise ValueError(
                f"voltage_v must be within [0, {self.v_rated}], got {self.voltage_v}"
            )
        if not self.v_cutoff < self.v_rated:
            raise ValueError(
                f"v_cutoff must be below v_rated ({self.v_cutoff} >= {self.v_rated})"
            )
        if self.v_cutoff < 0:
            raise ValueError(f"v_cutoff must be >= 0, got {self.v_cutoff}")
        if self.leak_current_a < 0:
            raise ValueError(f"leak_current_a must be >= 0, got {self.leak_current_a}")


@dataclass(frozen=True)
class HarvesterModel:
    """Indoor photovoltaic panel, scaled linearly through one reference point.

    Defaults are the published operating point of a small amorphous indoor
    panel: 46.5 uA at 1.5 V under 300 lux.  Output power is the panel power
    before converter losses.
    """

    i_ref_a: float = 46.5e-6
    v_ref_v: float = 1.5
    lux_ref: float = 300.0

    def __post_init__(self):
        require_finite(self)
        if self.i_ref_a < 0 or self.v_ref_v < 0:
            raise ValueError(f"i_ref_a and v_ref_v must be >= 0, got {self.i_ref_a}, {self.v_ref_v}")
        if self.lux_ref <= 0:
            raise ValueError(f"lux_ref must be > 0, got {self.lux_ref}")

    @property
    def p_ref_w(self) -> float:
        """Panel power at the reference illuminance."""
        return self.i_ref_a * self.v_ref_v


@dataclass(frozen=True)
class ConverterModel:
    """Two-path energy-management front end.

    The input (boost) path is efficient once the storage element is above
    ``v_boost_min``; below that the charger falls back to a cold-start mode
    with drastically worse efficiency, which is why the hardware switches
    chargers.  The output (buck) path regulates ``v_out_v``.
    """

    v_boost_min: float = 1.8
    eta_boost: float = 0.80
    eta_cold: float = 0.05
    eta_buck: float = 0.90
    v_out_v: float = 3.0

    def __post_init__(self):
        require_finite(self)
        for name in ("eta_boost", "eta_cold", "eta_buck"):
            eta = getattr(self, name)
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {eta}")
        if not self.eta_cold < self.eta_boost:
            raise ValueError(
                f"eta_cold must be strictly below eta_boost "
                f"({self.eta_cold} >= {self.eta_boost})"
            )
        if self.v_boost_min < 0:
            raise ValueError(f"v_boost_min must be >= 0, got {self.v_boost_min}")
        if self.v_out_v <= 0:
            raise ValueError(f"v_out_v must be > 0, got {self.v_out_v}")


@dataclass(frozen=True)
class LoadModel:
    """Per-action energies and the always-on standby draw, all load-side.

    The standby current is the MCU's sleep draw at the regulated rail.  The
    per-action energies are configuration parameters with plausible defaults,
    not measured ground truth; ``e_controller_step_j`` defaults to 0 because
    its cost is folded into the sense-and-transmit energy.
    """

    i_standby_a: float = 1e-6
    e_sense_tx_j: float = 50e-6
    e_event_detect_j: float = 30e-6
    e_advertise_j: float = 15e-6
    e_controller_step_j: float = 0.0

    def __post_init__(self):
        require_finite(self)
        for name in (
            "i_standby_a",
            "e_sense_tx_j",
            "e_event_detect_j",
            "e_advertise_j",
            "e_controller_step_j",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def standby_power(load: LoadModel, conv: ConverterModel) -> float:
    """Storage-side power of the always-on standby draw:
    i_standby * v_out / eta_buck watts."""
    return load.i_standby_a * conv.v_out_v / conv.eta_buck
