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
import typing
from dataclasses import dataclass, fields
from functools import cache


def finite_number(value, where: str) -> float:
    """``value``, an int or a float but not a bool (an int in Python), as a
    finite float.  Raises ValueError naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range; str() may refuse it
        from decimal import Decimal

        raise ValueError(f"{where} must be a finite number, got {Decimal(value):.3e}") from None
    if not math.isfinite(number):
        raise ValueError(f"{where} must be a finite number, got {number}")
    return number


def check_fields(model) -> None:
    """Hold each init field of a dataclass to its declared type and store the
    checked value: a float field takes ``finite_number``, an int field an int,
    a str field a str, ``Optional[X]`` also None; ``tuple[X, ...]``,
    ``tuple[X, Y]`` and NamedTuple rows take a tuple or a list, checked entry
    by entry (``position_m[0]``, ``rows[2].v_lo``); any other type (an enum,
    a model) needs an instance.  Raises ValueError naming the field."""
    for name, check in _field_checks(type(model)):
        object.__setattr__(model, name, check(getattr(model, name), name))


@cache
def _field_checks(cls) -> tuple:
    # The annotations are strings (``from __future__ import annotations``).
    hints = typing.get_type_hints(cls)
    return tuple((f.name, type_check(hints[f.name])) for f in fields(cls) if f.init)


@cache
def type_check(tp):
    """A function (value, where) -> checked value that enforces type ``tp``
    as ``check_fields`` enforces a field's type."""
    if tp is float:
        return finite_number
    args = typing.get_args(tp)
    if type(None) in args:  # Optional[X]
        inner = type_check(args[0])
        return lambda value, where: None if value is None else inner(value, where)
    row = getattr(tp, "_fields", None)  # a NamedTuple, checked as a fixed tuple
    if row is not None or typing.get_origin(tp) is tuple:
        if row is not None:
            args = tuple(typing.get_type_hints(tp).values())  # in field order
        variadic = args[-1] is Ellipsis
        checks = [type_check(a) for a in args if a is not Ellipsis]

        def check_entries(value, where):
            if not isinstance(value, (tuple, list)):
                raise ValueError(f"{where} must be a tuple, got {value!r}")
            if not variadic and len(value) != len(checks):
                raise ValueError(f"{where} must hold {len(checks)} entries, got {value!r}")
            labels = [f".{name}" for name in row] if row else map("[{}]".format, range(len(value)))
            entries = zip(checks * len(value) if variadic else checks, labels, value)
            checked = [check(x, where + label) for check, label, x in entries]
            return tp._make(checked) if row else tuple(checked)

        return check_entries
    kind = {int: "an integer", str: "a string"}.get(tp) or (
        ("an " if tp.__name__[0] in "AEIOU" else "a ") + tp.__name__
    )

    def check_instance(value, where):
        if isinstance(value, bool) or not isinstance(value, tp):
            raise ValueError(f"{where} must be {kind}, got {value!r}")
        return value

    return check_instance


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
        check_fields(self)
        if self.capacitance_f <= 0:
            raise ValueError(f"capacitance_f must be > 0, got {self.capacitance_f}")
        if not 0.0 <= self.voltage_v <= self.v_rated:
            raise ValueError(f"voltage_v must be within [0, {self.v_rated}], got {self.voltage_v}")
        if not self.v_cutoff < self.v_rated:
            raise ValueError(f"v_cutoff must be below v_rated ({self.v_cutoff} >= {self.v_rated})")
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
        check_fields(self)
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
        check_fields(self)
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
        check_fields(self)
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0, got {getattr(self, f.name)}")


def standby_power(load: LoadModel, conv: ConverterModel) -> float:
    """Storage-side power of the always-on standby draw:
    i_standby * v_out / eta_buck watts."""
    return load.i_standby_a * conv.v_out_v / conv.eta_buck
