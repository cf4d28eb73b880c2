"""Voltage-bucketed service levels and the adaptive duty-cycle controller.

The node's service quality is quantized into 7 states.  Each state maps the
storage voltage to three wakeup intervals, one per application mode:

    state  voltage [V]  sensing [s]  event hold-off [s]  advertising [s]
      7     3.6 - 3.4        20              10                0.1
      6     3.4 - 3.2        40              20                0.2
      5     3.2 - 3.0        60              30                0.4
      4     3.0 - 2.8       120              60                0.64
      3     2.8 - 2.6       240             120                0.9
      2     2.6 - 2.4       300             300                2
      1     2.4 - 2.1       600             600                5

Bucket edges are half-open with the shared edge belonging to the higher-QoS
bucket (3.4 V is state 7, 3.0 V is state 5); the top bucket also includes its
upper edge.  Higher state = shorter intervals = more service.

The controller re-evaluates the target state once per wakeup from two
5-sample histories (ambient light and storage voltage), nudging the state
down when light is absent/falling or voltage is flat/falling, and up
otherwise.  It re-seeds directly from the table on the first iteration and
whenever the voltage sits at the table ceiling.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .energy import check_fields, type_check

HISTORY_LEN = 5

# "voltage equals the ceiling" is a threshold test: exact float equality is
# meaningless for a measured quantity, and 10 mV is far below a bucket width.
V_MAX_TOL = 0.010

# The shortest wakeup interval a table may hold: with a floor, a run's
# wakeup count is at most proportional to its duration.
MIN_INTERVAL_S = 1e-3

_TREND_DEN = sum((i - (HISTORY_LEN - 1) / 2.0) ** 2 for i in range(HISTORY_LEN))


class ApplicationMode(Enum):
    """Which interval column of the table governs the node's wakeups."""

    PERIODIC_SENSING = "periodic_sensing"
    EVENT_DETECTION = "event_detection"
    ADVERTISING = "advertising"


class QosRow(NamedTuple):
    state: int
    v_lo: float
    v_hi: float
    sense_interval_s: float
    pir_interval_s: float
    adv_interval_s: float


@dataclass(frozen=True)
class QosTable:
    """The 7-row voltage-to-interval lookup.

    Invariants enforced at construction: exactly 7 rows with states 1..7,
    buckets contiguous and non-overlapping covering [2.1, 3.6] V, and all
    three interval columns finite, at least ``MIN_INTERVAL_S`` and strictly
    decreasing in state.  Derived once after validation: the voltage domain,
    the bucket lower edges in ascending order and, per application mode, the
    intervals of states 1..7.
    """

    rows: tuple[QosRow, ...]
    v_min: float = field(init=False, repr=False, compare=False)
    v_max: float = field(init=False, repr=False, compare=False)
    lower_edges: tuple[float, ...] = field(init=False, repr=False, compare=False)
    intervals: dict[ApplicationMode, tuple[float, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        check_fields(self)
        if len(self.rows) != 7:
            raise ValueError(f"table must have exactly 7 rows, got {len(self.rows)}")
        if sorted(r.state for r in self.rows) != list(range(1, 8)):
            raise ValueError("table states must be exactly 1..7")
        by_voltage = sorted(self.rows, key=lambda r: r.v_lo)
        for row in by_voltage:
            if not row.v_lo < row.v_hi:
                raise ValueError(f"state {row.state}: empty bucket [{row.v_lo}, {row.v_hi})")
        for low, high in zip(by_voltage, by_voltage[1:]):
            if abs(low.v_hi - high.v_lo) > 1e-9:
                raise ValueError(
                    f"buckets of states {low.state} and {high.state} are not contiguous "
                    f"({low.v_hi} vs {high.v_lo})"
                )
            if high.state != low.state + 1:
                raise ValueError(
                    f"states must increase with voltage ({low.state} then {high.state})"
                )
        if abs(by_voltage[0].v_lo - 2.1) > 1e-9 or abs(by_voltage[-1].v_hi - 3.6) > 1e-9:
            raise ValueError(
                f"buckets must cover [2.1, 3.6] V, got [{by_voltage[0].v_lo}, {by_voltage[-1].v_hi}]"
            )
        # States increase with voltage, so by_voltage is also in state order.
        for col in ("sense_interval_s", "pir_interval_s", "adv_interval_s"):
            values = [getattr(r, col) for r in by_voltage]
            for row, value in zip(by_voltage, values):
                if value < MIN_INTERVAL_S:
                    raise ValueError(
                        f"{col}: state {row.state} interval {value} s is below {MIN_INTERVAL_S} s"
                    )
            if any(b >= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{col}: intervals must strictly decrease with state")
        object.__setattr__(self, "v_min", by_voltage[0].v_lo)
        object.__setattr__(self, "v_max", max(r.v_hi for r in self.rows))
        object.__setattr__(self, "lower_edges", tuple(r.v_lo for r in by_voltage))
        object.__setattr__(
            self,
            "intervals",
            {
                ApplicationMode.PERIODIC_SENSING: tuple(r.sense_interval_s for r in by_voltage),
                ApplicationMode.EVENT_DETECTION: tuple(r.pir_interval_s for r in by_voltage),
                ApplicationMode.ADVERTISING: tuple(r.adv_interval_s for r in by_voltage),
            },
        )


DEFAULT_TABLE = QosTable(
    rows=(
        QosRow(7, 3.4, 3.6, 20.0, 10.0, 0.1),
        QosRow(6, 3.2, 3.4, 40.0, 20.0, 0.2),
        QosRow(5, 3.0, 3.2, 60.0, 30.0, 0.4),
        QosRow(4, 2.8, 3.0, 120.0, 60.0, 0.64),
        QosRow(3, 2.6, 2.8, 240.0, 120.0, 0.9),
        QosRow(2, 2.4, 2.6, 300.0, 300.0, 2.0),
        QosRow(1, 2.1, 2.4, 600.0, 600.0, 5.0),
    )
)


def lookup_state(table: QosTable, volt: float) -> int:
    """State whose voltage bucket contains ``volt``.

    Domain is [table.v_min, table.v_max]; outside it the node is either dead
    or beyond the table's ceiling and the lookup is a contract violation.
    Each bucket runs from its lower edge to the next bucket's lower edge; the
    top bucket includes the ceiling.  Where neighbouring edges differ (by up
    to 1e-9 V), a gap belongs to the lower bucket, an overlap to the upper.
    """
    if not table.v_min - 1e-12 <= volt <= table.v_max + 1e-12:
        raise ValueError(
            f"voltage {volt} V outside table domain [{table.v_min}, {table.v_max}]"
        )
    # Float-tolerance slack just below the floor counts as the bottom bucket.
    return bisect_right(table.lower_edges, volt) or 1


def trend(buffer) -> float:
    """Least-squares slope of the readings against their sample index.

    The controller only consumes the sign: negative means falling.
    """
    n = len(buffer)
    if n != HISTORY_LEN:
        raise ValueError(f"trend window must have {HISTORY_LEN} entries, got {n}")
    y0, y1, y2, y3, y4 = buffer
    mean = sum(buffer) / n
    # The numerator sum over i of (i - 2) * (y_i - mean), added in index order.
    num = (0.0 - 2.0 * (y0 - mean) - 1.0 * (y1 - mean) + 0.0 * (y2 - mean)
           + 1.0 * (y3 - mean) + 2.0 * (y4 - mean))
    return num / _TREND_DEN


class _ControllerFields(NamedTuple):
    light_buf: tuple[float, ...] = (0.0,) * HISTORY_LEN
    volt_buf: tuple[float, ...] = (0.0,) * HISTORY_LEN
    index: int = 0
    next_qos: int = 1


class ControllerState(_ControllerFields):
    """Controller memory carried across wakeups.

    ``light_buf`` and ``volt_buf`` are the last 5 readings (zero-filled until
    warm), ``index`` counts table re-seeds (0 = never seeded) and
    ``next_qos`` is the running target the adjustment rules operate on, the
    state chosen at the last step.  A state is a tuple, so it is immutable and
    any number of controllers can run in parallel.  Construction holds each
    field to its type as ``check_fields`` holds a model's (the readings
    finite numbers, stored as floats, the counters integers), and raises a
    ValueError naming the field; ``step`` builds its result with
    ``tuple.__new__`` and ``reset`` with ``_replace``, which skip the checks
    that their values pass.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        where = cls.__name__
        state = type_check(_ControllerFields)(_ControllerFields(*args, **kwargs), where)
        for name in ("light_buf", "volt_buf"):
            if len(getattr(state, name)) != HISTORY_LEN:
                raise ValueError(
                    f"{where}.{name} must hold {HISTORY_LEN} entries, got {getattr(state, name)}"
                )
        if state.index < 0:
            raise ValueError(f"{where}.index must be >= 0, got {state.index}")
        if not 1 <= state.next_qos <= 7:
            raise ValueError(f"{where}.next_qos must be in [1, 7], got {state.next_qos}")
        return tuple.__new__(cls, state)


def step(
    ctrl: ControllerState, volt: float, light: float, table: QosTable
) -> tuple[ControllerState, int]:
    """One controller evaluation; returns (new state, chosen QoS).

    Body, in order: (1) re-seed next_qos from the table when never seeded or
    when the voltage sits at the ceiling (within V_MAX_TOL), bumping the seed
    counter; (2) push the readings into the history buffers; (3) light rule:
    -1 if light is zero or its trend is negative, else +1; (4) voltage rule:
    -1 if the voltage trend is <= 0 and the voltage is not at the ceiling,
    else +1; (5) clamp to [1, 7]; the clamped value becomes next_qos, and is
    returned.  A trend is computed only where its rule can change
    the clamped result: at the ceiling a reseeded target of 7 gives 7
    whatever the light does, and a light rule that takes the target to 8 or
    to 0 leaves 7 or 1 whatever the voltage does.

    Readings above the table ceiling are clamped to it (the table has no
    buckets beyond 3.6 V even though the storage element may charge higher).
    Must only be called on a live node: volt below the table floor raises.
    """
    if light < 0:
        raise ValueError(f"light must be non-negative, got {light}")
    if volt < table.v_min - 1e-12:
        raise ValueError(
            f"controller stepped on a dead node: {volt} V below table floor {table.v_min} V"
        )
    v_max = table.v_max
    if volt > v_max:
        volt = v_max

    (_, l1, l2, l3, l4), (_, v1, v2, v3, v4), index, next_qos = ctrl
    at_max = volt >= v_max - V_MAX_TOL
    if index == 0 or at_max:
        next_qos = lookup_state(table, volt)
        index += 1

    light_buf = (l1, l2, l3, l4, light)
    volt_buf = (v1, v2, v3, v4, volt)

    # Each rule adds -1 or +1 and the sum is clamped, so a rule whose two
    # values clamp to the same state is not evaluated.
    if at_max:
        next_qos += 1  # the voltage rule, whatever the trend
        if next_qos < 8:
            next_qos += -1 if light == 0 or trend(light_buf) < 0 else 1
    else:
        next_qos += -1 if light == 0 or trend(light_buf) < 0 else 1
        if 0 < next_qos < 8:
            next_qos += -1 if trend(volt_buf) <= 0 else 1

    if next_qos < 1:
        next_qos = 1
    elif next_qos > 7:
        next_qos = 7
    # The buffers hold 5 entries and the state is clamped, so the new value
    # skips ControllerState's checks.
    new = tuple.__new__(ControllerState, (light_buf, volt_buf, index, next_qos))
    return new, next_qos


def is_fixed_point(ctrl: ControllerState, light: float, table: QosTable) -> bool:
    """True when ``step(ctrl, v, light, table)`` returns state 7 for every
    voltage ``v`` in the table's domain, and leaves this predicate true.

    That holds once the controller has been seeded, its target is 7, and the
    light is positive with a history full of that same reading: a constant
    history has zero trend, so the light rule gives +1 and the clamp at 7
    swallows the voltage rule.  At the ceiling ``step`` re-seeds from the
    table and then adds 2, which still reaches 7 when the state at
    ``v_max - V_MAX_TOL`` is 5 or higher (it is 7 in the shipped table).
    Repeated steps at this light keep the target, the seeding and the light
    history, so the state stays 7 until the light changes or the controller
    is reset; only the voltage history and the seed counter move.
    """
    return (
        ctrl.index > 0
        and ctrl.next_qos == 7
        and light > 0
        and ctrl.light_buf == (light,) * HISTORY_LEN
        and lookup_state(table, table.v_max - V_MAX_TOL) >= 5
    )


def reset(ctrl: ControllerState) -> ControllerState:
    """Cold-start state: zeroed histories, seed counter back to 0.

    Used when a node recovers from a brown-out; the next step re-seeds from
    the table. Idempotent.
    """
    return ctrl._replace(light_buf=(0.0,) * HISTORY_LEN, volt_buf=(0.0,) * HISTORY_LEN, index=0)
