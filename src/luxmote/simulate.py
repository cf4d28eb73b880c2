"""Discrete-event simulation of a single harvesting node's lifecycle.

Between discrete events the node evolves continuously: the panel charges the
storage element through the input converter, the standby draw and an
optional leak pull it down.  Discrete events are wakeups (controller
evaluation plus the mode's action energy), external events (motion/door
impulses in event-detection mode), brown-out death and cold-start recovery,
and light-trace sample boundaries.

No event waits on a queue.  The light samples and the external events,
each already in time order, are walked with a cursor apiece.  A live node's
one pending wakeup has a slot, and the node's one pending crossing another:
its death while it lives, its recovery while it is dead.  A death drops the
pending wakeup, and a recovery wakes the node at once.  Events at equal
times are ordered light sample < crossing < external event < wakeup.
``_NodeSim.run`` owns all of the node's state, in its locals, and
dispatches every event inline, with no handler: each wakeup steps, takes the
held state or is skipped in one branch.  A run is a pure function of (config,
traces, duration): nothing in it is random, and there is no wall clock and
no global state.

A run emits each dispatched event and light sample as a record to the sink
it is given, and a run without one skips wakeups (below).  ``run_node``
gives a detailed run a log file's writer (``log_path``), which holds no
record, or else an appender to the ``NodeLog``'s records.  ``_log_writer``
owns the record format and is the one writer of a node log's bytes.

Continuous stretches are integrated in closed form: with piecewise-constant
lux the net storage-side power P is constant between regime boundaries (the
cold-start threshold, the rated-voltage clamp, the brown-out cutoff and the
recovery threshold), so the energy trajectory is linear in time and regime
crossings are solved exactly.  A constant-current leak I makes a stretch
C·V·dV/dt = P - I·V, still solved in closed form: the crossing time is
t(V) = (C/I)(V0 - V) - (C·P/I²)·ln((P - I·V)/(P - I·V0)) and the voltage
after a span takes a few Newton steps on it.  Both agree with a 50-digit
reference to about 1e-13 relative for leaks of 1e-10 to 1e-4 A.

One gate decides where the controller provably keeps its state.  A pinned
node keeps it always.  A controller step that leaves the controller at its
fixed point (``qos.is_fixed_point``) proves that every step returns state 7
until the light changes or a recovery resets it; the gate then closes
HISTORY_LEN + 1 periods before the next light sample, and the steps from
there refill both histories before the light can change.  A wakeup inside
the gate takes the state without a step, and the records and ledger are
those of a run that steps at every wakeup.  A run without a sink
(``detail=False``) also skips over wakeups inside the gate, up to its end,
the next external event (which reads no controller state) or the end of
the run, wherever one period, replayed through the same payment and
integrator, provably repeats: pinned at ``v_rated``, leaky or not, or
inside the regimes of leak-free storage.  So it steps exactly where a run
with detail steps.  k periods are then booked as k copies of its ledger.
The event loop and the skip (``_wake_times``) both put the n-th wakeup
since the interval last started, at a recovery or a step that changed it,
at anchor + n·interval: a skip's wakeup times are exactly those of a run
with detail.  Below ``v_rated`` the room comes first: the period's drift
is known before the replay, and its room rule with a rounding margin
bounds k, so a period is replayed only where one fits, and a skip never
reaches a regime boundary.  Counters match a run with detail exactly;
ledger floats and the final voltage agree to 1e-9 relative, as sums taken
in another order, barring a tie in exact arithmetic, such as a drain that
reaches the cutoff exactly at a wakeup, which the two runs' rounding may
settle differently.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Optional

from .energy import (
    ConverterModel,
    HarvesterModel,
    LoadModel,
    SupercapState,
    check_fields,
    finite_number,
    standby_power,
)
from .qos import (
    DEFAULT_TABLE,
    ApplicationMode,
    ControllerState,
    HISTORY_LEN,
    MIN_INTERVAL_S,
    QosTable,
    is_fixed_point,
    reset,
    step,
)
from .traces import Trace


@dataclass(frozen=True)
class NodeConfig:
    """Full parameterization of one node.  ``supercap.v_rated`` may lie below
    the table ceiling, for storage rated lower than the table reaches: the
    top buckets are then unreachable, and the explorer starts at v_rated."""

    node_id: str = "node"
    mode: ApplicationMode = ApplicationMode.PERIODIC_SENSING
    supercap: SupercapState = SupercapState()
    harvester: HarvesterModel = HarvesterModel()
    converter: ConverterModel = ConverterModel()
    load: LoadModel = LoadModel()
    table: QosTable = DEFAULT_TABLE
    v_on: float = 2.4
    position_m: tuple[float, float] = (0.0, 0.0)
    pinned_qos: Optional[int] = None

    def __post_init__(self):
        check_fields(self)
        if self.pinned_qos is not None and not 1 <= self.pinned_qos <= 7:
            raise ValueError(f"pinned_qos must be an integer in [1, 7], got {self.pinned_qos}")
        # The id names the node's trace and log files.
        if self.node_id in ("", ".", "..") or any(c in self.node_id for c in "/\\\0"):
            raise ValueError(
                "node_id must not be empty, '.' or '..' or contain '/', '\\' or NUL, "
                f"got {self.node_id!r}"
            )
        if not self.supercap.v_cutoff < self.v_on <= self.table.v_max:
            raise ValueError(
                f"v_on must satisfy v_cutoff < v_on <= {self.table.v_max} "
                f"(got v_cutoff={self.supercap.v_cutoff}, v_on={self.v_on})"
            )
        if self.v_on > self.supercap.v_rated:
            # Storage clamped below v_on could never recover a dead node.
            raise ValueError(f"v_on {self.v_on} above v_rated {self.supercap.v_rated}")
        if self.supercap.v_cutoff < self.table.v_min - 1e-9:
            raise ValueError(
                f"v_cutoff {self.supercap.v_cutoff} below the table floor "
                f"{self.table.v_min}: a live node could fall outside the table"
            )


class LogRecord(NamedTuple):
    time_s: float
    voltage_v: float
    lux: float
    qos: int
    action: str
    packets: int


@dataclass
class EnergyLedger:
    """Storage-side energy bookkeeping for one run.

    ``harvest_panel_j`` is raw panel output (pre-conversion);
    ``harvest_stored_j`` what actually entered the storage element;
    ``drain_stored_j`` what left it for loads; ``load_j`` what the loads
    received (post-buck); ``leak_j`` the leak.  Conservation:
    delta stored energy == harvest_stored - drain_stored - leak.
    """

    harvest_panel_j: float = 0.0
    harvest_stored_j: float = 0.0
    drain_stored_j: float = 0.0
    load_j: float = 0.0
    leak_j: float = 0.0

    @property
    def conversion_loss_j(self) -> float:
        return (self.harvest_panel_j - self.harvest_stored_j) + (
            self.drain_stored_j - self.load_j
        )

    @property
    def throughput_j(self) -> float:
        return self.harvest_stored_j + self.drain_stored_j + self.leak_j

    def net_stored_j(self) -> float:
        return self.harvest_stored_j - self.drain_stored_j - self.leak_j

    def add(self, other: EnergyLedger, times) -> None:
        """Books ``times`` copies of ``other``."""
        self.harvest_panel_j += times * other.harvest_panel_j
        self.harvest_stored_j += times * other.harvest_stored_j
        self.drain_stored_j += times * other.drain_stored_j
        self.load_j += times * other.load_j
        self.leak_j += times * other.leak_j


_LEFT_OUT = {"summary": False}  # metadata of a field no report holds
_PER_NODE = {"sum": False}  # metadata of a field the fleet aggregate does not sum


@dataclass
class NodeLog:
    """Complete observable outcome of one node run, and the one declaration
    of its per-node quantities: ``ledger_summary`` reports every field not
    marked ``_LEFT_OUT``, and a deployment's aggregate sums each of those
    not marked ``_PER_NODE`` over the fleet, starting from its default
    times 0.  Left out are the storage size, the per-event records (kept
    only with detail, so marked ``detail_only`` too), the raw material of a
    deployment's ``NodeMetrics`` and the residual's rounding floor; per node
    only are the run's identity, length and voltages."""

    node_id: str = field(metadata=_PER_NODE)
    mode: ApplicationMode = field(metadata=_PER_NODE)
    duration_s: float = field(metadata=_PER_NODE)
    capacitance_f: float = field(metadata=_LEFT_OUT)
    initial_voltage_v: float = field(metadata=_PER_NODE)
    final_voltage_v: float = field(default=0.0, metadata=_PER_NODE)
    alive_at_end: bool = True
    records: list = field(default_factory=list, metadata={**_LEFT_OUT, "detail_only": True})
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    qos_histogram: list = field(default_factory=lambda: [0] * 8)  # index 1..7
    # Wakeups, stepped or gated: the QoS histogram's sum.
    controller_steps: int = 0
    packets_emitted: int = 0
    first_packet_s: float = field(default=0.0, metadata=_LEFT_OUT)
    last_packet_s: float = field(default=0.0, metadata=_LEFT_OUT)
    dead_seconds: float = 0.0
    deaths: int = 0
    recoveries: int = 0
    events_detected: int = 0
    events_missed_dead: int = 0
    notifications_emitted: int = 0
    notification_latencies_s: list = field(default_factory=list, metadata=_LEFT_OUT)
    events_unnotified: int = 0
    # The residual rounding alone can reach: each integrator step rounds the
    # stored energy by up to an ulp of the rated one, with a margin of 4.
    residual_floor_j: float = field(default=0.0, metadata=_LEFT_OUT)

    @property
    def uptime_fraction(self) -> float:
        return 1.0 - self.dead_seconds / self.duration_s

    @property
    def mean_packet_interval_s(self) -> Optional[float]:
        if self.packets_emitted < 2:
            return None
        return (self.last_packet_s - self.first_packet_s) / (self.packets_emitted - 1)

    @property
    def delta_stored_j(self) -> float:
        return 0.5 * self.capacitance_f * (self.final_voltage_v**2 - self.initial_voltage_v**2)

    @property
    def energy_residual_j(self) -> float:
        """Conservation defect: should be ~0 up to float rounding."""
        return self.delta_stored_j - self.ledger.net_stored_j()

    @property
    def energy_residual_relative(self) -> float:
        """The residual over the energy the run moved, or over 1e6 times its
        rounding floor when that is larger: a run that moves less energy than
        its storage resolves reads at most 1e-6 while within rounding."""
        scale = max(
            self.ledger.throughput_j, abs(self.delta_stored_j), 1e6 * self.residual_floor_j, 1e-30
        )
        return abs(self.energy_residual_j) / scale


class _Phys:
    """Per-run physical constants and the continuous-dynamics integrator.

    ``advance(v, alive, p_panel, dt, led)`` runs for up to ``dt`` seconds at
    constant panel power and returns (v_new, seconds_used, crossing) with
    crossing in (None, "death", "recovery"); a crossing stops it exactly at
    the crossing point.  It takes one ``segment`` per stretch between regime
    boundaries, and only that solve depends on the leak: energy-linear
    without one, its closed form with one.  The explorer runs it too, with
    ``dt`` infinite, for a survival time.
    """

    __slots__ = (
        "c",
        "e_max",
        "v_rated",
        "v_cutoff",
        "v_on",
        "v_boost",
        "eta_boost",
        "eta_cold",
        "eta_buck",
        "p_per_lux",
        "p_standby_load",
        "p_standby_storage",
        "i_leak",
    )

    def __init__(self, cfg: NodeConfig):
        sc, conv, harv, load = cfg.supercap, cfg.converter, cfg.harvester, cfg.load
        self.c = sc.capacitance_f
        self.v_rated = sc.v_rated
        self.e_max = 0.5 * self.c * sc.v_rated**2
        self.v_cutoff = sc.v_cutoff
        self.v_on = cfg.v_on
        self.v_boost = conv.v_boost_min
        self.eta_boost = conv.eta_boost
        self.eta_cold = conv.eta_cold
        self.eta_buck = conv.eta_buck
        self.p_per_lux = harv.p_ref_w / harv.lux_ref
        self.p_standby_load = load.i_standby_a * conv.v_out_v
        self.p_standby_storage = standby_power(load, conv)
        self.i_leak = sc.leak_current_a

    def pay(self, v, e_stored_j, led):
        """Draw a storage-side action energy at once; returns the new voltage
        and books the drain in the ledger.  A draw beyond the stored energy
        drains the element to 0 V."""
        if e_stored_j == 0.0:
            return v
        e_new = 0.5 * self.c * v**2 - e_stored_j
        if e_new < 0.0:
            e_new = 0.0
        v_new = math.sqrt(2.0 * e_new / self.c)
        drained = 0.5 * self.c * (v * v - v_new**2)
        led.drain_stored_j += drained
        led.load_j += drained * self.eta_buck
        return v_new

    def replay_period(self, v, p_panel, e_wakeup, period):
        """Replays one wakeup period of a live node from voltage ``v`` just
        before the wakeup on a scratch ledger: ``pay`` for ``e_wakeup``, then
        ``advance`` for ``period``.  Returns ``(k, ledger)``, k the number of
        periods it stands for, 0 where the node dies within the period.  A
        skip books k·period; the real time from its first wakeup to the one
        after its last differs from that only by the rounding of those two
        wake times, each anchor + j·period, a few ulps of the skip's horizon
        for any k.

        A period that starts at ``v_rated`` and is back on the clamp by then
        repeats bit for bit, leaky or not: only time limits k.  Inside the
        regimes of leak-free storage, the energy before each wakeup moves by
        the same drift, and k is ``room_periods`` of the replayed drift.  A
        leaky period below ``v_rated`` does not repeat, and ``run`` does not
        replay it.

        Below ``v_rated`` the room comes first.  Inside the leak-free boost
        regime the drift is (eta_boost·p_panel - standby)·period - e_wakeup
        before any replay; where its ``room_periods``, with a margin of 1e-9
        of the energies for the replay's rounding, leaves no period, no
        period is replayed and ``(0, None)`` is returned.
        """
        if v != self.v_rated:
            gain = (self.eta_boost * p_panel - self.p_standby_storage) * period
            slack = 1e-9 * (0.5 * self.c * v * v + e_wakeup + abs(gain))
            if self.room_periods(v, e_wakeup, gain - e_wakeup, slack) < 1.0:
                return 0, None
        led = EnergyLedger()
        v_w = self.pay(v, e_wakeup, led)
        if v_w < self.v_cutoff:
            return 0, led
        v_end, _, death = self.advance(v_w, True, p_panel, period, led)
        if death:  # a node that dies within the period repeats nothing
            return 0, led
        if v == self.v_rated:
            return (math.inf if v_end == v else 0), led
        return self.room_periods(v, e_wakeup, led.harvest_stored_j - led.drain_stored_j), led

    def room_periods(self, v, e_wakeup, drift, slack=0.0):
        """The room rule of a leak-free skip from voltage ``v`` just before a
        wakeup: the number k of periods, each moving the energy before the
        wakeup by ``drift``, that the regimes hold.  k keeps a payment plus
        one period's net charge of room on both sides: for the dip after
        each wakeup and for the rounding of the wake times.  So k =
        room/|drift| - 1, the room on the drift's side less that swing, and
        0 when either side has none.

        With ``slack``, a bound on the error of ``drift``, k bounds the k of
        every drift within ``slack`` of it: the swing is taken ``slack``
        smaller and |drift| ``slack`` smaller."""
        swing = e_wakeup + abs(drift + e_wakeup) - slack
        e0 = 0.5 * self.c * v * v
        room_below = e0 - swing - 0.5 * self.c * max(self.v_cutoff, self.v_boost) ** 2
        room_above = self.e_max - swing - e0
        if room_below <= 0.0 or room_above <= 0.0:
            return 0
        room = room_above if drift > 0.0 else room_below
        return room / (abs(drift) - slack) - 1.0 if abs(drift) > slack else math.inf

    def advance(self, v, alive, p_panel, dt, led):
        c = self.c
        i_leak = self.i_leak
        used = 0.0
        while used < dt:
            if not alive and v >= self.v_on:
                return v, used, "recovery"
            eta = self.eta_boost if v >= self.v_boost else self.eta_cold
            p_in = eta * p_panel
            p_out = self.p_standby_storage if alive else 0.0
            p_leak = i_leak * v
            if v == self.v_boost and p_in < p_out + p_leak:
                # Leaving the efficient region downward: the stretch below
                # the threshold runs on the cold-start path.
                p_in = self.eta_cold * p_panel
            p_net = p_in - p_out - p_leak
            span = dt - used
            if p_net == 0.0 or (p_net > 0.0 and v >= self.v_rated):
                # Held at the leak equilibrium, or pinned at the rated voltage
                # with the surplus shed: harvest covers the load and the leak.
                p_in, p, v_new, thr, used = p_out + p_leak, p_leak, v, None, dt
            else:
                if p_net < 0.0 and alive and v <= self.v_cutoff:
                    return v, used, "death"
                if p_net > 0.0:
                    thr = self.v_rated
                    if not alive and v < self.v_on < thr:
                        thr = self.v_on
                    if v < self.v_boost < thr:
                        thr = self.v_boost
                else:
                    thr = self.v_cutoff if alive else 0.0
                    if thr < self.v_boost < v:
                        thr = self.v_boost
                p = p_in - p_out  # equals p_net without a leak
                span, v_new = self.segment(v, p, thr, span)
                used += span
                if used > dt:  # used + (dt - used) can round one ulp past dt
                    used = dt
            if i_leak:
                # The integral of I·V over the segment, by C·V·dV/dt = p - I·V.
                led.leak_j += p * span - 0.5 * c * (v_new * v_new - v * v)
            led.harvest_panel_j += p_panel * span
            led.harvest_stored_j += p_in * span
            led.drain_stored_j += p_out * span
            if alive:
                led.load_j += self.p_standby_load * span
            v = v_new
            if v_new == thr:
                if alive and thr == self.v_cutoff:
                    return v, used, "death"
                if not alive and thr == self.v_on:
                    return v, used, "recovery"
                # boost threshold or rated clamp: regime change, keep going
        return v, used, None

    def segment(self, v, p, thr, span):
        """One stretch under C·V·dV/dt = p - I·V from ``v``, with ``p`` the
        storage-side harvest less load: ``(t, thr)`` if it reaches ``thr``
        within ``span`` seconds, after t, and ``(span, V)`` otherwise, V the
        voltage then.  Without a leak, or with one below the rounding of p,
        t is (½C·thr² - ½C·v²)/p, and V comes from the energy line
        ½Cv² + p·span, held on v's side of thr; with a larger one, both come
        from the closed form of ``_leak_at``, and thr is never reached when
        the equilibrium p/I lies at or past it.

        V after a span that stops short is Newton's root of t(x) = span.  t
        is convex in x while the voltage rises and concave while it falls,
        so steps from a start beyond the root approach it monotonically
        within the domain.  Such starts: the leak-free voltage, which the
        leak can only lower, and for p > 0 the root of t's asymptote
        (C/I)·(-w - v_eq·x), which t lies above when rising and below when
        falling (for p < 0 that root lies past 0 V, where t is not
        monotone); the nearer one is taken."""
        c, i = self.c, self.i_leak
        if not i or math.isinf(p / i):  # no leak, or one below the rounding of p
            if p != 0.0 and (p > 0.0) == (thr > v):
                t = (0.5 * c * thr * thr - 0.5 * c * v * v) / p
                if t <= span:
                    return t, thr
            v_free = math.sqrt(max(v * v + 2.0 * p * span / c, 0.0))
            # Rounding must not carry the voltage past the threshold.
            return span, (min(v_free, thr) if thr > v else max(v_free, thr))
        if p == 0.0:  # the leak alone: a linear drain
            if thr <= v and (t := c * (v - thr) / i) <= span:
                return t, thr
            return span, max(v - i * span / c, thr)
        v_eq = p / i
        w = v_eq - v
        if w == 0.0 or (w > 0.0) != (thr > v):
            # On the equilibrium to rounding (p - I·v, p/I - v disagree): hold.
            return span, v
        # z = (v_eq - thr)/w - 1 is <= -1 when v_eq lies at or before thr.
        if (z := (v - thr) / w) > -1.0:
            t = self._leak_at(v, v_eq, math.log1p(z))[0]
            if t <= span:
                return t, thr
        z = (v - math.sqrt(max(v * v + 2.0 * p * span / c, 0.0))) / w
        x = math.log1p(z) if z > -1.0 else -math.inf
        if p > 0.0:
            x_line = -(w + span * i / c) / v_eq
            x = max(x, x_line) if w > 0.0 else min(x, x_line)
        # x_line = -inf: the span outlasts the float range, ending on v_eq.
        if x > -math.inf:
            for _ in range(60):
                t, v_x = self._leak_at(v, v_eq, x)
                if not (slope := c * v_x):  # at 0 V to rounding: no step to take
                    break
                dx = (t - span) * i / slope
                x = min(x + dx, 0.0)
                if abs(dx) <= 1e-13 * abs(x):
                    break
        v_new = self._leak_at(v, v_eq, x)[1]
        # Rounding must not carry the voltage past the threshold.
        return span, (min(v_new, thr) if w > 0.0 else max(v_new, thr))

    def _leak_at(self, v, v_eq, x):
        """(t, V) on a leaky segment, C·V·dV/dt = p - I·V from ``v``, with
        equilibrium v_eq = p/I, at x = ln((v_eq - V)/(v_eq - v)): x falls from
        0 as time runs and never crosses the equilibrium.  With w = v_eq - v,
        t(x) = (C/I)·(w·expm1(x) - v_eq·x) and V(x) = v - w·expm1(x)."""
        c, i, w = self.c, self.i_leak, v_eq - v
        if x <= -1.0:
            # V from the equilibrium side: no cancellation when it lies far below v.
            return c * (w * math.expm1(x) - v_eq * x) / i, v_eq - w * math.exp(x)
        # Near the start, v_eq = w + v is split off so that a small leak
        # cancels no digits; w·(e^x - 1 - x) comes from its series where the
        # difference cancels, multiplied by w first so that x² cannot underflow.
        em1 = math.expm1(x)
        wh = w * x * x * (0.5 + x * (1 / 6 + x * (1 / 24 + x / 120))) if x > -1e-3 else w * (em1 - x)
        return c * (wh - v * x) / i, v - w * em1


def _wake_times(anchor, n, period, horizon, cap):
    """The wakeups a skip passes over, due at ``anchor + j·period`` for j =
    n, n + 1, ... as in the event loop.  Returns ``(k, t_last, t_next)``:
    the ``k`` (at most ``cap``) of them whose successor lies at or before
    ``horizon``, the last of them and that successor.  Both roundings of
    the expression are monotone, so the times never fall as j grows: one
    floor division comes within a step or two of k, the run holding every
    period to at least ulp(horizon), and the expression itself settles it.
    """
    k = int(max(min((horizon - anchor) // period - n, cap), 0.0))
    while k and anchor + (n + k) * period > horizon:
        k -= 1
    while k + 1 <= cap and anchor + (n + k + 1) * period <= horizon:
        k += 1
    return k, anchor + (n + k - 1) * period, anchor + (n + k) * period


def action_energy_j(config: NodeConfig) -> float:
    """Load-side energy paid at each periodic wakeup in the node's mode."""
    load = config.load
    if config.mode is ApplicationMode.PERIODIC_SENSING:
        return load.e_sense_tx_j + load.e_controller_step_j
    if config.mode is ApplicationMode.ADVERTISING:
        return load.e_advertise_j + load.e_controller_step_j
    return load.e_controller_step_j  # event detection: only the controller runs


def check_duration(duration_s, where="duration_s") -> float:
    """A run's duration as a float, held to finite and > 0; errors name ``where``."""
    duration = finite_number(duration_s, where)
    if not duration > 0.0:
        raise ValueError(f"{where} must be finite and > 0, got {duration_s}")
    return duration


# A controller state is immutable, so every run can start from this one.
_FRESH_CTRL = ControllerState()


class _NodeSim:
    """Event loop for a single node; see run_node.  The instance holds the
    run's fixed data and the log it fills; ``run`` owns all of the node's
    state."""

    def __init__(self, config, light, events, duration_s):
        self.duration = check_duration(duration_s)
        if events is not None and config.mode is not ApplicationMode.EVENT_DETECTION:
            raise ValueError(
                f"node {config.node_id}: events trace given but mode is {config.mode.value}"
            )
        self.phys = _Phys(config)
        self.table = config.table
        self.mode = config.mode
        eta_buck = config.converter.eta_buck
        self.e_wakeup = action_energy_j(config) / eta_buck
        self.e_event = config.load.e_event_detect_j / eta_buck
        self.intervals = config.table.intervals[config.mode]
        # Below ulp(duration) the clock cannot resolve the interval: many
        # wakeups would share one time (above it, two still may).
        if min(self.intervals) < math.ulp(self.duration):
            raise ValueError(
                f"node {config.node_id}: shortest {config.mode.value} interval "
                f"{min(self.intervals)} s is below the float spacing "
                f"{math.ulp(self.duration)} s of duration_s {self.duration}"
            )
        self.holdoffs = config.table.intervals[ApplicationMode.EVENT_DETECTION]
        self.pinned_qos = config.pinned_qos
        # The light samples inside (0, duration) for run's cursor, then a
        # sentinel; the one held at t = 0 lights the start.
        times, values = light.times_s.tolist(), light.values.tolist()
        lo, hi = bisect_right(times, 0.0), bisect_left(times, self.duration)
        self.lux = values[max(lo - 1, 0)]
        self.sample_t = times[lo:hi] + [math.inf]
        self.sample_v = values[lo:hi]
        lux_max = max([self.lux, *self.sample_v])
        if not math.isfinite(self.phys.p_per_lux * lux_max * self.duration):
            raise ValueError(f"node {config.node_id}: the panel's energy overflows at {lux_max} lux")
        # A recovery follows a death only after a recharge from below the
        # cutoff to v_on.  If even the fastest one (leak-free, no load, the
        # boost efficiency, the brightest light) takes MIN_INTERVAL_S and
        # moves the clock (the ulp rule above), deaths are at most the
        # wakeups, and the run ends.
        phys = self.phys
        t_recharge = max(MIN_INTERVAL_S, math.ulp(self.duration))
        e_recharge = 0.5 * phys.c * (phys.v_on**2 - phys.v_cutoff**2)
        if e_recharge < t_recharge * phys.eta_boost * phys.p_per_lux * lux_max:
            raise ValueError(
                f"node {config.node_id}: supercap.capacitance_f {phys.c} F recharges from "
                f"v_cutoff to v_on in under {t_recharge} s at {lux_max} lux"
            )
        # The external events inside [0, duration), in time order, then a sentinel.
        ext = events.times_s.tolist() if events is not None else []
        self.ext_t = [t for t in ext if 0.0 <= t < self.duration] + [math.inf]
        self.log = NodeLog(
            node_id=config.node_id,
            mode=config.mode,
            duration_s=self.duration,
            capacitance_f=config.supercap.capacitance_f,
            initial_voltage_v=config.supercap.voltage_v,
        )

    def run(self, emit=None) -> NodeLog:
        """Runs the node to the end.  With ``emit``, the sink of its records,
        each dispatched event and light sample is passed to it as
        ``emit(t, v, lux, qos, action, packets)`` as it is made.  A run without
        a sink skips the wakeups that provably repeat (``replay_period``).

        The node's state, the held events and the last notification time
        included, lives in locals here and nowhere else.  Every event is
        dispatched inline, and a skip is decided and booked in the gate's
        branch."""
        log, lux = self.log, self.lux
        duration, phys = self.duration, self.phys
        advance, pay, v_cutoff, p_per_lux = phys.advance, phys.pay, phys.v_cutoff, phys.p_per_lux
        replay_period, v_rated, i_leak = phys.replay_period, phys.v_rated, phys.i_leak
        led, histogram, book = log.ledger, log.qos_histogram, self._book_packets
        table, intervals, e_wakeup, pinned = self.table, self.intervals, self.e_wakeup, self.pinned_qos
        e_event, holdoffs = self.e_event, self.holdoffs
        sends = self.mode is not ApplicationMode.EVENT_DETECTION
        skips = emit is None
        sample_t, sample_v, ext_t = self.sample_t, self.sample_v, self.ext_t
        i_sample = i_ext = 0
        t_sample, t_ext = sample_t[0], ext_t[0]
        held, last_notification = [], -math.inf
        # While ``fixed``, the controller keeps its state: pinned, or left at
        # its fixed point for this light by a step, with no reset since.  A
        # wakeup before ``t_refill`` then takes that state with no step, and
        # a run without a sink skips wakeups up to it or the next external
        # event.  The steps in the HISTORY_LEN + 1 periods left before the
        # next light sample refill the histories (see the module docstring);
        # a pinned node never steps, and needs no refill.
        fixed = pin = pinned is not None
        refill_s = 0.0 if pin else (HISTORY_LEN + 1) * intervals[6]
        t_refill = t_sample - refill_s
        steps = 0
        v = log.initial_voltage_v
        alive = v >= v_cutoff
        died_at = None if alive else 0.0
        p_panel = p_per_lux * lux
        ctrl = _FRESH_CTRL
        qos = pinned if pin else ctrl.next_qos
        now = 0.0
        # The one pending wakeup of a live node, and the node's one pending
        # crossing: its death while alive, its recovery while dead (each
        # infinite when there is none).  The n-th wakeup since ``anchor`` is
        # due at anchor + n·interval, the interval of qos; a recovery, and a
        # step that takes another interval, restart it.
        next_wake = 0.0 if alive else math.inf
        anchor, n, interval = 0.0, 0, intervals[qos - 1]
        t_cross = math.inf
        while True:
            t_event = t_cross if t_cross <= t_ext else t_ext
            # Ties go to the sample, the crossing, the external event, the wakeup.
            t_next = t_event if t_event <= next_wake else next_wake
            if t_sample <= t_next:
                t_next = t_sample
            t_stop = t_next if t_next < duration else duration
            crossing = None
            if now < t_stop:
                v, span, crossing = advance(v, alive, p_panel, t_stop - now, led)
                # Without a crossing the whole stretch ran: now + span can miss t_stop.
                now = t_stop if crossing is None else now + span
                steps += 1
            # A crossing becomes the pending one, at the crossing time; look again.
            if crossing is not None:
                t_cross = now
            elif t_next >= duration:
                break
            elif t_sample == t_next:
                lux = sample_v[i_sample]
                p_panel = p_per_lux * lux
                if emit is not None:
                    emit(t_sample, v, lux, qos, "sample", 0)
                i_sample += 1
                t_sample = sample_t[i_sample]
                fixed = pin
                t_refill = t_sample - refill_s
            elif t_event <= next_wake:
                t = t_event
                if t_cross <= t_ext:
                    t_cross = math.inf
                    if alive:  # the wakeup pending at death is dropped
                        alive, died_at, next_wake = False, t, math.inf
                        log.deaths += 1
                        action = "death"
                    else:
                        alive, next_wake, anchor, n = True, t, t, 0
                        log.recoveries += 1
                        log.dead_seconds += t - died_at
                        ctrl = reset(ctrl)
                        fixed = pin
                        action = "recovery"
                    packets = 0
                else:
                    i_ext += 1
                    t_ext = ext_t[i_ext]
                    if not alive:
                        log.events_missed_dead += 1
                        continue
                    # Pay for the detection, then notify, or hold the event
                    # while the state's hold-off since the last notification
                    # runs.  A payment that leaves the node below its cutoff
                    # sends nothing, and the node dies.
                    log.events_detected += 1
                    v = pay(v, e_event, led)
                    packets = 0
                    if v < v_cutoff:
                        t_cross = t
                    elif t - last_notification < holdoffs[qos - 1]:
                        held.append(t)
                    else:
                        book(1, t, t)
                        packets = 1
                        log.notifications_emitted += 1
                        log.notification_latencies_s.append(0.0)
                        log.notification_latencies_s.extend([t - t_held for t_held in held])
                        held, last_notification = [], t
                    action = "event"
                if emit is not None:
                    emit(t, v, lux, qos, action, packets)
            else:
                # No crossing is pending here: it would have come first.
                t = next_wake
                if fixed and t < t_refill:
                    # qos is the pinned state or 7, and only a step changes it.
                    # A run without a sink skips up to the horizon, where one
                    # replayed period provably repeats; a leaky period below
                    # v_rated never does.  No skipped wakeup lies past the
                    # horizon, so the time a skip books is a few of its ulps
                    # from the real one (see replay_period).
                    if skips and (v == v_rated or not i_leak):
                        horizon = min(t_ext, t_refill, duration)
                        if anchor + (n + 1) * interval <= horizon:
                            cap, one = replay_period(v, p_panel, e_wakeup, interval)
                            k, t_last, t_next = _wake_times(anchor, n, interval, horizon, cap)
                            if k:
                                led.add(one, k)
                                if v != v_rated:
                                    v = math.sqrt(v * v + 2.0 * k * one.net_stored_j() / phys.c)
                                histogram[qos] += k
                                if sends:
                                    book(k, t, t_last)
                                n += k
                                now = next_wake = t_next
                                # The closed-form voltage rounds the stored
                                # energy like an integrator step.
                                steps += 1
                                continue
                else:
                    ctrl, qos = step(ctrl, v, lux, table)
                    fixed = t < t_refill and is_fixed_point(ctrl, lux, table)
                    if intervals[qos - 1] != interval:
                        anchor, n, interval = t, 0, intervals[qos - 1]
                histogram[qos] += 1
                v = pay(v, e_wakeup, led)
                emitted = 0
                if v < v_cutoff:
                    next_wake, t_cross = math.inf, t
                else:
                    if sends:
                        book(1, t, t)
                        emitted = 1
                    n += 1
                    next_wake = anchor + n * interval
                if emit is not None:
                    emit(t, v, lux, qos, "wakeup", emitted)
        log.events_unnotified = len(held)
        return self._finalize(steps, v, alive, died_at)

    def _book_packets(self, k, t_first, t_last) -> None:
        """Books ``k`` packets sent from ``t_first`` to ``t_last``."""
        log = self.log
        if not log.packets_emitted:
            log.first_packet_s = t_first
        log.packets_emitted += k
        log.last_packet_s = t_last

    def _finalize(self, steps, v, alive, died_at) -> NodeLog:
        log = self.log
        if not alive:
            log.dead_seconds += self.duration - died_at
        log.final_voltage_v = v
        log.alive_at_end = alive
        log.controller_steps = sum(log.qos_histogram)
        log.residual_floor_j = 4 * steps * math.ulp(self.phys.e_max)
        residual = log.energy_residual_relative
        if not residual <= 1e-6:
            raise RuntimeError(f"node {log.node_id}: conservation residual {residual!r} > 1e-6")
        return log


def run_node(
    config: NodeConfig,
    light: Trace,
    events: Optional[Trace] = None,
    *,
    duration_s: float,
    detail: bool = True,
    log_path=None,
) -> NodeLog:
    """Simulate one node over [0, duration_s).

    ``light`` drives the harvester (lux, sample-and-hold); ``events`` is only
    meaningful in event-detection mode and raises otherwise.  Summary
    counters and the energy ledger are always kept.  At a proven controller
    fixed point, wakeups take state 7 without a controller step, with the
    records and ledger of a run that steps at each.  Deterministic given
    (config, traces, duration, detail).

    ``detail`` and ``log_path`` choose the sink the run emits its records
    to.  With ``log_path`` (``detail`` only), each record is written to that
    file as the run makes it, as CSV with the header
    ``time_s,node_id,voltage_v,lux,qos,action,packets``, and the returned
    log keeps none; the file is made once the inputs are
    checked, and removed again if the run fails.  With ``detail`` alone, the
    records are kept in the returned log.  Without detail the run has no
    sink, and a pinned node or one at a fixed point also fast-forwards over
    wakeups, up to the end of the run, a leaky one only while held at
    ``v_rated`` (see the module docstring): its counters equal those of the
    detailed run, its ledger and final voltage agree to 1e-9 relative,
    barring exact ties.
    """
    if log_path is not None and not detail:
        raise ValueError("log_path needs detail=True")
    sim = _NodeSim(config, light, events, duration_s)
    if not detail:
        return sim.run()
    if log_path is None:
        keep = sim.log.records.append
        # tuple.__new__ builds the record without LogRecord's Python-level __new__.
        return sim.run(lambda *record: keep(tuple.__new__(LogRecord, record)))
    path = Path(log_path)
    fh = _open_log(path)
    try:
        with fh:
            return sim.run(_log_writer(fh, config.node_id))
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _open_log(path):
    return Path(path).open("w", newline="", encoding="utf-8")


def _log_writer(fh, node_id):
    """Writes a node log's CSV header to ``fh`` and returns the function
    that writes one record, ``(time_s, voltage_v, lux, qos, action,
    packets)``: the one layout of a node log."""
    # Only node_id can need quoting; csv.writer quotes it once, and each
    # record is then formatted as the writer would format it.
    quoted = io.StringIO()
    csv.writer(quoted).writerow([node_id])
    node_id = quoted.getvalue()[:-2]
    write = fh.write
    write("time_s,node_id,voltage_v,lux,qos,action,packets\r\n")
    # lux is formatted once per float object, and so once per light sample;
    # by identity, as -0.0 == 0.0, and held so that its id is not reused.
    last_lux = lux_out = None

    def record(t, v, lux, qos, action, packets):
        nonlocal last_lux, lux_out
        if lux is not last_lux:
            last_lux, lux_out = lux, repr(lux)
        write(f"{t!r},{node_id},{v!r},{lux_out},{qos},{action},{packets}\r\n")

    return record


def ledger_summary(log: NodeLog) -> dict:
    """JSON-ready run summary: every ``NodeLog`` field not marked left out,
    with the mode by its value, the QoS histogram keyed "1" to "7" and the
    ledger with its conversion-loss and throughput totals; plus the uptime
    fraction and the conservation residual, absolute and relative."""
    summary = {f.name: getattr(log, f.name) for f in fields(log) if f.metadata.get("summary", True)}
    led = log.ledger
    totals = {"conversion_loss_j": led.conversion_loss_j, "throughput_j": led.throughput_j}
    summary.update(
        mode=log.mode.value,
        qos_histogram={str(s): log.qos_histogram[s] for s in range(1, 8)},
        ledger={**asdict(led), **totals},
        uptime_fraction=log.uptime_fraction,
        energy_residual_j=log.energy_residual_j,
        energy_residual_relative=log.energy_residual_relative,
    )
    return summary


def write_json(obj, path) -> None:
    """The format of the ledger JSON and report.json: ``obj`` indented by
    two with sorted keys, then a newline."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_ledger_json(log: NodeLog, path) -> None:
    write_json(ledger_summary(log), path)
