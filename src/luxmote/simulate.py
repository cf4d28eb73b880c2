"""Discrete-event simulation of a single harvesting node's lifecycle.

Between discrete events the node evolves continuously: the panel charges the
storage element through the input converter, the standby draw and an
optional leak pull it down.  Discrete events are wakeups (controller
evaluation plus the mode's action energy), external events (motion/door
impulses in event-detection mode), brown-out death and cold-start recovery,
and light-trace sample boundaries.

Events wait on a heap, except for two kinds: a node's one pending wakeup has
a slot of its own, and the light samples, already in time order, are walked
with a cursor.  Events at equal times are ordered trace sample < death <
recovery < external < wakeup.  A run is a pure function of (config, traces,
duration): nothing in it is random, and there is no wall clock and no global
state.

With detail, each dispatched event and light sample leaves a record.  A run
given a log file (``run_node``'s ``log_path``) writes each record there as
its CSV line at the moment it is made, and holds none; otherwise the records
are kept in the ``NodeLog``.  ``_log_writer`` owns the line layout, so the
streamed file and ``write_node_log_csv`` of kept records are the same bytes.

Continuous stretches are integrated in closed form: with piecewise-constant
lux the net storage-side power P is constant between regime boundaries (the
cold-start threshold, the rated-voltage clamp, the brown-out cutoff and the
recovery threshold), so the energy trajectory is linear in time and regime
crossings are solved exactly.  A constant-current leak I makes a stretch
C·V·dV/dt = P - I·V, still solved in closed form: the crossing time is
t(V) = (C/I)(V0 - V) - (C·P/I²)·ln((P - I·V)/(P - I·V0)) and the voltage
after a span takes a few Newton steps on it.  Both agree with a 50-digit
reference to about 1e-13 relative for leaks of 1e-10 to 1e-4 A.

Runs without per-event detail (``detail=False``) skip over wakeups while the
controller provably keeps its state (a pinned QoS state, or
``qos.is_fixed_point``) and one period, replayed through the same payment and
integrator, provably repeats: pinned at ``v_rated``, leaky or not, or inside
the regimes of leak-free storage.  k periods are then booked as k copies of
its ledger; the wakeup times equal those of the event loop's repeated
addition, computed per binade (``_wake_times``).  A skip never reaches a
regime boundary and stops HISTORY_LEN periods before the next queued event or
light sample and the end of the run.  Counters match a run with detail
exactly; ledger floats and the final voltage agree to 1e-9 relative, as sums
taken in another order.  The one exception is a tie in exact arithmetic, such
as a drain that reaches the cutoff exactly at a wakeup: rounding settles it,
and the two runs may settle it differently.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field, fields
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple, Optional

from .energy import (
    ConverterModel,
    HarvesterModel,
    LoadModel,
    SupercapState,
    require_finite,
    standby_power,
)
from .qos import (
    DEFAULT_TABLE,
    ApplicationMode,
    ControllerState,
    HISTORY_LEN,
    QosTable,
    is_fixed_point,
    reset,
    step,
)
from .traces import Trace


class EventKind(IntEnum):
    """Queued event types; the numeric value is the tie-break priority at equal times.

    Light samples and the wakeup are not queued: a trace sample at time t
    takes effect at t, so the sample cursor goes before queued events at the
    same instant, and the wakeup slot after them.  DROPPED_WAKEUP, a wakeup
    pending at death, does nothing but end an integration segment.
    """

    DEATH = 0
    RECOVERY = 1
    EXTERNAL_EVENT = 2
    DROPPED_WAKEUP = 3


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
        require_finite(self)
        # The id names the node's trace and log files.
        if not isinstance(self.node_id, str):
            raise ValueError(f"node_id must be a string, got {self.node_id!r}")
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
        if self.supercap.v_cutoff < self.table.v_min - 1e-9:
            raise ValueError(
                f"v_cutoff {self.supercap.v_cutoff} below the table floor "
                f"{self.table.v_min}: a live node could fall outside the table"
            )
        qos = self.pinned_qos
        if qos is not None and (
            isinstance(qos, bool) or not isinstance(qos, int) or not 1 <= qos <= 7
        ):
            raise ValueError(f"pinned_qos must be an integer in [1, 7], got {qos!r}")
        if len(self.position_m) != 2:
            raise ValueError(f"position_m must be (x, y), got {self.position_m}")
        object.__setattr__(self, "position_m", (float(self.position_m[0]), float(self.position_m[1])))


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


_LEFT_OUT = {"summary": False}  # metadata of a field ledger_summary leaves out


@dataclass
class NodeLog:
    """Complete observable outcome of one node run, and the one declaration
    of its per-node quantities: ``ledger_summary`` reports every field not
    marked ``_LEFT_OUT``.  Left out are the storage size, the per-event
    records (kept only with detail, so marked ``detail_only`` too) and the
    raw material of a deployment's ``NodeMetrics``."""

    node_id: str
    mode: ApplicationMode
    duration_s: float
    capacitance_f: float = field(metadata=_LEFT_OUT)
    initial_voltage_v: float
    final_voltage_v: float = 0.0
    alive_at_end: bool = True
    records: list = field(default_factory=list, metadata={**_LEFT_OUT, "detail_only": True})
    ledger: EnergyLedger = field(default_factory=EnergyLedger)
    qos_histogram: list = field(default_factory=lambda: [0] * 8)  # index 1..7
    controller_steps: int = 0
    packets_emitted: int = 0
    packet_gap_sum_s: float = field(default=0.0, metadata=_LEFT_OUT)
    packet_gap_count: int = field(default=0, metadata=_LEFT_OUT)
    dead_seconds: float = 0.0
    deaths: int = 0
    recoveries: int = 0
    events_detected: int = 0
    events_missed_dead: int = 0
    notifications_emitted: int = 0
    notification_latencies_s: list = field(default_factory=list, metadata=_LEFT_OUT)
    events_unnotified: int = 0

    @property
    def uptime_fraction(self) -> float:
        return 1.0 - self.dead_seconds / self.duration_s

    @property
    def mean_packet_interval_s(self) -> Optional[float]:
        if self.packet_gap_count == 0:
            return None
        return self.packet_gap_sum_s / self.packet_gap_count

    @property
    def delta_stored_j(self) -> float:
        return 0.5 * self.capacitance_f * (self.final_voltage_v**2 - self.initial_voltage_v**2)

    @property
    def energy_residual_j(self) -> float:
        """Conservation defect: should be ~0 up to float rounding."""
        return self.delta_stored_j - self.ledger.net_stored_j()

    @property
    def energy_residual_relative(self) -> float:
        scale = max(self.ledger.throughput_j, abs(self.delta_stored_j), 1e-30)
        return abs(self.energy_residual_j) / scale


class _Phys:
    """Per-run physical constants and the continuous-dynamics integrator.

    ``advance(v, alive, p_panel, dt, led)`` runs for up to ``dt`` seconds at
    constant panel power and returns (v_new, seconds_used, crossing) with
    crossing in (None, "death", "recovery"); a crossing stops it exactly at
    the crossing point.  The regime logic is shared; only the segment solve,
    the time to a threshold (``crossing_s``) and the voltage after a span,
    depends on the leak: energy-linear without one, its closed form with one.
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

    def replay_period(self, v, p_panel, e_wakeup, period, jitter):
        """Replays one wakeup period of a live node from voltage ``v`` just
        before the wakeup on a scratch ledger: ``pay`` for ``e_wakeup``, then
        ``advance`` for ``period - jitter``, less than any real period, which
        the rounding of the wakeup times moves by up to half a jitter.
        Returns ``(k, ledger)``, k the number of periods it stands for.

        A period that starts at ``v_rated`` and is back on the clamp by then
        repeats bit for bit, leaky or not: only time limits k.  Inside the
        regimes of leak-free storage, the energy before each wakeup moves by
        the same drift.  k then keeps a payment plus one period's net charge
        of room on both sides: for the dip after each wakeup and for the time
        by which the real periods outlast the replayed one, which the cap
        keeps below one period in all.  A leaky period below ``v_rated`` does
        not repeat, and is not replayed.
        """
        led = EnergyLedger()
        v_w = self.pay(v, e_wakeup, led)
        if v_w < self.v_cutoff:
            return 0, led
        v_end = self.advance(v_w, True, p_panel, period - jitter, led)[0]
        if v == self.v_rated:
            return (math.inf if v_end == v else 0), led
        drift = led.harvest_stored_j - led.drain_stored_j
        swing = e_wakeup + abs(drift + e_wakeup)
        e0 = 0.5 * self.c * v * v
        room_below = e0 - swing - 0.5 * self.c * max(self.v_cutoff, self.v_boost) ** 2
        room_above = self.e_max - swing - e0
        if room_below <= 0.0 or room_above <= 0.0:
            return 0, led
        room = room_above if drift > 0.0 else room_below
        k = room / abs(drift) - 1.0 if drift else math.inf
        return min(k, 0.5 * period / jitter), led

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
                led.harvest_panel_j += p_panel * span
                led.harvest_stored_j += (p_out + p_leak) * span
                led.drain_stored_j += p_out * span
                led.leak_j += p_leak * span
                if alive:
                    led.load_j += self.p_standby_load * span
                return v, dt, None
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
            t_hit = self.crossing_s(v, p, thr)
            if t_hit <= span:
                span, v_new = t_hit, thr
            else:
                v_new = math.sqrt(max(v * v + 2.0 * p * span / c, 0.0))
                if i_leak:
                    v_new = self._leak_voltage(v, p, thr, span, v_new)
            if i_leak:
                # The integral of I·V over the segment, by C·V·dV/dt = p - I·V.
                led.leak_j += p * span - 0.5 * c * (v_new * v_new - v * v)
            led.harvest_panel_j += p_panel * span
            led.harvest_stored_j += p_in * span
            led.drain_stored_j += p_out * span
            if alive:
                led.load_j += self.p_standby_load * span
            used += span
            if used > dt:  # used + (dt - used) can round one ulp past dt
                used = dt
            v = v_new
            if v_new == thr:
                if alive and thr == self.v_cutoff:
                    return v, used, "death"
                if not alive and thr == self.v_on:
                    return v, used, "recovery"
                # boost threshold or rated clamp: regime change, keep going
        return v, used, None

    def crossing_s(self, v, p, thr):
        """Seconds from ``v`` to ``thr`` under C·V·dV/dt = p - I·V, with ``p``
        the storage-side harvest less load; infinite if never reached.  It is
        (½C·thr² - ½C·v²)/p without a leak, and with one the closed form of
        ``_leak_at``, infinite when the equilibrium p/I lies at or past thr."""
        c, i = self.c, self.i_leak
        if not i:
            if p == 0.0 or (p > 0.0) != (thr > v):
                return math.inf
            return (0.5 * c * thr * thr - 0.5 * c * v * v) / p
        if p == 0.0:  # the leak alone: a linear drain
            return c * (v - thr) / i if thr <= v else math.inf
        v_eq = p / i
        w = v_eq - v
        # z = (v_eq - thr)/w - 1 is <= -1 when v_eq lies at or before thr.
        if w == 0.0 or (w > 0.0) != (thr > v) or (z := (v - thr) / w) <= -1.0:
            return math.inf
        return self._leak_at(v, v_eq, math.log1p(z))[0]

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

    def _leak_voltage(self, v, p, thr, span, v_free):
        """Voltage after ``span`` seconds of a leaky segment from ``v`` that
        does not reach ``thr`` by then: Newton's root of t(x) = span.  t is
        convex in x while the voltage rises and concave while it falls, so
        steps from a start beyond the root approach it monotonically within
        the domain.  Such starts: the leak-free voltage ``v_free``, which the
        leak can only lower, and for p > 0 the root of t's asymptote
        (C/I)·(-w - v_eq·x), which t lies above when rising and below when
        falling (for p < 0 that root lies past 0 V, where t is not
        monotone); the nearer one is taken."""
        c, i = self.c, self.i_leak
        if p == 0.0:  # the leak alone: a linear drain
            return max(v - i * span / c, thr)
        v_eq = p / i
        w = v_eq - v
        if w == 0.0 or (w > 0.0) != (thr > v):
            # On the equilibrium to rounding (p - I·v, p/I - v disagree): hold.
            return v
        z = (v - v_free) / w
        x = math.log1p(z) if z > -1.0 else -math.inf
        if p > 0.0:
            x_line = -(w + span * i / c) / v_eq
            x = max(x, x_line) if w > 0.0 else min(x, x_line)
        for _ in range(60):
            t, v_x = self._leak_at(v, v_eq, x)
            dx = (t - span) * i / (c * v_x)
            x = min(x + dx, 0.0)
            if abs(dx) <= 1e-13 * abs(x):
                break
        v_new = self._leak_at(v, v_eq, x)[1]
        # Rounding must not carry the voltage past the threshold.
        return min(v_new, thr) if w > 0.0 else max(v_new, thr)


def _wake_times(t, period, horizon, cap):
    """Wakeup times ``t``, ``t + period``, ... equal to those the event loop
    builds by repeated addition.  Returns ``(k, t_last, t_next)``: the ``k``
    (at most ``cap``) wakeups from ``t`` on whose successor lies at or
    before ``horizon``, the last of them and that successor.

    The times are computed per binade.  While ``s`` and ``s + period`` lie in
    one binade ``[2^e, 2^(e+1))`` with ulp ``u``, ``fl(s + period) = s + d``,
    ``d`` being ``period`` rounded to a multiple of ``u``.  Only where
    ``period / u`` ends in exactly .5 does ties-to-even choose ``d`` by the
    parity of ``s / u``, and after one step that parity no longer changes.
    So once two additions within a binade give the same step ``d``, the
    following times are ``s + j·d``, exact, up to ``2^(e+1) - u``, the
    horizon and the cap (each with one step to spare).  Every other step, at
    binade edges and near the horizon or cap, is a real addition; a skip
    costs a few additions per binade instead of one per period.
    """
    k, before, t_last, t_next = 0, t, t, t
    while k + 1 <= cap and t_next + period <= horizon:
        k, before, t_last, t_next = k + 1, t_last, t_next, t_next + period
        d, u = t_next - t_last, math.ulp(t_next)
        if d == t_last - before and d > 0.0 and math.ulp(before) == u:
            m = int(min(cap - k, (min(horizon, u * (2.0**53 - 1.0)) - t_next) / d)) - 1
            if m > 0:
                k, t_last, t_next = k + m, t_next + (m - 1) * d, t_next + m * d
    return k, t_last, t_next


def action_energy_j(config: NodeConfig) -> float:
    """Load-side energy paid at each periodic wakeup in the node's mode."""
    load = config.load
    if config.mode is ApplicationMode.PERIODIC_SENSING:
        return load.e_sense_tx_j + load.e_controller_step_j
    if config.mode is ApplicationMode.ADVERTISING:
        return load.e_advertise_j + load.e_controller_step_j
    return load.e_controller_step_j  # event detection: only the controller runs


class _NodeSim:
    """Event loop for a single node; see run_node."""

    def __init__(self, config, light, events, duration_s, detail):
        if not 0.0 < duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
        if events is not None and config.mode is not ApplicationMode.EVENT_DETECTION:
            raise ValueError(
                f"node {config.node_id}: events trace given but mode is {config.mode.value}"
            )
        self.phys = _Phys(config)
        self.table = config.table
        self.mode = config.mode
        self.duration = float(duration_s)
        self.detail = detail
        eta_buck = config.converter.eta_buck
        self.e_wakeup = action_energy_j(config) / eta_buck
        self.e_event = config.load.e_event_detect_j / eta_buck
        self.intervals = config.table.intervals[config.mode]
        # Past ulp(duration), adding the interval to the clock can leave it
        # where it was, and the run would never end.
        if min(self.intervals) < math.ulp(self.duration):
            raise ValueError(
                f"node {config.node_id}: shortest {config.mode.value} interval "
                f"{min(self.intervals)} s is below the float spacing "
                f"{math.ulp(self.duration)} s of duration_s {self.duration}"
            )
        self.holdoffs = config.table.intervals[ApplicationMode.EVENT_DETECTION]
        self.pinned_qos = config.pinned_qos
        self.v = config.supercap.voltage_v
        self.alive = self.v >= config.supercap.v_cutoff
        self.ctrl = ControllerState()
        self.qos = config.pinned_qos if config.pinned_qos is not None else self.ctrl.qos
        self.lux = light.value_at(0.0)
        self.p_panel = self.phys.p_per_lux * self.lux
        # The light samples inside (0, duration) for run's cursor, then a sentinel.
        times, values = light.times_s.tolist(), light.values.tolist()
        lo, hi = bisect_right(times, 0.0), bisect_left(times, self.duration)
        self.sample_t = times[lo:hi] + [math.inf]
        self.sample_v = values[lo:hi]
        self.t_sample = self.sample_t[0]
        self.now = 0.0
        # The one pending wakeup of a live node (infinite when there is none).
        self.next_wake = 0.0 if self.alive else math.inf
        # (time, kind) pairs: entries that compare equal are interchangeable.
        self.heap: list[tuple[float, EventKind]] = []
        self.last_notification = -math.inf
        self.pending_events: list[float] = []
        self._last_packet_t = None
        self.died_at = None if self.alive else 0.0
        # Writes a record as a CSV line when run streams the log; lux_field
        # holds the current lux as formatted there.
        self.write_record = None
        self.lux_field = None
        self.log = NodeLog(
            node_id=config.node_id,
            mode=config.mode,
            duration_s=self.duration,
            capacitance_f=config.supercap.capacitance_f,
            initial_voltage_v=self.v,
        )

        if events is not None:
            for t in events.times_s.tolist():
                if 0.0 <= t < self.duration:
                    self._push(t, EventKind.EXTERNAL_EVENT)

    def _push(self, t, kind):
        heapq.heappush(self.heap, (t, kind))

    def run(self, out=None) -> NodeLog:
        """Runs the node to the end.  With ``out``, an open text file, each
        record is written there as a CSV line as it is made (see
        ``_log_writer``), and none is kept."""
        stream = out is not None
        if stream:
            self.write_record = _log_writer(out, self.log.node_id)
            self.lux_field = repr(self.lux)
        heap = self.heap
        duration = self.duration
        advance = self.phys.advance
        led = self.log.ledger
        # Only summary runs may skip wakeups; detailed runs keep the plain
        # wakeup with no extra checks.
        wakeup = self._wakeup if self.detail else self._wakeup_or_skip
        sample_t, sample_v = self.sample_t, self.sample_v
        p_per_lux = self.phys.p_per_lux
        i_sample = 0
        t_sample = sample_t[0]
        steps = 0
        while True:
            t_event = heap[0][0] if heap else math.inf
            t_wake = self.next_wake
            # Ties go to the sample, then the heap, then the wakeup.
            t_next = t_event if t_event <= t_wake else t_wake
            if t_sample <= t_next:
                t_next = t_sample
            t_stop = t_next if t_next < duration else duration
            crossing = None
            while self.now < t_stop:
                self.v, span, crossing = advance(
                    self.v, self.alive, self.p_panel, t_stop - self.now, led
                )
                self.now += span
                steps += 1
                if crossing is not None:
                    break
            # A crossing queues its event at the crossing time; look again.
            if crossing == "death":
                self._push(self.now, EventKind.DEATH)
            elif crossing == "recovery":
                self._push(self.now, EventKind.RECOVERY)
            elif t_next >= duration:
                break
            elif t_sample == t_next:
                self.lux = lux = sample_v[i_sample]
                self.p_panel = p_per_lux * lux
                if stream:
                    self.lux_field = repr(lux)
                self._record(t_sample, "sample", 0)
                i_sample += 1
                self.t_sample = t_sample = sample_t[i_sample]
            elif t_event <= t_wake:
                t, kind = heapq.heappop(heap)
                if kind is EventKind.EXTERNAL_EVENT:
                    self._external(t)
                elif kind is EventKind.DEATH and self.alive:
                    self._die(t)
                elif kind is EventKind.RECOVERY and not self.alive:
                    self._recover(t)
            else:
                wakeup(t_wake)
        return self._finalize(steps)

    def _book_packets(self, k, t_first, t_last) -> None:
        """Books ``k`` packets sent from ``t_first`` to ``t_last`` and the
        gaps between them and the packet before them."""
        log = self.log
        first = self._last_packet_t is None
        log.packets_emitted += k
        log.packet_gap_sum_s += t_last - (t_first if first else self._last_packet_t)
        log.packet_gap_count += k - first
        self._last_packet_t = t_last

    def _wakeup(self, t):
        qos = self.pinned_qos
        if qos is None:
            self.ctrl, qos = step(self.ctrl, self.v, self.lux, self.table)
        self.qos = qos
        log = self.log
        log.qos_histogram[qos] += 1
        log.controller_steps += 1

        self.v = self.phys.pay(self.v, self.e_wakeup, log.ledger)
        if self.v < self.phys.v_cutoff:
            self.next_wake = math.inf
            self._push(t, EventKind.DEATH)
            self._record(t, "wakeup", 0)
            return

        emitted = 0
        if self.mode is not ApplicationMode.EVENT_DETECTION:
            self._book_packets(1, t, t)
            emitted = 1
        self.next_wake = t + self.intervals[qos - 1]
        self._record(t, "wakeup", emitted)

    def _wakeup_or_skip(self, t):
        """The wakeup at ``t``, or a skip over this and later wakeups, booked
        from one replayed period, while the controller provably keeps its
        state and the period provably repeats.

        The skip stops at least HISTORY_LEN periods before the next queued
        event or light sample and the end of the run.  The wakeups in between
        take the ordinary path, which refills both controller histories before
        the light can change; the stale voltage history and seed counter left
        by the skip change no step while the controller stays at its fixed
        point.
        """
        phys = self.phys
        # A leaky period below v_rated never repeats: no replay.
        if (phys.i_leak and self.v != phys.v_rated) or (
            self.pinned_qos is None and not is_fixed_point(self.ctrl, self.lux, self.table)
        ):
            self._wakeup(t)
            return
        qos = self.pinned_qos or 7
        period = self.intervals[qos - 1]
        t_event = self.heap[0][0] if self.heap else math.inf
        t_limit = min(t_event, self.t_sample, self.duration)
        jitter = math.ulp(t_limit)
        cap, one = phys.replay_period(self.v, self.p_panel, self.e_wakeup, period, jitter)
        k, t_last, t_next = _wake_times(t, period, t_limit - HISTORY_LEN * period, cap)
        if k == 0:
            self._wakeup(t)
            return
        log = self.log
        log.ledger.add(one, k)
        v = self.v
        if v != phys.v_rated:
            v = math.sqrt(v * v + 2.0 * k * one.net_stored_j() / phys.c)
        # Each real period outlasts the replayed one; the excess, on the clamp
        # or else less than a period in all, is integrated as one stretch.
        rest = (t_next - t) - k * (period - jitter)
        self.v = phys.advance(v, True, self.p_panel, rest, log.ledger)[0]
        self.qos = qos
        log.qos_histogram[qos] += k
        log.controller_steps += k
        if self.mode is not ApplicationMode.EVENT_DETECTION:
            self._book_packets(k, t, t_last)
        self.now = t_next
        self.next_wake = t_next

    def _external(self, t):
        if not self.alive:
            self.log.events_missed_dead += 1
            return
        self.log.events_detected += 1
        self.v = self.phys.pay(self.v, self.e_event, self.log.ledger)
        if self.v < self.phys.v_cutoff:
            self._push(t, EventKind.DEATH)
            self._record(t, "event", 0)
            return
        holdoff = self.holdoffs[self.qos - 1]
        if t - self.last_notification >= holdoff:
            self._book_packets(1, t, t)
            self.log.notifications_emitted += 1
            self.log.notification_latencies_s.append(0.0)
            for t_pending in self.pending_events:
                self.log.notification_latencies_s.append(t - t_pending)
            self.pending_events.clear()
            self.last_notification = t
            self._record(t, "event", 1)
        else:
            self.pending_events.append(t)
            self._record(t, "event", 0)

    def _die(self, t):
        self.alive = False
        if self.next_wake < math.inf:
            # Its time stays an integration boundary, which keeps results
            # bit-identical to an event loop that queues every wakeup.
            self._push(self.next_wake, EventKind.DROPPED_WAKEUP)
            self.next_wake = math.inf
        self.died_at = t
        self.log.deaths += 1
        self._record(t, "death", 0)

    def _recover(self, t):
        self.alive = True
        self.log.recoveries += 1
        self.log.dead_seconds += t - self.died_at
        self.died_at = None
        self.ctrl = reset(self.ctrl)
        self._record(t, "recovery", 0)
        self.next_wake = t

    def _record(self, t, action, packets):
        if self.detail:
            write = self.write_record
            if write is not None:
                write(t, self.v, self.lux_field, self.qos, action, packets)
            else:
                # tuple.__new__ builds the record without LogRecord's Python-level __new__.
                self.log.records.append(
                    tuple.__new__(LogRecord, (t, self.v, self.lux, self.qos, action, packets))
                )

    def _finalize(self, steps) -> NodeLog:
        log = self.log
        if not self.alive:
            log.dead_seconds += self.duration - self.died_at
        log.final_voltage_v = self.v
        log.alive_at_end = self.alive
        log.events_unnotified = len(self.pending_events)
        # Rounding stays far below 1e-6 unless the run moves less energy than
        # the stored energy resolves: each integrator step rounds it by an ulp.
        residual = log.energy_residual_relative
        floor = 4 * steps * math.ulp(self.phys.e_max)
        if not (residual <= 1e-6 or abs(log.energy_residual_j) <= floor):
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
    meaningful in event-detection mode and raises otherwise.  ``detail``
    controls whether per-event records are kept (summary counters and the
    energy ledger are always maintained).  Without detail, a node at a
    controller fixed point fast-forwards over wakeups, a leaky one only while
    pinned at ``v_rated`` (see the module docstring): its counters equal those
    of the detailed run, its ledger and final voltage agree to 1e-9 relative,
    barring exact ties.  Deterministic given (config, traces, duration, detail).

    With ``log_path`` (``detail`` only), each record is written to that file
    as the run makes it, in the bytes ``write_node_log_csv`` writes, and the
    returned log keeps none.  The file is made once the inputs are checked,
    and removed again if the run fails.
    """
    if log_path is not None and not detail:
        raise ValueError("log_path needs detail=True")
    sim = _NodeSim(config, light, events, duration_s, detail)
    if log_path is None:
        return sim.run()
    path = Path(log_path)
    fh = _open_log(path)
    try:
        with fh:
            return sim.run(fh)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _open_log(path):
    return Path(path).open("w", newline="", encoding="utf-8")


def _log_writer(fh, node_id):
    """Writes a node log's CSV header to ``fh`` and returns the function
    that writes one record, ``(time_s, voltage_v, lux, qos, action,
    packets)`` with ``lux`` already formatted by ``repr``: the one layout of
    a node log."""
    # Only node_id can need quoting; csv.writer quotes it once, and each
    # record is then formatted as the writer would format it.
    quoted = io.StringIO()
    csv.writer(quoted).writerow([node_id])
    node_id = quoted.getvalue()[:-2]
    write = fh.write
    write("time_s,node_id,voltage_v,lux,qos,action,packets\r\n")

    def record(t, v, lux, qos, action, packets):
        write(f"{t!r},{node_id},{v!r},{lux},{qos},{action},{packets}\r\n")

    return record


def write_node_log_csv(log: NodeLog, path) -> None:
    """Per-event log as CSV: time_s,node_id,voltage_v,lux,qos,action,packets."""
    with _open_log(path) as fh:
        record = _log_writer(fh, log.node_id)
        for t, v, lux, qos, action, packets in log.records:
            record(t, v, repr(lux), qos, action, packets)


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
