"""Runs without per-event detail against the same runs with it.

Both kinds of run share one gate: while the controller is pinned, or at a
fixed point up to HISTORY_LEN + 1 periods before the next light sample, a
wakeup takes its state without a controller step.  A detailed run must then
write the records and the ledger of the run that steps at every wakeup, bit
for bit.

Without detail, a node also skips stretches of wakeups inside the gate, up
to its end, the next external event or the end of the run: a leak-free node
in both regimes, pinned at v_rated or inside them, a leaky node only while
pinned at v_rated.  With detail every wakeup is dispatched one at a time, so
the detailed run is the reference.  Counters and the QoS histogram must
agree exactly, floats to 1e-9 relative, except where rounding settles an
exact tie (see run_compare.py).
"""

import math
import random
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

import luxmote.simulate as simulate
from luxmote.config import load_deployment_config
from luxmote.deployment import run_deployment
from luxmote.energy import LoadModel, SupercapState
from luxmote.qos import DEFAULT_TABLE, ApplicationMode
from luxmote.simulate import EnergyLedger, NodeConfig, ledger_summary, run_node
from luxmote.traces import Trace
from run_compare import assert_same_run

REPO = Path(__file__).resolve().parents[1]


def both(cfg, light, events=None, *, duration_s):
    full = run_node(cfg, light, events, duration_s=duration_s, detail=True)
    slim = run_node(cfg, light, events, duration_s=duration_s, detail=False)
    assert slim.records == []

    def rerun(scale):
        cap = cfg.supercap
        nudged = replace(cap, voltage_v=min(cap.voltage_v * scale, cap.v_rated))
        return run_node(
            replace(cfg, supercap=nudged), light, events, duration_s=duration_s, detail=True
        )

    assert_same_run(full, slim, rerun)
    return full, slim


def count_calls(monkeypatch, owner, name):
    """Count the calls the simulator really makes to ``owner.name``, and
    keep what each returns."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_steps(monkeypatch):
    """Count the controller evaluations the simulator really performs."""
    return count_calls(monkeypatch, simulate, "step")


def count_work(monkeypatch):
    """Count the replayed periods, the payments, the controller steps, the
    integrator's ``advance`` calls, a replay's included, and the
    ``_wake_times`` calls, keeping what each returns.  A ``replay_period``
    call whose room bound withholds the replay returns no ledger, and
    replays no period."""
    replays = []
    real = simulate._Phys.replay_period

    def counted(*args):
        out = real(*args)
        if out[1] is not None:
            replays.append(None)
        return out

    monkeypatch.setattr(simulate._Phys, "replay_period", counted)
    return [
        replays,
        count_calls(monkeypatch, simulate._Phys, "pay"),
        count_steps(monkeypatch),
        count_calls(monkeypatch, simulate._Phys, "advance"),
        count_calls(monkeypatch, simulate, "_wake_times"),
    ]


@pytest.mark.parametrize("duration, wakeups", [(3600.0, 36_000), (4500.0, 45_000)])
def test_advertising_at_400_lux_keeps_every_wakeup(duration, wakeups):
    # Every wakeup is due at anchor + n·0.1 s, the one expression both runs
    # use, so an hour holds 36,000 of them, 0 to 3599.9 s: the 36,000th
    # successor rounds to 3600.0 s, the end of the run.  Repeated addition of
    # 0.1 s drifts below n·0.1 and would fit a 36,001st wakeup before the end.
    cfg = NodeConfig(mode=ApplicationMode.ADVERTISING)
    full, slim = both(cfg, Trace.constant(400.0), duration_s=duration)
    assert full.controller_steps == slim.controller_steps == wakeups


@pytest.mark.parametrize("lux, v_low, v_high", [(400.0, 5.4, 5.47), (2000.0, 5.4999, 5.5)])
def test_advertising_from_rated_voltage(lux, v_low, v_high):
    # At 400 lux a period recharges less than a wakeup costs, so the node
    # drains from v_rated; at 2000 lux every period returns to the clamp.
    # Pinned, the node may skip from its very first wakeup.
    cfg = NodeConfig(
        mode=ApplicationMode.ADVERTISING, pinned_qos=7, supercap=SupercapState(voltage_v=5.5)
    )
    full, _ = both(cfg, Trace.constant(lux), duration_s=2000.0)
    assert v_low < full.final_voltage_v <= v_high


def test_advertising_node_skips_its_drains(monkeypatch):
    cfg = NodeConfig(
        mode=ApplicationMode.ADVERTISING,
        supercap=SupercapState(capacitance_f=1.0, voltage_v=2.5),
    )
    full, _ = both(cfg, Trace.constant(300.0), duration_s=40_000.0)
    assert full.deaths == 2
    calls = count_steps(monkeypatch)
    slim = run_node(cfg, Trace.constant(300.0), duration_s=40_000.0, detail=False)
    assert slim.controller_steps == full.controller_steps
    assert len(calls) < slim.controller_steps / 100


def test_slow_drain_dies_at_the_same_wakeup():
    # At 600 lux a period recharges most of an advertisement's cost, so the
    # energy before each wakeup falls by less than one payment: a skip must
    # stop a whole payment above the cutoff, not only one period's drift.
    cfg = NodeConfig(
        mode=ApplicationMode.ADVERTISING,
        supercap=SupercapState(capacitance_f=0.1, voltage_v=2.5),
    )
    full, _ = both(cfg, Trace.constant(600.0), duration_s=4000.0)
    assert full.deaths == 2


def test_fleet_node_skips_charge_and_clamp(monkeypatch):
    # A 1 F sensing node at 300 lux charges to v_rated and stays pinned there.
    cfg = NodeConfig(supercap=SupercapState(capacitance_f=1.0, voltage_v=2.5))
    full, _ = both(cfg, Trace.constant(300.0), duration_s=4 * 86_400.0)
    assert full.final_voltage_v == cfg.supercap.v_rated
    calls = count_steps(monkeypatch)
    run_node(cfg, Trace.constant(300.0), duration_s=4 * 86_400.0, detail=False)
    assert len(calls) < 100


def stepped_everywhere(monkeypatch, cfg, light, events, duration):
    """Runs the node with detail twice, as it is and with the fixed point
    never proven, so that every wakeup steps; both must write the same
    bytes.  Returns the first run and its number of steps."""
    calls = count_steps(monkeypatch)
    gated = run_node(cfg, light, events, duration_s=duration)
    gated_steps = len(calls)
    monkeypatch.setattr(simulate, "is_fixed_point", lambda *args: False)
    stepped = run_node(cfg, light, events, duration_s=duration)
    assert gated.records == stepped.records
    assert ledger_summary(gated) == ledger_summary(stepped)
    assert len(calls) - gated_steps == stepped.controller_steps
    return gated, gated_steps


# With the light sample at 1220 s, the stretch without steps ends at 1100 s,
# a wakeup of the 20 s sensing period; the other samples move that end an ulp
# or half a period either way.
@pytest.mark.parametrize(
    "t_sample", [1220.0, math.nextafter(1220.0, 0.0), math.nextafter(1220.0, math.inf), 1210.0]
)
def test_no_step_at_the_fixed_point_under_stepped_light(monkeypatch, t_sample):
    cfg = NodeConfig(supercap=SupercapState(capacitance_f=1.0, voltage_v=3.0))
    light = Trace([0.0, t_sample, 3000.0, 3600.0], [300.0, 150.0, 0.0, 300.0])
    log, steps = stepped_everywhere(monkeypatch, cfg, light, None, 7200.0)
    assert log.qos_histogram[7] < log.controller_steps
    assert steps < log.controller_steps / 2


# The stretch without steps ends at 1040 s, six 10 s PIR periods before the
# light drop.  A motion event's payment in the last periods before the drop
# leaves a dip in the voltage history, whose trend the step after the drop
# reads: stale readings from before the stretch would read it otherwise.
@pytest.mark.parametrize("t_event", [1003.0, 1039.5, 1040.0, 1061.0, 1075.0, 1085.0])
def test_no_step_at_the_fixed_point_around_motion(monkeypatch, t_event):
    cfg = NodeConfig(
        mode=ApplicationMode.EVENT_DETECTION,
        supercap=SupercapState(capacitance_f=0.05, voltage_v=3.0),
        load=LoadModel(e_event_detect_j=10e-3),
    )
    light = Trace([0.0, 1100.0], [300.0, 150.0])
    log, steps = stepped_everywhere(monkeypatch, cfg, light, Trace([t_event], [1.0]), 1500.0)
    assert log.events_detected == 1
    assert steps < log.controller_steps / 2


def test_no_step_at_the_fixed_point_through_brownouts(monkeypatch):
    # The first two motion events drain the node below the cutoff; it
    # recovers at about 1732 s, before the next light sample, and steps
    # again until the controller is back at its fixed point.  The event at
    # 2035 s drains it again.
    cfg = NodeConfig(
        mode=ApplicationMode.EVENT_DETECTION,
        supercap=SupercapState(capacitance_f=0.02, voltage_v=2.6),
        load=LoadModel(e_event_detect_j=40e-3),
    )
    light = Trace([0.0, 3000.0, 6000.0], [300.0, 150.0, 300.0])
    events = Trace([1003.0, 1005.0, 2035.0], [1.0] * 3)
    log, steps = stepped_everywhere(monkeypatch, cfg, light, events, 8000.0)
    assert log.deaths == log.recoveries == 2
    recovered = [r.time_s for r in log.records if r.action == "recovery"]
    assert 1005.0 < recovered[0] < 2035.0
    assert steps < log.controller_steps / 10


def test_detailed_advertising_day_steps_at_recoveries_only(monkeypatch):
    # 380,103 wakeups, 4 brown-outs: the controller steps only until it is
    # back at its fixed point after each recovery.
    cfg = NodeConfig(
        mode=ApplicationMode.ADVERTISING, supercap=SupercapState(capacitance_f=1.0, voltage_v=3.0)
    )
    calls = count_steps(monkeypatch)
    log = run_node(cfg, Trace.constant(300.0), duration_s=86_400.0)
    assert log.controller_steps == 380_103 and log.deaths == 4
    assert len(calls) <= 100


def test_histories_refill_before_the_light_changes():
    # A motion event's payment leaves a dip in the voltage history just
    # before a skip.  The light drop at 1100 s makes the next step read the
    # voltage trend; only a history refilled after the skip reads it rising.
    cfg = NodeConfig(
        mode=ApplicationMode.EVENT_DETECTION,
        supercap=SupercapState(capacitance_f=0.05, voltage_v=3.0),
        load=LoadModel(e_event_detect_j=10e-3),
    )
    light = Trace([0.0, 1100.0], [300.0, 150.0])
    full, _ = both(cfg, light, Trace([1003.0], [1.0]), duration_s=1500.0)
    assert full.qos_histogram[7] == full.controller_steps


def test_leaky_interior_keeps_the_event_path(monkeypatch):
    """A leaky node below v_rated never repeats a period bit for bit, so it
    dispatches every wakeup and replays none; this one never reaches the
    clamp."""
    cfg = NodeConfig(supercap=SupercapState(voltage_v=3.0, leak_current_a=1e-6))
    full = run_node(cfg, Trace.constant(300.0), duration_s=7200.0, detail=True)
    replays = count_calls(monkeypatch, simulate._Phys, "replay_period")
    wake_times = count_calls(monkeypatch, simulate, "_wake_times")
    slim = run_node(cfg, Trace.constant(300.0), duration_s=7200.0, detail=False)
    assert ledger_summary(full) == ledger_summary(slim)
    assert replays == wake_times == []


def test_leaky_node_skips_while_pinned(monkeypatch):
    # At 300 lux a 1 uA node recharges each wakeup's payment within about a
    # second, so from v_rated every period is back on the clamp.
    cfg = NodeConfig(
        supercap=SupercapState(capacitance_f=1.0, voltage_v=5.5, leak_current_a=1e-6)
    )
    full, slim = both(cfg, Trace.constant(300.0), duration_s=86_400.0)
    assert full.final_voltage_v == slim.final_voltage_v == cfg.supercap.v_rated
    assert full.ledger.leak_j > 0.0
    calls = count_steps(monkeypatch)
    run_node(cfg, Trace.constant(300.0), duration_s=86_400.0, detail=False)
    assert len(calls) < 100


@pytest.mark.parametrize("pinned", [1, 4, 7])
def test_pinned_node_through_light_steps(pinned):
    cfg = NodeConfig(pinned_qos=pinned, supercap=SupercapState(capacitance_f=0.01, voltage_v=3.0))
    light = Trace([0.0, 1000.0, 9000.0], [100.0, 10.0, 0.0])
    both(cfg, light, duration_s=30_000.0)


def test_skips_stop_before_light_samples(monkeypatch):
    # The skip stops before the next external event, so its own limit must
    # include the next sample: a skip past a light step would book the old
    # light's harvest and miss the controller's reaction to the new one.
    cfg = NodeConfig(supercap=SupercapState(capacitance_f=1.0, voltage_v=2.5))
    steps = [(0.0, 300.0)] + [(60.0 * m, 300.0 + m % 7) for m in range(1, 60)]
    steps += [(30_000.0, 300.0), (50_000.0, 250.0), (70_000.0, 0.0), (75_000.0, 400.0)]
    light = Trace.from_samples(steps)
    full, slim = both(cfg, light, duration_s=100_000.0)
    assert sum(r.action == "sample" for r in full.records) == len(steps) - 1
    calls = count_steps(monkeypatch)
    run_node(cfg, light, duration_s=100_000.0, detail=False)
    assert len(calls) < slim.controller_steps / 2


# From 2.5 V the node reaches the clamp on day 3: the skip before it stops
# short, and the wakeups after that have no room for a period below it.
@pytest.mark.parametrize("voltage, days", [(3.5, 1), (2.5, 4)])
def test_no_replay_without_a_period_to_skip(monkeypatch, voltage, days):
    # A skip ends less than a period before its horizon: the end of the
    # fixed-point gate, HISTORY_LEN + 1 periods before the light sample, or
    # the end of the run.  So the wakeup after it has no period to skip: it
    # takes the event path without replaying one, and the wakeups past the
    # gate step.  Below v_rated the room is bounded before the replay as
    # well, so every replay skips a period.
    horizons, replays, skipped = [], [], []
    wake_times, replay = simulate._wake_times, simulate._Phys.replay_period

    def recorded_wake_times(anchor, n, period, horizon, cap):
        horizons.append((anchor + n * period, period, horizon))
        skipped.append(wake_times(anchor, n, period, horizon, cap))
        return skipped[-1]

    def recorded_replay(phys, *args):
        replays.append(replay(phys, *args))
        return replays[-1]

    monkeypatch.setattr(simulate, "_wake_times", recorded_wake_times)
    monkeypatch.setattr(simulate._Phys, "replay_period", recorded_replay)
    cfg = NodeConfig(supercap=SupercapState(capacitance_f=1.0, voltage_v=voltage))
    light = Trace([0.0, 40_000.0], [300.0, 400.0])
    log = run_node(cfg, light, duration_s=days * 86_400.0, detail=False)
    assert log.controller_steps > 4_000
    assert horizons and len(replays) == len(horizons)
    assert all(t + period <= horizon for t, period, horizon in horizons)
    assert all(k >= 1 for (_, one), (k, _, _) in zip(replays, skipped) if one is not None)


# The work of a run, pinned as (replayed periods, payments, controller
# steps, advance calls, _wake_times calls), and the skips that book k > 0
# periods: a change that adds work fails here, and one that removes work
# records the new counts.
def test_criterion_5_fleet_work(monkeypatch):
    # Each node steps to its fixed point and replays twice: to skip most of
    # the charge, and on the clamp.  The three wakeups between them leave
    # no room for a period below the clamp, and replay nothing.
    config = load_deployment_config(REPO / "configs" / "deployment_15node.json")
    light = {node.node_id: Trace.constant(300.0) for node in config.nodes}
    calls = count_work(monkeypatch)
    run_deployment(config, light, duration_s=4 * 86_400.0, detail=False)
    assert [len(c) for c in calls] == [30, 150, 75, 150, 75]
    assert sum(k > 0 for k, _, _ in calls[4]) == 30


def test_pir_node_day_work(monkeypatch):
    # A motion event reads no controller state, so a skip runs up to each
    # one: 150 events in a day of 8,640 wakeups take 144 replays.
    cfg = NodeConfig(
        mode=ApplicationMode.EVENT_DETECTION,
        supercap=SupercapState(capacitance_f=1.0, voltage_v=3.5),
    )
    rng = random.Random(1)
    times = sorted(rng.uniform(8 * 3600.0, 18 * 3600.0) for _ in range(150))
    events = Trace(times, [1.0] * len(times))
    full, _ = both(cfg, Trace.constant(300.0), events, duration_s=86_400.0)
    assert full.events_detected == 150
    calls = count_work(monkeypatch)
    run_node(cfg, Trace.constant(300.0), events, duration_s=86_400.0, detail=False)
    assert [len(c) for c in calls] == [144, 447, 5, 447, 144]
    assert sum(k > 0 for k, _, _ in calls[4]) == 144


def test_pinned_node_skips_up_to_each_light_sample(monkeypatch):
    # A pinned node never steps, so it needs no histories refilled before
    # the light changes: on the clamp, each skip runs to the next sample.
    cfg = NodeConfig(pinned_qos=7, supercap=SupercapState(capacitance_f=1.0, voltage_v=5.5))
    light = Trace([0.0, 10_000.0, 30_000.0, 50_000.0], [300.0, 400.0, 2000.0, 300.0])
    both(cfg, light, duration_s=86_400.0)
    skips = count_calls(monkeypatch, simulate, "_wake_times")
    run_node(cfg, light, duration_s=86_400.0, detail=False)
    ends = [t_next for k, _, t_next in skips if k > 0]
    assert ends == [10_000.0, 30_000.0, 50_000.0, 86_400.0]


def test_advertising_node_day_work(monkeypatch):
    cfg = NodeConfig(
        mode=ApplicationMode.ADVERTISING,
        supercap=SupercapState(capacitance_f=1.0, voltage_v=2.5),
    )
    calls = count_work(monkeypatch)
    log = run_node(cfg, Trace.constant(300.0), duration_s=86_400.0, detail=False)
    assert log.deaths == 5
    assert [len(c) for c in calls] == [5, 49, 25, 49, 24]
    assert sum(k > 0 for k, _, _ in calls[4]) == 5


def diurnal_light(rng, days, peak_lux):
    """Minute-resolution office light: dark nights, a daylight arch with
    seeded sunrise, sunset and level, and 3 % flicker at every minute."""
    samples = []
    for day in range(days):
        rise = 7.5 + rng.uniform(-0.25, 0.25)
        sset = 18.5 + rng.uniform(-0.25, 0.25)
        peak = peak_lux * rng.uniform(0.95, 1.05)
        for minute in range(1440):
            hour = minute / 60.0
            lux = 0.0
            if rise < hour < sset:
                arch = math.sin(math.pi * (hour - rise) / (sset - rise)) ** 0.5
                lux = max(0.0, peak * arch * (1.0 + rng.gauss(0.0, 0.03)))
            samples.append((day * 86_400.0 + minute * 60.0, round(lux, 1)))
    return Trace.from_samples(samples)


def test_diurnal_sensing_node_steps_at_every_wakeup(monkeypatch):
    # A light sample comes every minute, three 20 s sensing periods apart,
    # and the fixed-point gate closes HISTORY_LEN + 1 periods before each:
    # it never opens, and both runs step at each of the 5,036 wakeups.  A
    # gate that opens under minute-to-minute flicker lowers this count.
    cfg = NodeConfig(supercap=SupercapState(capacitance_f=1.0, voltage_v=2.5))
    light = diurnal_light(random.Random(1), 2, 450.0)
    calls = count_steps(monkeypatch)
    for detail in (True, False):
        calls.clear()
        log = run_node(cfg, light, duration_s=2 * 86_400.0, detail=detail)
        assert len(calls) == log.controller_steps == 5_036


def test_detailed_leaky_node_work(monkeypatch):
    # The work of a detailed run, pinned as (controller steps, payments,
    # advance calls, segment solves, _leak_at evaluations, records): a 1 µA
    # leaky sensing node under office light, the path of a logged CLI run.
    # Every wakeup steps and pays; a stretch past a light sample or the
    # boost threshold takes one more advance call or segment, and each leaky
    # solve a few _leak_at evaluations.  Making an event cheaper must leave
    # every count here as it is.
    cfg = NodeConfig(
        supercap=SupercapState(capacitance_f=1.0, voltage_v=2.5, leak_current_a=1e-6)
    )
    light = diurnal_light(random.Random(1), 2, 450.0)
    calls = [
        count_steps(monkeypatch),
        count_calls(monkeypatch, simulate._Phys, "pay"),
        count_calls(monkeypatch, simulate._Phys, "advance"),
        count_calls(monkeypatch, simulate._Phys, "segment"),
        count_calls(monkeypatch, simulate._Phys, "_leak_at"),
    ]
    log = run_node(cfg, light, duration_s=2 * 86_400.0, detail=True)
    assert [len(c) for c in calls] == [5_007, 5_007, 6_212, 6_212, 31_050]
    assert len(log.records) == 7_886


@pytest.mark.parametrize("short", [1.0, 0.0])
def test_node_on_the_cutoff_dies_in_both_runs(short):
    # A pinned PIR node pays nothing at its wakeups.  Started on the cutoff
    # in the dark, or in light an ulp short of its standby draw, it dies at
    # once; the summary run must not book periods it did not live through.
    cfg = NodeConfig(
        mode=ApplicationMode.EVENT_DETECTION,
        pinned_qos=7,
        supercap=SupercapState(capacitance_f=0.02, voltage_v=2.1),
    )
    phys = simulate._Phys(cfg)
    balance = phys.p_standby_storage / (phys.eta_boost * phys.p_per_lux)
    lux = math.nextafter(balance, 0.0) * short
    full, _ = both(cfg, Trace.constant(lux), duration_s=3600.0)
    assert full.deaths == 1 and full.dead_seconds == 3600.0


def test_replay_that_drains_the_element_replays_nothing(monkeypatch):
    # 1 uF at v_rated holds less than one wakeup's payment: the replay's
    # payment drains the element to 0 V, and the replay stands for no
    # period.  The node dies at every wakeup it lives to.
    cfg = NodeConfig(pinned_qos=7, supercap=SupercapState(capacitance_f=1e-6, voltage_v=5.5))
    full, _ = both(cfg, Trace.constant(300.0), duration_s=3600.0)
    assert full.deaths == 7391
    replays = count_calls(monkeypatch, simulate._Phys, "replay_period")
    run_node(cfg, Trace.constant(300.0), duration_s=3600.0, detail=False)
    k, one = replays[0]  # at t = 0, from v_rated
    assert k == 0 and one is not None
    assert one.drain_stored_j == 0.5 * 1e-6 * 5.5**2 and one.harvest_stored_j == 0.0


def test_event_detection_between_motion_events():
    cfg = NodeConfig(
        mode=ApplicationMode.EVENT_DETECTION,
        supercap=SupercapState(capacitance_f=0.05, voltage_v=2.6),
        load=LoadModel(e_event_detect_j=2e-3, e_controller_step_j=1e-6),
    )
    times = [700.0 * k + 3.0 for k in range(1, 40)]
    events = Trace(times, [1.0] * len(times))
    light = Trace([0.0, 9000.0, 15000.0], [300.0, 0.0, 150.0])
    both(cfg, light, events, duration_s=30_000.0)


# Exact ties that the nudged rerun of ``both`` cannot settle yet: each drain
# reaches the cutoff exactly at the end of the run or at a wakeup, and the
# two runs settle it on opposite sides.  (a) starts at v_rated, where only
# the downward nudge exists; in (b) the 1e-11 nudge moves the death by 2e-9
# of ``dead_seconds``, past the tolerance.
@pytest.mark.xfail(strict=True, raises=AssertionError)
@pytest.mark.parametrize(
    "mode, pinned, voltage, duration",
    [
        (ApplicationMode.EVENT_DETECTION, 5, 5.5, 77_520.0),
        (ApplicationMode.ADVERTISING, 1, 2.2, 795.0),
    ],
)
def test_tie_the_rerun_cannot_settle(mode, pinned, voltage, duration):
    cfg = NodeConfig(
        mode=mode,
        pinned_qos=pinned,
        supercap=SupercapState(capacitance_f=0.02, voltage_v=voltage),
    )
    both(cfg, Trace.constant(0.0), duration_s=duration)


def test_charge_stops_on_the_clamp(monkeypatch):
    # A charge that ends at a light sample a rounding short of v_rated.  The
    # energy line's square root once put it an ulp above the clamp, where no
    # period fits below it and none repeats on it, so the summary run paid
    # all 144 wakeups of the day instead of 2.
    cfg = NodeConfig(
        mode=ApplicationMode.EVENT_DETECTION,
        pinned_qos=1,
        supercap=SupercapState(capacitance_f=0.1, voltage_v=5.487203651700358),
    )
    t_sample = 19.06818509488218
    assert run_node(cfg, Trace.constant(2000.0), duration_s=t_sample).final_voltage_v == 5.5
    light = Trace([0.0, t_sample], [2000.0, 2000.0])
    full, _ = both(cfg, light, duration_s=86_400.0)
    pays = count_calls(monkeypatch, simulate._Phys, "pay")
    slim = run_node(cfg, light, duration_s=86_400.0, detail=False)
    assert full.final_voltage_v == slim.final_voltage_v == 5.5
    assert len(pays) == 2


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LUX = [0.0, 40.0, 150.0, 300.0, 400.0, 2000.0]
LEAKS = [0.0, 1e-7, 1e-6, 1e-5]


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from(list(ApplicationMode)))
    pinned = draw(st.one_of(st.none(), st.integers(1, 7)))
    capacitance = draw(st.sampled_from([0.02, 0.1, 0.47, 1.0, 2.5]))
    voltage = draw(st.one_of(st.floats(2.2, 5.5), st.just(5.5)))
    leak = draw(st.sampled_from(LEAKS))
    cfg = NodeConfig(
        mode=mode,
        pinned_qos=pinned,
        supercap=SupercapState(capacitance_f=capacitance, voltage_v=voltage, leak_current_a=leak),
    )
    # A whole number of wakeup periods of the fastest state the node can
    # reach, at most 20,000 of them.
    interval = DEFAULT_TABLE.intervals[mode][(pinned or 7) - 1]
    duration = draw(st.integers(1, 20_000)) * interval
    light_times = draw(
        st.lists(st.floats(0.0, duration, exclude_max=True), max_size=3, unique=True)
    )
    light = Trace.from_samples(
        [(0.0, draw(st.sampled_from(LUX)))]
        + [(t, draw(st.sampled_from(LUX))) for t in sorted(light_times) if t > 0.0]
    )
    events = None
    if mode is ApplicationMode.EVENT_DETECTION:
        times = draw(st.lists(st.floats(0.0, duration, exclude_max=True), max_size=8, unique=True))
        if times:
            events = Trace(sorted(times), [1.0] * len(times))
    return cfg, light, events, duration


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(scenarios())
def test_summary_run_matches_detailed_run(scenario):
    cfg, light, events, duration = scenario
    both(cfg, light, events, duration_s=duration)


DENSE_LUX = [0.0, 150.0, 300.0, 400.0]


@st.composite
def dense_light(draw):
    """An unpinned node under up to 60 light samples, each 1 to 30 of its
    state-7 periods (±0.1 %) after the last, often at the last one's lux,
    and motion events for an event-detection node."""
    mode = draw(st.sampled_from(list(ApplicationMode)))
    capacitance = draw(st.sampled_from([0.02, 0.1, 0.47, 1.0, 2.5]))
    voltage = draw(st.one_of(st.floats(2.2, 5.5), st.just(5.5)))
    leak = draw(st.sampled_from(LEAKS))
    cfg = NodeConfig(
        mode=mode,
        supercap=SupercapState(capacitance_f=capacitance, voltage_v=voltage, leak_current_a=leak),
    )
    period = DEFAULT_TABLE.intervals[mode][6]
    times, values = [0.0], [draw(st.sampled_from(DENSE_LUX))]
    for _ in range(draw(st.integers(0, 59))):
        jitter = draw(st.floats(-1e-3, 1e-3))
        times.append(times[-1] + draw(st.integers(1, 30)) * period * (1.0 + jitter))
        values.append(draw(st.sampled_from([values[-1], *DENSE_LUX])))
    duration = times[-1] + draw(st.integers(1, 30)) * period
    events = None
    if mode is ApplicationMode.EVENT_DETECTION:
        motion = draw(st.lists(st.floats(0.0, duration, exclude_max=True), max_size=8, unique=True))
        if motion:
            events = Trace(sorted(motion), [1.0] * len(motion))
    return cfg, Trace(times, values), events, duration


# The gate closes HISTORY_LEN + 1 periods before each light sample, while
# HISTORY_LEN - 1 is the tightest margin that changes no run: the step after
# a sample reads four earlier voltages.  This node reaches its 3.3 V clamp
# inside the gate; with a margin of HISTORY_LEN - 2, one stale, lower voltage
# is left in the history, and after the light drops at 3,600 s it flips the
# voltage trend, so the detailed run logs qos 7 where the stepped one logs 5.
@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.one_of(scenarios(), dense_light()))
@hypothesis.example(
    (
        NodeConfig(supercap=SupercapState(capacitance_f=0.02, voltage_v=3.0, v_rated=3.3)),
        Trace([0.0, 3600.0], [300.0, 150.0]),
        None,
        7200.0,
    )
)
def test_gate_changes_no_run(scenario):
    # A detailed run writes the records and the ledger of the same run with
    # the fixed point never proven, where an unpinned node steps at every
    # wakeup.  Patched in the body, not through monkeypatch, so that
    # tests/soak.py can run it.
    cfg, light, events, duration = scenario
    with mock.patch.object(simulate, "step", wraps=simulate.step) as step:
        gated = run_node(cfg, light, events, duration_s=duration)
    with mock.patch.object(simulate, "is_fixed_point", lambda *args: False):
        stepped = run_node(cfg, light, events, duration_s=duration)
    assert gated.records == stepped.records
    assert ledger_summary(gated) == ledger_summary(stepped)
    if cfg.pinned_qos is None and step.call_count < gated.controller_steps:
        hypothesis.event("gated wakeups")


ROOM_CASES = dict(
    mode=st.sampled_from(list(ApplicationMode)),
    capacitance=st.sampled_from([0.02, 0.1, 1.0]),
    voltage=st.floats(2.1, 5.5) | st.sampled_from([2.1, 2.5, math.nextafter(5.5, 0.0)]),
    lux=st.floats(0.0, 3000.0) | st.sampled_from(LUX),
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(**ROOM_CASES)
def test_room_bound_withholds_no_skip(mode, capacitance, voltage, lux):
    # replay_period bounds the room before it replays: where the bound
    # withholds the replay, the replay itself leaves no room for a period.
    cfg = NodeConfig(
        mode=mode, pinned_qos=7, supercap=SupercapState(capacitance_f=capacitance)
    )
    sim = simulate._NodeSim(cfg, Trace.constant(lux), None, 86_400.0)
    phys, p_panel, e_wakeup = sim.phys, sim.phys.p_per_lux * lux, sim.e_wakeup
    period = sim.intervals[6]
    _, one = phys.replay_period(voltage, p_panel, e_wakeup, period)
    if one is None:
        # The withheld replay, made as replay_period makes it.
        led = EnergyLedger()
        v_w = phys.pay(voltage, e_wakeup, led)
        death = phys.advance(v_w, True, p_panel, period, led)[2]
        drift = led.harvest_stored_j - led.drain_stored_j
        assert v_w < phys.v_cutoff or death or phys.room_periods(voltage, e_wakeup, drift) < 1.0


def test_tie_at_the_cutoff_matches_a_nudged_detailed_run():
    # Found by the property test: from 3.2 V on 0.02 F in the dark, each 5 s
    # period drains exactly 1/1749 of the energy above the cutoff, so death
    # falls on a wakeup in exact arithmetic.  The detailed run dies 0.3 ns
    # before it.  The summary run's energy differs by rounding; with the drift
    # taken from a replayed period it settles the tie the same way, though
    # another rounding could settle it the other way (see run_compare.py).
    cfg = NodeConfig(
        mode=ApplicationMode.ADVERTISING,
        pinned_qos=1,
        supercap=SupercapState(capacitance_f=0.02, voltage_v=3.2),
    )
    full, slim = both(cfg, Trace.constant(0.0), duration_s=8750.0)
    assert full.controller_steps == slim.controller_steps == 1749


def anchored_times(anchor, n, period, horizon, cap):
    """The reference for ``_wake_times``: one wakeup time anchor + j·period
    per period, from j = n on."""
    k = 0
    while k + 1 <= cap and anchor + (n + k + 1) * period <= horizon:
        k += 1
    return k, anchor + (n + k - 1) * period, anchor + (n + k) * period


TABLE_PERIODS = sorted({p for row in DEFAULT_TABLE.intervals.values() for p in row})


@st.composite
def wake_cases(draw):
    """Anchors at, just below and just above powers of two, so that the
    times cross binades; table and random periods; n up to an advertising
    node-day's wakeups; horizons at, just below and past a successor; and
    caps below, at and past the count."""
    power = 2.0 ** draw(st.integers(-4, 23))
    anchor = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]),
            st.floats(0.0, 1e7),
        )
    )
    period = draw(st.one_of(st.sampled_from(TABLE_PERIODS), st.floats(0.05, 400.0)))
    n = draw(st.one_of(st.just(0), st.integers(0, 1_000_000)))
    j = draw(st.integers(0, 20_000))
    successor = anchor + (n + j) * period
    horizon = draw(
        st.sampled_from(
            [
                successor,
                math.nextafter(successor, 0.0),
                math.nextafter(successor, math.inf),
                successor + 0.5 * period,
            ]
        )
    )
    cap = draw(st.one_of(st.sampled_from([0.0, 1.0, math.inf]), st.floats(0.0, j + 5.0)))
    return anchor, n, period, horizon, cap


# The floor division's estimate of k is one too high in the first example
# and one too low in the second: both settle on the expression.
@hypothesis.example((1497300.057343084, 841016, 5.0, 5702385.057343083, math.inf))
@hypothesis.example((7759585.674357169, 944662, 0.1, 7854051.974357169, math.inf))
@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(wake_cases())
def test_wake_times_follow_the_anchor(case):
    assert simulate._wake_times(*case) == anchored_times(*case)
