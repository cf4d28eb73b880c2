"""Single-node simulator tests: continuous integration against closed forms,
wakeup/event handling, death and cold-start recovery, the energy ledger, and
determinism."""

import csv
import dataclasses
import io
import math

import pytest

import luxmote.simulate

from luxmote.energy import (
    ConverterModel,
    HarvesterModel,
    LoadModel,
    SupercapState,
)
from luxmote.qos import DEFAULT_TABLE, ApplicationMode, QosTable
from luxmote.simulate import (
    EnergyLedger,
    NodeConfig,
    _Phys,
    ledger_summary,
    run_node,
    write_node_log_csv,
)
from luxmote.traces import Trace
from run_compare import assert_same_run

DARK = Trace.constant(0.0)
OFFICE = Trace.constant(300.0)

# Boost-path harvest at the reference illuminance with default efficiency.
P_IN_300LUX = 0.80 * 46.5e-6 * 1.5  # 55.8 uW storage-side


def constant_load_config(p_storage_w, v0=3.6, capacitance=1.0, **kwargs):
    """Node whose only draw is a constant storage-side standby power."""
    return NodeConfig(
        supercap=SupercapState(capacitance_f=capacitance, voltage_v=v0),
        converter=ConverterModel(eta_buck=1.0, v_out_v=1.0),
        load=LoadModel(i_standby_a=p_storage_w, e_sense_tx_j=0.0),
        **kwargs,
    )


def residual_ok(log):
    assert log.energy_residual_relative <= 1e-6, ledger_summary(log)


def advance(cfg, v, alive, lux, dt, ledger=None):
    """One integrator call at constant lux with no discrete events inside:
    (voltage, seconds used, crossing), crossing None, "death" or "recovery"."""
    phys = _Phys(cfg)
    led = ledger if ledger is not None else EnergyLedger()
    return phys.advance(v, alive, phys.p_per_lux * lux, dt, led)


class TestIntegrateInterval:
    def test_darkness_standby_closed_form(self):
        cfg = constant_load_config(3e-6, v0=3.6)
        for t1 in (100.0, 3600.0, 86400.0):
            v, t, crossing = advance(cfg, 3.6, True, 0.0, t1)
            expected = math.sqrt(3.6**2 - 2.0 * 3e-6 * t1)
            assert crossing is None and t == t1
            assert v == pytest.approx(expected, rel=1e-2)
            assert v == pytest.approx(expected, rel=1e-9)  # exact path

    def test_death_crossing_time(self):
        cfg = constant_load_config(1e-4, v0=3.0)
        v, t, crossing = advance(cfg, 3.0, True, 0.0, 1e6)
        assert crossing == "death"
        assert t == pytest.approx(0.5 * (3.0**2 - 2.1**2) / 1e-4, rel=1e-9)
        assert v == pytest.approx(2.1, abs=1e-9)

    def test_balance_lux_holds_voltage(self):
        # closed-form illuminance whose boost-path harvest equals the default
        # standby draw: 300 * 3.333e-6 / 55.8e-6 = 17.92 lux
        cfg = NodeConfig()
        p_standby = 1e-6 * 3.0 / 0.9
        balance_lux = 300.0 * p_standby / P_IN_300LUX
        v, t, crossing = advance(cfg, 3.0, True, balance_lux, 86400.0)
        assert crossing is None
        assert abs(v - 3.0) <= 1e-6

    def test_dead_node_charges_through_both_regimes(self):
        # cold-start path up to 1.8 V, boost path from there to the recovery
        # threshold; crossing times follow the piecewise closed form
        cfg = NodeConfig(supercap=SupercapState(voltage_v=1.0))
        t_cold = 0.5 * (1.8**2 - 1.0**2) / (0.05 * 69.75e-6)
        t_boost = 0.5 * (2.4**2 - 1.8**2) / P_IN_300LUX
        v, t, crossing = advance(cfg, 1.0, False, 300.0, 1e6)
        assert crossing == "recovery"
        assert v == pytest.approx(2.4, abs=1e-12)
        assert t == pytest.approx(t_cold + t_boost, rel=1e-9)

    def test_dead_node_in_darkness_holds(self):
        cfg = NodeConfig(supercap=SupercapState(voltage_v=1.5))
        v, t, crossing = advance(cfg, 1.5, False, 0.0, 1e5)
        assert crossing is None and v == 1.5

    def test_charge_clamps_at_rated(self):
        cfg = NodeConfig(load=LoadModel(i_standby_a=0.0))
        v, t, crossing = advance(cfg, 5.4, True, 1000.0, 1e7)
        assert crossing is None
        assert v == 5.5

    def test_ledger_matches_energy_delta(self):
        cfg = NodeConfig()
        led = EnergyLedger()
        v, _, _ = advance(cfg, 3.0, True, 300.0, 3600.0, ledger=led)
        delta = 0.5 * (v**2 - 3.0**2)
        assert delta == pytest.approx(led.net_stored_j(), rel=1e-12)

    def test_piecewise_trace_segments(self):
        # 1 h light then 1 h dark equals the two closed forms chained
        cfg = constant_load_config(3e-6, v0=3.0)
        p_in = 69.75e-6 * 0.8
        v_mid = math.sqrt(3.0**2 + 2.0 * (p_in - 3e-6) * 3600.0)
        v_end = math.sqrt(v_mid**2 - 2.0 * 3e-6 * 3600.0)
        v, _, crossing = advance(cfg, 3.0, True, 300.0, 3600.0)
        assert crossing is None
        v, _, crossing = advance(cfg, v, True, 0.0, 3600.0)
        assert crossing is None
        assert v == pytest.approx(v_end, rel=1e-12)


class TestLeakPath:
    def test_pure_leak_is_linear(self):
        cfg = NodeConfig(
            supercap=SupercapState(voltage_v=3.0, leak_current_a=1e-5),
            load=LoadModel(i_standby_a=0.0),
        )
        v, t, crossing = advance(cfg, 3.0, True, 0.0, 10_000.0)
        assert crossing is None
        assert v == pytest.approx(3.0 - 1e-5 * 10_000.0, rel=1e-9)

    def test_leak_death_crossing_within_tolerance(self):
        cfg = NodeConfig(
            supercap=SupercapState(voltage_v=3.0, leak_current_a=1e-5),
            load=LoadModel(i_standby_a=0.0),
        )
        t_expected = (3.0 - 2.1) / 1e-5
        v, t, crossing = advance(cfg, 3.0, True, 0.0, 2e5)
        assert crossing == "death"
        assert t == pytest.approx(t_expected, rel=1e-9)
        assert v == 2.1

    def test_tiny_leak_matches_leak_free(self):
        base = constant_load_config(3e-6, v0=3.4)
        leaky = constant_load_config(3e-6, v0=3.4)
        leaky = NodeConfig(
            supercap=SupercapState(voltage_v=3.4, leak_current_a=1e-12),
            converter=base.converter,
            load=base.load,
        )
        v_free, _, _ = advance(base, 3.4, True, 0.0, 86400.0)
        v_leaky, _, _ = advance(leaky, 3.4, True, 0.0, 86400.0)
        assert v_leaky == pytest.approx(v_free, rel=1e-6)

    @pytest.mark.parametrize("i_leak, t_death", [(1e-6, 687373.7370181479), (1e-5, 133992.4938894242)])
    def test_dark_death_matches_closed_form(self, i_leak, t_death):
        # C·V·dV/dt = -P - I·V from 3.6 V to the 2.1 V cutoff, P the default
        # standby draw; t_death from a 40-digit mpmath evaluation of
        # t(V) = (C/I)(V0 - V) - (C·P/I²)·ln((P - I·V)/(P - I·V0)).
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.6, leak_current_a=i_leak))
        v, t, crossing = advance(cfg, 3.6, True, 0.0, 1e7)
        assert crossing == "death" and v == 2.1
        assert t == pytest.approx(t_death, rel=1e-9)

    @pytest.mark.parametrize(
        "i_leak, capacitance, alive, lux, v0, span",
        [
            # 6 time constants C·(p/I)/I towards p/I = 2.6 V, from above and below
            (2e-5, 1.0, True, 300.0, 3.0, 8e5),
            (2e-5, 1.0, True, 300.0, 2.2, 8e5),
            # dark: p < 0, no equilibrium above 0 V
            (1e-4, 1.0, True, 0.0, 3.6, 5000.0),
            # dead under dim light: a drain onto p/I = 1.2 mV, far below v0
            (1e-5, 0.02, False, 1.0, 1.5, 3100.0),
            # a tiny leak barely bends the leak-free charge
            (1e-10, 1.0, True, 300.0, 3.0, 3600.0),
        ],
    )
    def test_voltage_after_span_matches_mpmath(self, i_leak, capacitance, alive, lux, v0, span):
        mpmath = pytest.importorskip("mpmath")
        cfg = NodeConfig(
            supercap=SupercapState(capacitance_f=capacitance, voltage_v=v0, leak_current_a=i_leak)
        )
        phys = _Phys(cfg)
        eta = phys.eta_boost if v0 >= phys.v_boost else phys.eta_cold
        p = eta * phys.p_per_lux * lux - (phys.p_standby_storage if alive else 0.0)
        v, t, crossing = advance(cfg, v0, alive, lux, span)
        assert crossing is None and t == span
        with mpmath.workdps(50):
            c, i, pm, v0m = (mpmath.mpf(x) for x in (phys.c, i_leak, p, v0))
            v_lim = max(pm / i, 0)

            def t_minus_span(vv):
                return (c / i) * (v0m - vv) - (c * pm / i**2) * mpmath.log((pm - i * vv) / (pm - i * v0m)) - span

            # Bracketed between the start and a point 1e-30 of the way short
            # of the limit the voltage tends to.
            end = v_lim + (v0m - v_lim) / mpmath.mpf(10) ** 30
            ref = mpmath.findroot(t_minus_span, (v0m, end), solver="anderson")
        assert v == pytest.approx(float(ref), rel=1e-11)

    @pytest.mark.parametrize("i_leak", [1e-30, 1e-200])
    def test_vanishing_leak_gives_the_leak_free_result(self, i_leak):
        # At 1e-200 A, x = ln((p/I - V)/(p/I - v)) is ~1e-195 and its square
        # underflows; the closed form must not lose the quadratic term.
        def both(v0, alive, lux, dt):
            leaky = NodeConfig(supercap=SupercapState(voltage_v=v0, leak_current_a=i_leak))
            return advance(NodeConfig(), v0, alive, lux, dt), advance(leaky, v0, alive, lux, dt)

        free, leaky = both(1.0, False, 300.0, 1e6)  # cold-start path, boost path, recovery
        assert leaky[2] == free[2] == "recovery" and leaky[0] == 2.4
        assert leaky[1] == pytest.approx(free[1], rel=1e-12)
        free, leaky = both(3.0, True, 300.0, 3600.0)
        assert leaky[0] == pytest.approx(free[0], rel=1e-12)

    def test_start_on_the_equilibrium_within_rounding(self):
        # p/I can round to v while p - I·v does not round to 0, and the two
        # may even differ in sign; such a segment holds instead of dividing
        # by the zero gap to the equilibrium.
        phys = _Phys(NodeConfig(supercap=SupercapState(leak_current_a=3e-6)))
        hits = 0
        for k in range(1, 400):
            p_panel = k * 1e-7
            p = phys.eta_boost * p_panel - phys.p_standby_storage
            v = p / phys.i_leak
            if phys.v_cutoff < v < phys.v_rated and p - phys.i_leak * v != 0.0:
                hits += 1
                led = EnergyLedger()
                assert phys.advance(v, True, p_panel, 100.0, led) == (v, 100.0, None)
                assert led.leak_j == pytest.approx(phys.i_leak * v * 100.0, rel=1e-12)
        assert hits > 0

    def test_leak_ledger_conserves(self):
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.2, leak_current_a=5e-6))
        led = EnergyLedger()
        v, _, _ = advance(cfg, 3.2, True, 300.0, 7200.0, ledger=led)
        delta = 0.5 * (v**2 - 3.2**2)
        assert delta == pytest.approx(led.net_stored_j(), abs=1e-9)
        assert led.leak_j > 0

    def test_elapsed_time_never_exceeds_dt(self):
        # A dead node draining towards its leak equilibrium: the segments'
        # spans sum to one ulp past dt unless the elapsed time is clamped.
        cfg = NodeConfig(supercap=SupercapState(capacitance_f=0.01, leak_current_a=1e-6))
        dt = 304467.529541715
        v, used, crossing = advance(cfg, 2.321308076271818, False, 5.0, dt)
        assert crossing is None
        assert used == dt


class TestCrossingTime:
    """``_Phys.crossing_s``, the one time-to-threshold solve of the
    integrator and the explorer."""

    def phys(self, i_leak):
        return _Phys(NodeConfig(supercap=SupercapState(leak_current_a=i_leak)))

    def test_leak_free_is_energy_over_power(self):
        assert self.phys(0.0).crossing_s(3.6, -2e-5, 2.1) == (0.5 * 2.1**2 - 0.5 * 3.6**2) / -2e-5
        assert self.phys(0.0).crossing_s(2.1, 2e-5, 3.6) == (0.5 * 3.6**2 - 0.5 * 2.1**2) / 2e-5

    @pytest.mark.parametrize("i_leak", [0.0, 1e-6])
    def test_never_reached(self, i_leak):
        phys = self.phys(i_leak)
        assert phys.crossing_s(3.0, 1e-3, 2.1) == math.inf  # charging away from it
        assert phys.crossing_s(3.0, -1e-5, 3.6) == math.inf  # draining away from it
        assert phys.crossing_s(3.0, 0.0, 3.6) == math.inf

    def test_leak_alone_is_linear(self):
        assert self.phys(1e-6).crossing_s(3.6, 0.0, 2.1) == pytest.approx(1.5e6, rel=1e-15)

    def test_equilibrium_at_the_threshold_is_never_reached(self):
        phys = self.phys(1e-6)
        assert phys.crossing_s(3.6, 2.1e-6, 2.1) == math.inf  # p/I = 2.1 V exactly
        assert phys.crossing_s(3.6, 2.0e-6, 2.1) < math.inf
        assert phys.crossing_s(2.2, 3.0e-6, 3.0) == math.inf
        assert phys.crossing_s(2.2, 3.1e-6, 3.0) < math.inf

    @pytest.mark.parametrize("i_leak", [0.0, 1e-9, 1e-6, 1e-5])
    def test_advance_stops_at_the_crossing_time(self, i_leak):
        phys = self.phys(i_leak)
        p_panel = phys.p_per_lux * 5.0
        t = phys.crossing_s(3.6, phys.eta_boost * p_panel - phys.p_standby_storage, 2.1)
        v, used, crossing = phys.advance(3.6, True, p_panel, 1e9, EnergyLedger())
        assert (v, used, crossing) == (2.1, t, "death")


def test_run_checks_its_own_conservation(monkeypatch):
    pay = _Phys.pay

    def pay_unbooked(self, v, e_stored_j, led):
        return pay(self, v, e_stored_j, EnergyLedger())

    monkeypatch.setattr(_Phys, "pay", pay_unbooked)
    with pytest.raises(RuntimeError, match=r"node n1: conservation residual .* > 1e-6"):
        run_node(NodeConfig(node_id="n1"), OFFICE, duration_s=3600.0)


@pytest.mark.parametrize("samples", [1, 1000])
def test_dead_node_in_near_darkness_passes_its_conservation_check(samples):
    # Each step harvests ~1e-15 J, below what the stored 2 J resolves: the
    # residual is rounding of the voltage state, a fraction of an ulp per step.
    light = Trace.from_samples([(60.0 * i, 1e-9 * (1 + i % 7)) for i in range(samples)])
    cfg = NodeConfig(supercap=SupercapState(voltage_v=2.0))
    log = run_node(cfg, light, duration_s=60.0 * samples + 60.0, detail=False)
    assert log.deaths == 0 and not log.alive_at_end
    assert abs(log.energy_residual_j) <= 1e-15 * samples


class TestRunNodeBasics:
    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            run_node(NodeConfig(), OFFICE, duration_s=0.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_duration_must_be_finite(self, duration):
        with pytest.raises(ValueError, match="duration_s"):
            run_node(NodeConfig(), OFFICE, duration_s=duration)

    def test_interval_below_duration_spacing_rejected(self):
        # Past 2**53 ms a 1 ms step no longer moves the clock: the run is
        # refused instead of never ending.
        rows = tuple((s, lo, hi, *[(8 - s) * 1e-3] * 3) for s, lo, hi, *_ in DEFAULT_TABLE.rows)
        cfg = NodeConfig(table=QosTable(rows=rows), load=LoadModel(e_sense_tx_j=0.0))
        with pytest.raises(ValueError, match=r"interval 0\.001 s is below the float spacing"):
            run_node(cfg, DARK, duration_s=2.0**54 * 1e-3)

    def test_events_require_event_mode(self):
        with pytest.raises(ValueError, match="events trace"):
            run_node(NodeConfig(), OFFICE, Trace.constant(1.0), duration_s=10.0)

    @pytest.mark.parametrize("node_id", ["", ".", "..", "../escaped", "a/b", "a\\b", "nul\0"])
    def test_node_id_must_not_leave_its_directory(self, node_id):
        # The id names the node's <id>_light.csv, <id>_log.csv and <id>_ledger.json.
        with pytest.raises(ValueError, match="^node_id must not"):
            NodeConfig(node_id=node_id)

    @pytest.mark.parametrize("node_id", [7, None, b"n01"])
    def test_node_id_must_be_a_string(self, node_id):
        with pytest.raises(ValueError, match=f"^node_id must be a string, got {node_id!r}$"):
            NodeConfig(node_id=node_id)

    @pytest.mark.parametrize("node_id", ["..a", "a.b", "..."])
    def test_node_id_may_hold_dots(self, node_id):
        assert NodeConfig(node_id=node_id).node_id == node_id

    def test_single_wakeup_short_run(self):
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.5))
        log = run_node(cfg, OFFICE, duration_s=5.0)
        assert log.controller_steps == 1
        assert log.packets_emitted == 1
        assert [r.action for r in log.records] == ["wakeup"]

    def test_wakeup_schedule_follows_qos(self):
        # alternating light over a small storage element keeps the controller
        # moving through several states; every gap between consecutive wakeups
        # must equal the interval of the earlier one
        day = []
        for h in range(0, 72, 6):
            day.append((h * 3600.0, 400.0 if (h // 6) % 2 == 0 else 0.0))
        trace = Trace.from_samples(day)
        cfg = NodeConfig(
            supercap=SupercapState(capacitance_f=0.05, voltage_v=3.3, v_rated=3.6)
        )
        log = run_node(cfg, trace, duration_s=72 * 3600.0)
        wakeups = [r for r in log.records if r.action == "wakeup"]
        assert len(wakeups) > 100
        seen = set()
        for a, b in zip(wakeups, wakeups[1:]):
            gap = b.time_s - a.time_s
            expected = DEFAULT_TABLE.intervals[ApplicationMode.PERIODIC_SENSING][a.qos - 1]
            assert gap == pytest.approx(expected, rel=1e-9)
            seen.add(a.qos)
        assert len(seen) >= 2  # the controller actually moved
        residual_ok(log)

    def test_determinism(self):
        trace = Trace.from_samples([(0.0, 300.0), (1800.0, 0.0), (3600.0, 120.0)])
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.1))
        a = run_node(cfg, trace, duration_s=7200.0)
        b = run_node(cfg, trace, duration_s=7200.0)
        assert a.records == b.records
        assert ledger_summary(a) == ledger_summary(b)

    def test_detail_off_keeps_counters(self):
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.1))
        full = run_node(cfg, OFFICE, duration_s=7200.0, detail=True)
        slim = run_node(cfg, OFFICE, duration_s=7200.0, detail=False)
        assert slim.records == []
        assert_same_run(full, slim)

    def test_packet_contents(self):
        # a packet is the record of the wakeup that emitted it: time, level,
        # lux and the node's post-action storage voltage
        cfg = NodeConfig(node_id="n42", supercap=SupercapState(voltage_v=3.5))
        log = run_node(cfg, OFFICE, duration_s=30.0)
        assert log.node_id == "n42"
        rec = log.records[0]
        assert (rec.time_s, rec.action, rec.packets) == (0.0, "wakeup", 1)
        assert rec.qos == 7
        assert rec.lux == 300.0
        e_paid = 50e-6 / 0.9
        assert rec.voltage_v == pytest.approx(math.sqrt(3.5**2 - 2.0 * e_paid), rel=1e-12)

    def test_advertising_mode_pays_advertise_energy(self):
        # lit room but a dead panel: the controller holds state 7 while the
        # advertisements drain the element
        cfg = NodeConfig(
            mode=ApplicationMode.ADVERTISING,
            supercap=SupercapState(voltage_v=3.5),
            converter=ConverterModel(eta_buck=1.0),
            harvester=HarvesterModel(i_ref_a=0.0),
            load=LoadModel(i_standby_a=0.0, e_advertise_j=10e-6),
        )
        log = run_node(cfg, OFFICE, duration_s=0.95)
        # state 7 advertising: 0.1 s period -> wakeups at 0.0, 0.1, ..., 0.9
        assert log.packets_emitted == 10
        assert log.ledger.load_j == pytest.approx(10 * 10e-6, rel=1e-9)
        assert log.mean_packet_interval_s == pytest.approx(0.1)
        residual_ok(log)


class TestDarknessLifetime:
    def test_standby_only_closed_form(self):
        # 3 uW storage-side, 1 F, 3.6 V -> dies at 1,425,000 s
        cfg = constant_load_config(3e-6, v0=3.6)
        log = run_node(cfg, DARK, duration_s=1.6e6)
        deaths = [r for r in log.records if r.action == "death"]
        assert len(deaths) == 1
        assert deaths[0].time_s == pytest.approx(1_425_000.0, rel=1e-9)
        assert log.dead_seconds == pytest.approx(1.6e6 - 1_425_000.0, rel=1e-9)
        assert not log.alive_at_end
        residual_ok(log)

    def test_dies_in_finite_time_with_defaults(self):
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.6))
        log = run_node(cfg, DARK, duration_s=25 * 86400.0, detail=False)
        assert log.deaths == 1
        assert log.dead_seconds > 0
        assert not log.alive_at_end
        residual_ok(log)

    def test_qos_non_increasing_in_darkness(self):
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.6))
        log = run_node(cfg, DARK, duration_s=25 * 86400.0)
        qos_seq = [r.qos for r in log.records if r.action == "wakeup"]
        assert len(qos_seq) > 10
        assert all(b <= a for a, b in zip(qos_seq[1:], qos_seq[2:]))

    def test_voltage_non_increasing_in_darkness(self):
        # zero light and a nonzero load: the voltage can never rise
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.6))
        log = run_node(cfg, DARK, duration_s=25 * 86400.0)
        volts = [r.voltage_v for r in log.records]
        assert all(b <= a for a, b in zip(volts, volts[1:]))


class TestDeathRecovery:
    def test_dark_death_then_light_recovery(self):
        # dies in darkness, recovers after the lights come on; the recovery
        # instant follows the constant-power charge closed form from the
        # cutoff to the restart threshold
        cfg = constant_load_config(1e-4, v0=3.0)
        t_death = 0.5 * (3.0**2 - 2.1**2) / 1e-4  # 22950 s
        t_lights_on = 30_000.0
        t_recover = t_lights_on + 0.5 * (2.4**2 - 2.1**2) / P_IN_300LUX  # 42096.77 s
        trace = Trace.from_samples([(0.0, 0.0), (t_lights_on, 300.0)])
        log = run_node(cfg, trace, duration_s=43_000.0)
        deaths = [r for r in log.records if r.action == "death"]
        recoveries = [r for r in log.records if r.action == "recovery"]
        assert len(deaths) == 1 and len(recoveries) == 1
        assert deaths[0].time_s == pytest.approx(t_death, rel=1e-9)
        assert recoveries[0].time_s == pytest.approx(t_recover, rel=1e-9)
        assert recoveries[0].voltage_v == pytest.approx(2.4, abs=1e-9)
        assert log.dead_seconds == pytest.approx(t_recover - t_death, rel=1e-9)
        # wakeup scheduled immediately at recovery; the reset controller
        # re-seeds from the table at 2.4 V (state 2) and the rules move +2
        wake = next(r for r in log.records if r.action == "wakeup" and r.time_s >= t_recover)
        assert wake.time_s == pytest.approx(t_recover, rel=1e-12)
        assert wake.qos == 4
        residual_ok(log)

    def test_dead_node_in_darkness_never_recovers(self):
        cfg = NodeConfig(supercap=SupercapState(voltage_v=1.5))
        log = run_node(cfg, DARK, duration_s=1e6)
        assert log.recoveries == 0
        assert log.dead_seconds == pytest.approx(1e6)
        assert log.controller_steps == 0
        assert log.packets_emitted == 0

    def test_death_on_action_payment(self):
        # the wakeup's own energy draw crosses the cutoff: no packet emitted
        cfg = NodeConfig(
            supercap=SupercapState(capacitance_f=0.001, voltage_v=2.101),
            converter=ConverterModel(eta_buck=1.0),
            load=LoadModel(i_standby_a=0.0, e_sense_tx_j=50e-6),
            harvester=HarvesterModel(i_ref_a=0.0),
        )
        # energy above cutoff: 0.5*0.001*(2.101^2-2.1^2) = 2.1e-7 J < 50 uJ
        log = run_node(cfg, DARK, duration_s=100.0)
        assert log.packets_emitted == 0
        assert log.deaths == 1
        assert log.controller_steps == 1
        residual_ok(log)

    def test_repeated_death_recovery_cycles(self):
        # harvest below the standby draw: the node oscillates between death
        # and recovery; every completed dead phase lasts exactly one
        # cutoff-to-restart recharge
        cfg = constant_load_config(1e-4, v0=3.0)
        t_recharge = 0.5 * (2.4**2 - 2.1**2) / P_IN_300LUX
        log = run_node(cfg, OFFICE, duration_s=200_000.0, detail=False)
        assert log.deaths >= 3
        assert log.recoveries >= 3
        assert log.recoveries in (log.deaths, log.deaths - 1)
        assert log.recoveries * t_recharge <= log.dead_seconds * (1 + 1e-9)
        assert log.dead_seconds <= (log.recoveries + 1) * t_recharge
        residual_ok(log)

    def test_no_zombie_actions(self):
        cfg = constant_load_config(1e-4, v0=3.0)
        log = run_node(cfg, OFFICE, duration_s=200_000.0)
        alive = True
        for rec in log.records:
            if rec.action == "death":
                alive = False
            elif rec.action == "recovery":
                alive = True
            elif rec.action in ("wakeup", "event"):
                assert alive, f"action while dead at t={rec.time_s}"
                assert rec.packets == 0 or alive


class TestEventDetection:
    def event_config(self, v0=3.5, **load_kwargs):
        load = {"e_event_detect_j": 30e-6, "e_controller_step_j": 0.0}
        load.update(load_kwargs)
        return NodeConfig(
            mode=ApplicationMode.EVENT_DETECTION,
            supercap=SupercapState(voltage_v=v0),
            load=LoadModel(**load),
        )

    def test_single_event_notified_immediately(self):
        cfg = self.event_config()
        events = Trace.from_samples([(50.0, 1.0)])
        log = run_node(cfg, OFFICE, events, duration_s=100.0)
        assert log.events_detected == 1
        assert log.notifications_emitted == 1
        assert log.notification_latencies_s == [0.0]
        assert log.packets_emitted == 1

    def test_holdoff_suppresses_second_event(self):
        # qos 7 hold-off is 10 s: events 5 s apart -> second one suppressed
        cfg = self.event_config()
        events = Trace.from_samples([(1.0, 1.0), (6.0, 1.0)])
        log = run_node(cfg, OFFICE, events, duration_s=20.0)
        assert log.events_detected == 2
        assert log.notifications_emitted == 1
        assert log.events_unnotified == 1

    def test_suppressed_event_latency_coalesced(self):
        # suppressed events are reported by the next emitted notification
        cfg = self.event_config()
        events = Trace.from_samples([(1.0, 1.0), (6.0, 1.0), (20.0, 1.0)])
        log = run_node(cfg, OFFICE, events, duration_s=40.0)
        assert log.notifications_emitted == 2
        assert sorted(log.notification_latencies_s) == pytest.approx([0.0, 0.0, 14.0])

    def test_event_energy_paid_even_when_suppressed(self):
        cfg = self.event_config(e_event_detect_j=20e-6)
        cfg = NodeConfig(
            mode=ApplicationMode.EVENT_DETECTION,
            supercap=SupercapState(voltage_v=3.5),
            converter=ConverterModel(eta_buck=1.0),
            harvester=HarvesterModel(i_ref_a=0.0),
            load=LoadModel(i_standby_a=0.0, e_event_detect_j=20e-6, e_controller_step_j=0.0),
        )
        events = Trace.from_samples([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
        log = run_node(cfg, DARK, events, duration_s=5.0)
        assert log.events_detected == 3
        assert log.ledger.load_j == pytest.approx(3 * 20e-6, rel=1e-9)

    def test_event_on_dead_node_ignored(self):
        cfg = NodeConfig(
            mode=ApplicationMode.EVENT_DETECTION,
            supercap=SupercapState(voltage_v=1.5),
        )
        events = Trace.from_samples([(10.0, 1.0), (20.0, 1.0)])
        log = run_node(cfg, DARK, events, duration_s=100.0)
        assert log.events_detected == 0
        assert log.events_missed_dead == 2
        assert log.ledger.drain_stored_j == 0.0
        assert log.final_voltage_v == 1.5

    def test_wakeups_run_controller_without_packets(self):
        cfg = self.event_config()
        log = run_node(cfg, OFFICE, None, duration_s=100.0)
        assert log.controller_steps > 1
        assert log.packets_emitted == 0
        # wakeup cadence follows the event-mode hold-off column
        wakeups = [r for r in log.records if r.action == "wakeup"]
        gap = wakeups[1].time_s - wakeups[0].time_s
        assert gap == DEFAULT_TABLE.intervals[ApplicationMode.EVENT_DETECTION][wakeups[0].qos - 1]


class TestPinnedQos:
    @pytest.mark.parametrize("qos", [0, 8, 2.5, 7.0, True, "3"])
    def test_pinned_qos_must_be_a_state(self, qos):
        # A float state once reached the first wakeup and failed there as an
        # index; True ran as state 1.
        with pytest.raises(ValueError, match="^pinned_qos must be an integer in"):
            NodeConfig(pinned_qos=qos)

    def test_pinned_interval_and_histogram(self):
        cfg = NodeConfig(pinned_qos=3, supercap=SupercapState(voltage_v=3.5))
        log = run_node(cfg, OFFICE, duration_s=1000.0)
        wakeups = [r.time_s for r in log.records if r.action == "wakeup"]
        assert wakeups == pytest.approx([i * 240.0 for i in range(len(wakeups))])
        assert log.qos_histogram[3] == log.controller_steps

    def test_pinned_ignores_light(self):
        cfg = NodeConfig(pinned_qos=7, supercap=SupercapState(voltage_v=3.5))
        dark_log = run_node(cfg, DARK, duration_s=100.0, detail=False)
        assert dark_log.qos_histogram[7] == dark_log.controller_steps > 0


class TestLedger:
    def test_conservation_across_scenarios(self):
        scenarios = [
            (NodeConfig(), OFFICE, 86400.0),
            (NodeConfig(supercap=SupercapState(voltage_v=3.6)), DARK, 86400.0),
            (constant_load_config(1e-4, v0=3.0), OFFICE, 200_000.0),
            (
                NodeConfig(supercap=SupercapState(voltage_v=3.0, leak_current_a=2e-6)),
                OFFICE,
                7200.0,
            ),
        ]
        for cfg, trace, duration in scenarios:
            log = run_node(cfg, trace, duration_s=duration, detail=False)
            residual_ok(log)

    def test_conversion_losses_accounted(self):
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.0))
        log = run_node(cfg, OFFICE, duration_s=3600.0, detail=False)
        led = log.ledger
        assert led.harvest_panel_j > led.harvest_stored_j > 0
        assert led.drain_stored_j > led.load_j > 0
        assert led.conversion_loss_j > 0


def at(log, t):
    """(action, lux) of every record at time ``t``, in dispatch order."""
    return [(r.action, r.lux) for r in log.records if r.time_s == t]


class TestLightSampleCursor:
    """Light samples are walked by a cursor beside the event heap; at equal
    times a sample goes first, then queued events, then the wakeup."""

    def test_sample_at_a_wakeup_goes_first(self):
        cfg = NodeConfig(pinned_qos=7, supercap=SupercapState(voltage_v=3.5))
        light = Trace.from_samples([(0.0, 300.0), (20.0, 100.0)])
        log = run_node(cfg, light, duration_s=30.0)
        assert at(log, 20.0) == [("sample", 100.0), ("wakeup", 100.0)]

    def test_sample_at_a_death_crossing_goes_first(self):
        # 1 mW from 2.2 V on 1 F reaches the cutoff after 215 s, before the
        # second wakeup at 600 s; the sample sits at the crossing's own float.
        cfg = constant_load_config(1e-3, v0=2.2)
        phys = _Phys(cfg)
        t_death = phys.crossing_s(2.2, -phys.p_standby_storage, phys.v_cutoff)
        assert 200.0 < t_death < 600.0
        light = Trace.from_samples([(0.0, 0.0), (t_death, 300.0)])
        log = run_node(cfg, light, duration_s=1000.0)
        assert at(log, t_death) == [("sample", 300.0), ("death", 300.0)]

    def test_sample_at_a_recovery_crossing_goes_first(self):
        cfg = NodeConfig(supercap=SupercapState(capacitance_f=0.1, voltage_v=2.0))
        phys = _Phys(cfg)
        t_on = phys.crossing_s(2.0, phys.eta_boost * (phys.p_per_lux * 300.0), phys.v_on)
        light = Trace.from_samples([(0.0, 300.0), (t_on, 100.0)])
        log = run_node(cfg, light, duration_s=t_on + 100.0)
        assert at(log, t_on) == [("sample", 100.0), ("recovery", 100.0), ("wakeup", 100.0)]

    def test_only_samples_inside_the_run_are_recorded(self):
        cfg = NodeConfig(pinned_qos=7, supercap=SupercapState(voltage_v=3.5))
        light = Trace.from_samples([(-5.0, 50.0), (0.0, 300.0), (30.0, 100.0), (60.0, 0.0), (90.0, 7.0)])
        log = run_node(cfg, light, duration_s=60.0)
        assert [r.time_s for r in log.records if r.action == "sample"] == [30.0]
        assert at(log, 0.0) == [("wakeup", 300.0)]
        assert log.records[-1].time_s == 40.0

    def test_first_sample_after_zero_holds_from_the_start(self):
        cfg = NodeConfig(pinned_qos=7, supercap=SupercapState(voltage_v=3.5))
        light = Trace.from_samples([(50.0, 200.0), (100.0, 0.0)])
        log = run_node(cfg, light, duration_s=120.0)
        assert at(log, 0.0) == [("wakeup", 200.0)]
        assert at(log, 50.0) == [("sample", 200.0)]
        assert at(log, 100.0) == [("sample", 0.0), ("wakeup", 0.0)]


class TestNodeLogCsv:
    @pytest.mark.parametrize("node_id", ["n01", 'a,"b', "line\nbreak", " padded ", "semi;colon"])
    def test_bytes_match_csv_writer_rows(self, tmp_path, node_id):
        light = Trace.from_samples([(0.0, 300.0), (25.0, 0.0)])
        log = run_node(NodeConfig(node_id=node_id), light, duration_s=100.0)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["time_s", "node_id", "voltage_v", "lux", "qos", "action", "packets"])
        for rec in log.records:
            writer.writerow(
                [repr(rec.time_s), node_id, repr(rec.voltage_v), repr(rec.lux), rec.qos, rec.action, rec.packets]
            )
        path = tmp_path / "log.csv"
        write_node_log_csv(log, path)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize(
        "node_id, v0, light",
        [
            ("n01", 3.0, [(0.0, 300.0), (25.0, 0.0), (60.0, 120.5)]),
            ('a,"b', 3.0, [(0.0, 300.0), (25.0, 0.0)]),
            ("line\nbreak", 2.2, [(0.0, 0.0), (40.0, 300.0)]),
            ("dead", 1.0, [(0.0, 0.0)]),  # starts dead in the dark: header only
        ],
    )
    def test_streamed_log_matches_written_records(self, tmp_path, node_id, v0, light):
        cfg = NodeConfig(node_id=node_id, supercap=SupercapState(capacitance_f=0.05, voltage_v=v0))
        light = Trace.from_samples(light)
        memory = run_node(cfg, light, duration_s=100.0)
        write_node_log_csv(memory, tmp_path / "expected.csv")
        streamed = run_node(cfg, light, duration_s=100.0, log_path=tmp_path / "log.csv")
        assert streamed.records == []
        assert streamed == dataclasses.replace(memory, records=[])
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        if node_id == "dead":
            header = b"time_s,node_id,voltage_v,lux,qos,action,packets\r\n"
            assert (tmp_path / "log.csv").read_bytes() == header

    def test_log_path_needs_detail(self, tmp_path):
        with pytest.raises(ValueError, match="log_path needs detail=True"):
            run_node(NodeConfig(), OFFICE, duration_s=10.0, detail=False, log_path=tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_rejected_or_failed_run_leaves_no_log(self, tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        with pytest.raises(ValueError, match="duration_s"):
            run_node(NodeConfig(), OFFICE, duration_s=0.0, log_path=path)
        assert not path.exists()

        def failing_step(*args):
            raise RuntimeError("controller failed")

        monkeypatch.setattr(luxmote.simulate, "step", failing_step)
        with pytest.raises(RuntimeError, match="controller failed"):
            run_node(NodeConfig(), OFFICE, duration_s=10.0, log_path=path)
        assert not path.exists()
