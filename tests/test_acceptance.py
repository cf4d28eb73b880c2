"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criteria:
 1. the shipped service-level table matches the published one cell for cell
 2. controller equals the straight-line reference interpreter on 1,000
    random traces of length 200 (zero mismatches)
 3. darkness lifetime matches the closed form 0.5*C*(V0^2-Vcut^2)/P to 1%
 4. energy ledger conserves to 1e-6 relative on every simulation run
 5. 15 nodes at the panel's 300 lux reference point run 15 days with 100%
    uptime and populated, top-heavy QoS histograms, in under a minute
 6. in darkness the QoS sequence never increases after the first step and
    the node dies in finite time
 7. 100,000 fuzzed controller steps all stay within states 1..7
 8. explorer and simulator agree: +/-10% around the perpetual-operation
    light threshold separates survival from death (controller pinned), and
    the explorer's threshold matches the closed-form inversion to 0.1 lux
 9. hard-range delivery: 30 m always delivered, 31 m never
"""

import time
from pathlib import Path

import numpy as np
import pytest

from luxmote.config import load_deployment_config
from luxmote.deployment import DeploymentConfig, run_deployment
from luxmote.energy import ConverterModel, LoadModel, SupercapState
from luxmote.explore import min_lux_for_perpetual, steady_state_power, survival_at_lux_s
from luxmote.qos import DEFAULT_TABLE, ApplicationMode, ControllerState, step
from luxmote.simulate import NodeConfig, run_node
from luxmote.traces import Trace

from reference_controller import reference_qos_sequence

DAY = 86400.0
REPO = Path(__file__).resolve().parents[1]


def report(number, description):
    print(f"\nACCEPTANCE {number} PASS: {description}")


class TestCriterion1TableFidelity:
    PUBLISHED = [
        (7, 3.4, 3.6, 20.0, 10.0, 0.1),
        (6, 3.2, 3.4, 40.0, 20.0, 0.2),
        (5, 3.0, 3.2, 60.0, 30.0, 0.4),
        (4, 2.8, 3.0, 120.0, 60.0, 0.64),
        (3, 2.6, 2.8, 240.0, 120.0, 0.9),
        (2, 2.4, 2.6, 300.0, 300.0, 2.0),
        (1, 2.1, 2.4, 600.0, 600.0, 5.0),
    ]

    def test_table_cells(self):
        t0 = time.perf_counter()
        by_state = {row.state: row for row in DEFAULT_TABLE.rows}
        assert len(by_state) == 7
        for state, v_lo, v_hi, sense, pir, adv in self.PUBLISHED:
            row = by_state[state]
            assert (row.v_lo, row.v_hi) == (v_lo, v_hi), f"state {state} bounds"
            assert row.sense_interval_s == sense, f"state {state} sensing column"
            assert row.pir_interval_s == pir, f"state {state} event column"
            assert row.adv_interval_s == adv, f"state {state} advertising column"
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        report(1, f"default table reproduces all 7x3 cells and bounds ({elapsed:.3f}s)")


class TestCriterion2OracleEquivalence:
    def test_thousand_random_traces(self):
        t0 = time.perf_counter()
        rows = [tuple(r) for r in DEFAULT_TABLE.rows]
        rng = np.random.default_rng(20180708)
        mismatches = 0
        for _ in range(1000):
            n = 200
            volts = rng.uniform(2.1, 3.6, n)
            lux = rng.uniform(0.0, 1000.0, n)
            lux[rng.random(n) < 0.25] = 0.0  # exercise the light==0 branch
            samples = list(zip(volts.tolist(), lux.tolist()))
            expected = reference_qos_sequence(samples, rows)
            ctrl = ControllerState()
            for (volt, light), want in zip(samples, expected):
                ctrl, qos = step(ctrl, volt, light, DEFAULT_TABLE)
                if qos != want:
                    mismatches += 1
        elapsed = time.perf_counter() - t0
        assert mismatches == 0
        assert elapsed < 5.0
        report(2, f"0 mismatches on 1000x200 random traces ({elapsed:.2f}s)")


class TestCriterion3DarknessLifetime:
    def test_closed_form_death_time(self):
        t0 = time.perf_counter()
        # 100 uW storage-side: i_standby * v_out / eta_buck = 1e-4 W
        cfg = NodeConfig(
            supercap=SupercapState(capacitance_f=1.0, voltage_v=3.6),
            converter=ConverterModel(eta_buck=1.0, v_out_v=1.0),
            load=LoadModel(i_standby_a=1e-4, e_sense_tx_j=0.0),
        )
        log = run_node(cfg, Trace.constant(0.0), duration_s=50_000.0)
        deaths = [r for r in log.records if r.action == "death"]
        assert len(deaths) == 1
        expected = 0.5 * 1.0 * (3.6**2 - 2.1**2) / 1e-4  # 42750 s
        assert deaths[0].time_s == pytest.approx(expected, rel=0.01)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report(
            3,
            f"simulated death at {deaths[0].time_s:.1f}s vs 42750s closed form "
            f"({elapsed:.2f}s)",
        )


class TestCriterion4LedgerConservation:
    RUNS = [
        ("steady office light", NodeConfig(), Trace.constant(300.0), None, DAY),
        (
            "darkness to death",
            NodeConfig(supercap=SupercapState(voltage_v=3.6)),
            Trace.constant(0.0),
            None,
            25 * DAY,
        ),
        (
            "death/recovery cycling",
            NodeConfig(
                supercap=SupercapState(voltage_v=3.0),
                converter=ConverterModel(eta_buck=1.0, v_out_v=1.0),
                load=LoadModel(i_standby_a=1e-4, e_sense_tx_j=0.0),
            ),
            Trace.constant(300.0),
            None,
            200_000.0,
        ),
        (
            "leaky element",
            NodeConfig(supercap=SupercapState(voltage_v=3.2, leak_current_a=2e-6)),
            Trace.constant(250.0),
            None,
            DAY,
        ),
        (
            "event detection",
            NodeConfig(
                mode=ApplicationMode.EVENT_DETECTION,
                supercap=SupercapState(voltage_v=3.4),
            ),
            Trace.constant(300.0),
            Trace.from_samples([(float(t), 1.0) for t in range(10, 4000, 37)]),
            6000.0,
        ),
        (
            "advertising burst",
            NodeConfig(
                mode=ApplicationMode.ADVERTISING,
                supercap=SupercapState(voltage_v=3.5),
            ),
            Trace.constant(400.0),
            None,
            3600.0,
        ),
    ]

    def test_residual_relative_on_every_run(self):
        worst = 0.0
        for name, cfg, light, events, duration in self.RUNS:
            log = run_node(cfg, light, events, duration_s=duration, detail=False)
            assert log.energy_residual_relative <= 1e-6, name
            worst = max(worst, log.energy_residual_relative)
        report(4, f"ledger residual <= 1e-6 on {len(self.RUNS)} runs (worst {worst:.2e})")


class TestCriterion5PerpetualOperation:
    def test_fifteen_nodes_fifteen_days(self):
        config = load_deployment_config(REPO / "configs" / "deployment_15node.json")
        assert len(config.nodes) == 15
        traces = {n.node_id: Trace.constant(300.0) for n in config.nodes}
        t0 = time.perf_counter()
        result = run_deployment(
            config, traces, duration_s=15 * DAY, detail=False
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"wall clock {elapsed:.1f}s"
        for node_id, log in result.logs.items():
            assert log.uptime_fraction == 1.0, node_id
            assert log.dead_seconds == 0.0, node_id
            hist = log.qos_histogram
            assert sum(hist[1:]) == log.controller_steps > 0, node_id
            populated = [s for s in range(1, 8) if hist[s] > 0]
            assert len(populated) >= 2, f"{node_id} histogram degenerate: {hist}"
            assert max(range(1, 8), key=lambda s: hist[s]) == 7, node_id
        report(
            5,
            f"15 nodes x 15 days at 300 lux: all 100% uptime, 0 dead seconds, "
            f"histograms populated ({elapsed:.1f}s wall)",
        )


class TestCriterion6DarknessMonotonicity:
    def test_qos_never_increases_and_node_dies(self):
        cfg = NodeConfig(supercap=SupercapState(voltage_v=3.6))
        log = run_node(cfg, Trace.constant(0.0), duration_s=25 * DAY)
        qos_seq = [r.qos for r in log.records if r.action == "wakeup"]
        assert len(qos_seq) > 10
        after_first = qos_seq[1:]
        assert all(b <= a for a, b in zip(after_first, after_first[1:]))
        assert log.deaths == 1
        assert not log.alive_at_end
        assert log.dead_seconds > 0
        death_time = next(r.time_s for r in log.records if r.action == "death")
        report(
            6,
            f"dark QoS sequence non-increasing over {len(qos_seq)} wakeups; "
            f"death at {death_time / DAY:.2f} days",
        )


class TestCriterion7QosRange:
    def test_hundred_thousand_fuzzed_steps(self):
        rng = np.random.default_rng(31337)
        ctrl = ControllerState()
        low, high = 8, 0
        for i in range(100_000):
            volt = rng.uniform(2.1, 3.6)
            light = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 2000.0)
            if rng.random() < 0.01:
                ctrl = ControllerState()  # occasional cold restart
            ctrl, qos = step(ctrl, volt, light, DEFAULT_TABLE)
            assert 1 <= qos <= 7, f"step {i}: qos {qos}"
            low, high = min(low, qos), max(high, qos)
        assert low == 1 and high == 7  # the fuzz actually reached both rails
        report(7, "100000 fuzzed steps stayed within states 1..7")


class TestCriterion8ExplorerSimulatorConsistency:
    @pytest.mark.parametrize("state", [1, 7])
    def test_ten_percent_margin_separates_survival(self, state):
        cfg = NodeConfig(pinned_qos=state)
        lux_star = min_lux_for_perpetual(cfg, state)

        # the explorer's threshold agrees with the closed-form inversion
        closed = (
            cfg.harvester.lux_ref
            * steady_state_power(cfg, state)
            / (cfg.converter.eta_boost * cfg.harvester.p_ref_w)
        )
        assert abs(lux_star - closed) <= 0.1

        surplus = run_node(
            cfg,
            Trace.constant(1.1 * closed),
            duration_s=15 * DAY,
            detail=False,
        )
        assert surplus.dead_seconds == 0.0
        assert surplus.alive_at_end

        deficit_lux = 0.9 * closed
        horizon = 1.3 * survival_at_lux_s(cfg, state, deficit_lux, v_start=3.0)
        starved = run_node(
            cfg,
            Trace.constant(deficit_lux),
            duration_s=horizon,
            detail=False,
        )
        assert starved.deaths >= 1
        assert starved.dead_seconds > 0
        report(
            8,
            f"state {state}: min lux {lux_star:.1f}; +10% alive 15 days, "
            f"-10% dead within {horizon / DAY:.0f} days",
        )


class TestCriterion9RangeModel:
    def test_boundary_inclusive_hard_range(self):
        config = DeploymentConfig(
            nodes=(
                NodeConfig(node_id="edge", position_m=(30.0, 0.0)),
                NodeConfig(node_id="beyond", position_m=(31.0, 0.0)),
            )
        )
        traces = {"edge": Trace.constant(300.0), "beyond": Trace.constant(300.0)}
        result = run_deployment(config, traces, duration_s=600.0)
        edge = result.nodes["edge"]
        beyond = result.nodes["beyond"]
        edge_emitted = result.logs["edge"].packets_emitted
        beyond_emitted = result.logs["beyond"].packets_emitted
        assert edge_emitted > 0
        assert edge.packets_delivered == edge_emitted
        assert beyond_emitted > 0
        assert beyond.packets_delivered == 0
        report(
            9,
            f"30 m: {edge.packets_delivered}/{edge_emitted} delivered; "
            f"31 m: 0/{beyond_emitted}",
        )
