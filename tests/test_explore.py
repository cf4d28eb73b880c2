"""Explorer tests: steady-state power, perpetual-operation light threshold,
and the sweep frontier."""

import math
from dataclasses import replace

import pytest

from luxmote.energy import ConverterModel, HarvesterModel, LoadModel, SupercapState
from luxmote.explore import (
    SweepGrid,
    min_lux_for_perpetual,
    steady_state_power,
    survival_at_lux_s,
    sweep,
    write_frontier_csv,
)
from luxmote.qos import ApplicationMode
from luxmote.simulate import NodeConfig, _Phys, run_node
from luxmote.traces import Trace

# eta_buck = 1 so the arithmetic in the frozen expectations stays bare
IDEAL_BUCK = NodeConfig(
    converter=ConverterModel(eta_buck=1.0),
    load=LoadModel(i_standby_a=1e-6, e_sense_tx_j=50e-6),
)


class TestSteadyStatePower:
    def test_state_seven(self):
        # 50 uJ / 20 s + 3 uW = 5.5 uW
        assert steady_state_power(IDEAL_BUCK, 7) == pytest.approx(5.5e-6, rel=1e-9)

    def test_state_one(self):
        # 50 uJ / 600 s + 3 uW = 3.083 uW
        assert steady_state_power(IDEAL_BUCK, 1) == pytest.approx(3.0833333e-6, rel=1e-6)

    def test_zero_action_energy_equals_standby(self):
        cfg = NodeConfig(
            converter=ConverterModel(eta_buck=1.0),
            load=LoadModel(i_standby_a=1e-6, e_sense_tx_j=0.0),
        )
        for state in range(1, 8):
            assert steady_state_power(cfg, state) == pytest.approx(3e-6, rel=1e-12)

    def test_buck_efficiency_applied_to_action(self):
        cfg = NodeConfig()  # eta_buck = 0.9
        expected = (1e-6 * 3.0 / 0.9) + (50e-6 / 20.0) / 0.9
        assert steady_state_power(cfg, 7) == pytest.approx(expected, rel=1e-12)

    def test_strictly_increasing_in_state(self):
        values = [steady_state_power(IDEAL_BUCK, s) for s in range(1, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_event_mode_counts_controller_energy_only(self):
        cfg = NodeConfig(
            mode=ApplicationMode.EVENT_DETECTION,
            converter=ConverterModel(eta_buck=1.0),
            load=LoadModel(i_standby_a=1e-6, e_controller_step_j=5e-6),
        )
        # state 7 hold-off column: 10 s
        assert steady_state_power(cfg, 7) == pytest.approx(3e-6 + 0.5e-6, rel=1e-9)

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            steady_state_power(IDEAL_BUCK, 0)


class TestMinLux:
    def ideal(self, **load_kwargs):
        load = {"i_standby_a": 1e-6, "e_sense_tx_j": 50e-6}
        load.update(load_kwargs)
        return NodeConfig(
            converter=ConverterModel(eta_boost=1.0, eta_buck=1.0),
            load=LoadModel(**load),
        )

    def test_pure_standby(self):
        # 300 * 3/69.75 = 12.9 lux
        cfg = self.ideal(e_sense_tx_j=0.0)
        got = min_lux_for_perpetual(cfg, 1)
        assert got == pytest.approx(300.0 * 3.0 / 69.75, abs=0.1)

    def test_state_seven_sensing(self):
        # 300 * 5.5/69.75 = 23.66 lux
        cfg = self.ideal()
        got = min_lux_for_perpetual(cfg, 7)
        assert got == pytest.approx(300.0 * 5.5 / 69.75, abs=0.1)

    def test_bisection_matches_closed_form(self):
        # at the threshold the boost-path harvest exactly covers the draw
        for cfg in (NodeConfig(), self.ideal()):
            for state in range(1, 8):
                demand = steady_state_power(cfg, state)
                lux = min_lux_for_perpetual(cfg, state)
                harvest = cfg.converter.eta_boost * _Phys(cfg).p_per_lux * lux
                assert harvest == pytest.approx(demand, rel=1e-12)

    def test_zero_demand_needs_no_light(self):
        cfg = NodeConfig(load=LoadModel(i_standby_a=0.0, e_sense_tx_j=0.0))
        assert min_lux_for_perpetual(cfg, 7) == 0.0

    def test_dead_panel_needs_infinite_light(self):
        dead = NodeConfig(harvester=HarvesterModel(i_ref_a=0.0))
        assert min_lux_for_perpetual(dead, 7) == math.inf
        idle = replace(dead, load=LoadModel(i_standby_a=0.0, e_sense_tx_j=0.0))
        assert min_lux_for_perpetual(idle, 7) == 0.0

    def test_monotone_in_state(self):
        values = [min_lux_for_perpetual(NodeConfig(), s) for s in range(1, 8)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bracket_doubles_for_dim_panels(self):
        # a dim panel needs far more than its reference illuminance
        dim = NodeConfig(
            harvester=HarvesterModel(i_ref_a=1e-7),
            converter=ConverterModel(eta_boost=1.0, eta_buck=1.0),
        )
        demand = steady_state_power(dim, 7)
        closed = 300.0 * demand / (1e-7 * 1.5)
        assert closed > 3000.0  # ten times lux_ref
        assert min_lux_for_perpetual(dim, 7) == pytest.approx(closed, abs=0.1)


def leaky_oracle_node(leak_a=1e-6, v_boost_min=1.8):
    """1 F from 3.6 V pinned at state 7: the frontier's leak oracle."""
    return NodeConfig(
        pinned_qos=7,
        supercap=SupercapState(capacitance_f=1.0, voltage_v=3.6, leak_current_a=leak_a),
        converter=ConverterModel(v_boost_min=v_boost_min),
    )


class TestSurvival:
    def test_darkness_survival_state_one(self):
        # 0.5*(3.6^2-2.1^2)/3.083 uW = 1.386e6 s (about 16 days)
        got = survival_at_lux_s(IDEAL_BUCK, 1, 0.0)
        assert got == pytest.approx(4.275 / 3.0833333e-6, rel=1e-6)
        assert got == pytest.approx(1.3864865e6, rel=1e-4)

    def test_doubling_capacitance_doubles_survival(self):
        import dataclasses

        big = dataclasses.replace(
            IDEAL_BUCK, supercap=SupercapState(capacitance_f=2.0, voltage_v=3.0)
        )
        assert survival_at_lux_s(big, 4, 0.0) == pytest.approx(
            2.0 * survival_at_lux_s(IDEAL_BUCK, 4, 0.0), rel=1e-12
        )

    def test_survival_at_lux_infinite_above_threshold(self):
        cfg = NodeConfig()
        lux_star = min_lux_for_perpetual(cfg, 7)
        assert survival_at_lux_s(cfg, 7, lux_star + 1.0) == math.inf
        assert survival_at_lux_s(cfg, 7, max(lux_star - 5.0, 0.0)) < math.inf

    def test_darkness_survival_matches_survival_at_zero_lux(self):
        cfg = NodeConfig()
        rows = sweep(SweepGrid(capacitances_f=(1.0,), qos_states=(1, 3, 7)), cfg)
        for row in rows:
            assert row.darkness_survival_s == survival_at_lux_s(cfg, row.qos_state, 0.0)

    def test_leaky_darkness_survival_closed_form(self):
        # t(V) = (C/I)(V0 - V) - (C p/I^2) ln((p - I V)/(p - I V0)) at p = -P_steady
        cfg = leaky_oracle_node()
        c, i, v0, vc = 1.0, 1e-6, 3.6, 2.1
        p = -steady_state_power(cfg, 7)
        closed = (c / i) * (v0 - vc) - (c * p / i**2) * math.log((p - i * vc) / (p - i * v0))
        got = survival_at_lux_s(cfg, 7, 0.0)
        assert got == pytest.approx(closed, rel=1e-9)
        assert got == pytest.approx(474_662.78, abs=0.01)
        # the leak-free formula would give 699,545 s: 47 % optimistic
        assert survival_at_lux_s(leaky_oracle_node(0.0), 7, 0.0) == pytest.approx(699_545, abs=1.0)

    def test_leaky_darkness_survival_matches_simulated_death(self):
        cfg = leaky_oracle_node()
        interval = cfg.table.intervals[cfg.mode][7 - 1]
        expected = survival_at_lux_s(cfg, 7, 0.0)
        log = run_node(cfg, Trace.constant(0.0), duration_s=expected + 3 * interval)
        (death,) = [r.time_s for r in log.records if r.action == "death"]
        assert abs(death - expected) <= 2 * interval

    def test_leaky_min_lux_covers_leak_at_cutoff(self):
        cfg = leaky_oracle_node()
        p = steady_state_power(cfg, 7)
        closed = 300.0 * (p + 1e-6 * 2.1) / (0.8 * cfg.harvester.p_ref_w)
        assert min_lux_for_perpetual(cfg, 7) == pytest.approx(closed, rel=1e-12)
        assert min_lux_for_perpetual(cfg, 7) == pytest.approx(44.15, abs=0.005)
        assert min_lux_for_perpetual(leaky_oracle_node(0.0), 7) == pytest.approx(32.86, abs=0.005)

    def test_leaky_min_lux_covers_leak_at_the_boost_threshold(self):
        # Below v_boost_min the node harvests on the cold-start path, so the
        # boost-path equilibrium must sit at v_boost_min when that is higher.
        cfg = leaky_oracle_node(v_boost_min=3.0)
        p = steady_state_power(cfg, 7)
        closed = 300.0 * (p + 1e-6 * 3.0) / (0.8 * cfg.harvester.p_ref_w)
        assert min_lux_for_perpetual(cfg, 7) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("v_boost_min", [1.8, 3.0])
    @pytest.mark.parametrize("leak_a", [0.0, 1e-9, 1e-6, 1e-5])
    @pytest.mark.parametrize("mode", list(ApplicationMode))
    @pytest.mark.parametrize("state", [1, 4, 7])
    def test_min_lux_is_the_survival_boundary(self, v_boost_min, leak_a, mode, state):
        cfg = replace(leaky_oracle_node(leak_a, v_boost_min), mode=mode, pinned_qos=state)
        lux = min_lux_for_perpetual(cfg, state)
        assert survival_at_lux_s(cfg, state, lux * (1 + 1e-6)) == math.inf
        assert 0.0 < survival_at_lux_s(cfg, state, lux * (1 - 1e-3)) < math.inf

    @pytest.mark.parametrize("v_start, death_s", [(3.6, 1_035_660.0), (2.5, 155_400.0)])
    def test_survival_harvests_on_the_cold_path_below_the_boost_threshold(self, v_start, death_s):
        # With v_boost_min at 3.0 V the node harvests at eta_cold from 3.0 V
        # down to the 2.1 V cutoff.  A boost-path solve all the way down
        # predicted 1,399,091 s from 3.6 V, 26 % late.
        cfg = NodeConfig(
            pinned_qos=7,
            converter=ConverterModel(v_boost_min=3.0),
            supercap=SupercapState(voltage_v=v_start),
        )
        lux = 0.5 * min_lux_for_perpetual(cfg, 7)
        interval = cfg.table.intervals[cfg.mode][7 - 1]
        predicted = survival_at_lux_s(cfg, 7, lux, v_start=v_start)
        log = run_node(cfg, Trace.constant(lux), duration_s=predicted + 3 * interval)
        death = next(r.time_s for r in log.records if r.action == "death")
        assert death == pytest.approx(death_s, abs=1.0)
        assert abs(death - predicted) <= 2 * interval

    @pytest.mark.parametrize("v_start", [2.0, 9.0, math.nan, -math.inf, math.inf])
    def test_start_voltage_outside_cutoff_to_rated_rejected(self, v_start):
        with pytest.raises(ValueError, match="v_start"):
            survival_at_lux_s(NodeConfig(), 7, 0.0, v_start=v_start)

    def test_start_voltage_bounds_accepted(self):
        cfg = NodeConfig()
        assert survival_at_lux_s(cfg, 7, 0.0, v_start=2.1) == 0.0
        assert survival_at_lux_s(cfg, 7, 0.0, v_start=5.5) > survival_at_lux_s(cfg, 7, 0.0)

    def test_default_start_is_capped_at_the_rated_voltage(self):
        low = NodeConfig(supercap=SupercapState(v_rated=3.0, voltage_v=2.5))
        assert low.table.v_max == 3.6
        assert survival_at_lux_s(low, 7, 0.0) == survival_at_lux_s(low, 7, 0.0, v_start=3.0)

    @pytest.mark.parametrize("lux", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_lux_rejected(self, lux):
        with pytest.raises(ValueError, match="lux"):
            survival_at_lux_s(NodeConfig(), 7, lux)


class TestSweep:
    def test_row_per_grid_point(self):
        grid = SweepGrid(capacitances_f=(0.5, 1.0), qos_states=(1, 4, 7))
        rows = sweep(grid)
        assert len(rows) == 6
        assert {(r.capacitance_f, r.qos_state) for r in rows} == {
            (c, s) for c in (0.5, 1.0) for s in (1, 4, 7)
        }

    def test_empty_lux_list_still_fills_base_columns(self):
        grid = SweepGrid(capacitances_f=(1.0,), qos_states=(1,), lux_levels=())
        (row,) = sweep(grid)
        assert row.min_lux > 0
        assert row.darkness_survival_s > 0
        assert row.survival_at_lux_s == ()

    def test_rows_independent_of_grid_order(self):
        forward = sweep(SweepGrid(capacitances_f=(0.5, 2.0), qos_states=(1, 7)))
        backward = sweep(SweepGrid(capacitances_f=(2.0, 0.5), qos_states=(7, 1)))
        assert {(r.capacitance_f, r.qos_state, r.min_lux, r.darkness_survival_s) for r in forward} == {
            (r.capacitance_f, r.qos_state, r.min_lux, r.darkness_survival_s) for r in backward
        }

    def test_single_point_grid(self):
        rows = sweep(SweepGrid(capacitances_f=(1.0,), qos_states=(7,)))
        assert len(rows) == 1

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            SweepGrid(capacitances_f=())
        with pytest.raises(ValueError):
            SweepGrid(qos_states=(0,))
        with pytest.raises(ValueError, match=r"qos states must be in \[1, 7\]"):
            SweepGrid(qos_states=(10**400,))
        with pytest.raises(ValueError):
            SweepGrid(capacitances_f=(-1.0,))

    @pytest.mark.parametrize("state", [7.9, 6.5, math.nan, math.inf])
    def test_fractional_states_rejected(self, state):
        with pytest.raises(ValueError, match=rf"^qos_states\[1\] must be an integer, got {state}$"):
            SweepGrid(qos_states=(1, state))

    def test_whole_float_states_rejected(self):
        # as in a JSON grid: a state is an integer, and 7.0 is a float
        with pytest.raises(ValueError, match=r"^qos_states\[0\] must be an integer, got 7.0$"):
            SweepGrid(qos_states=(7.0, 1))

    @pytest.mark.parametrize("levels", [(10.0, 10.000001), (25.0, 25.0)])
    def test_levels_sharing_a_column_rejected(self, levels):
        # frontier columns are named with {lux:g}, so these would collide
        with pytest.raises(ValueError, match="lux_levels: .* both name the column"):
            SweepGrid(lux_levels=levels)

    def test_csv_format(self, tmp_path):
        grid = SweepGrid(capacitances_f=(1.0,), qos_states=(1, 7), lux_levels=(10.0,))
        rows = sweep(grid)
        path = tmp_path / "frontier.csv"
        write_frontier_csv(rows, path, lux_levels=grid.lux_levels)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "capacitance_f,qos_state,mode,min_lux,darkness_survival_s,survival_at_10lux_s"
        )
        assert len(lines) == 3

    @pytest.mark.parametrize("levels", [(), (10.0,), (10.0, 20.0, 30.0)])
    def test_csv_rejects_rows_of_another_grid(self, tmp_path, levels):
        # Rows swept with two lux levels would put 7 cells under a header
        # with another number of columns.
        rows = sweep(SweepGrid(capacitances_f=(1.0,), qos_states=(1, 7), lux_levels=(5.0, 50.0)))
        path = tmp_path / "frontier.csv"
        with pytest.raises(ValueError, match=r"row 0 \(capacitance_f=1.0, qos_state=1\) has 2 "):
            write_frontier_csv(rows, path, lux_levels=levels)
        assert not path.exists()

    def test_mode_flows_into_rows(self):
        grid = SweepGrid(
            capacitances_f=(1.0,), qos_states=(7,), mode=ApplicationMode.ADVERTISING
        )
        (row,) = sweep(grid)
        assert row.mode == "advertising"
        # advertising at state 7 fires every 0.1 s: far hungrier than sensing
        sensing = sweep(SweepGrid(capacitances_f=(1.0,), qos_states=(7,)))[0]
        assert row.min_lux > sensing.min_lux
