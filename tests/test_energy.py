"""Unit and property tests for the physical energy models."""

import math
import re

import numpy as np
import pytest

from luxmote.energy import (
    ConverterModel,
    HarvesterModel,
    LoadModel,
    SupercapState,
    standby_power,
)
from luxmote.deployment import DeploymentConfig
from luxmote.explore import SweepGrid
from luxmote.simulate import EnergyLedger, NodeConfig, _Phys


IDEAL = ConverterModel(eta_boost=1.0, eta_cold=0.05, eta_buck=1.0)


def phys(conv=IDEAL, capacitance_f=1.0):
    """The simulator's physics for an element with no standby load."""
    return _Phys(
        NodeConfig(
            supercap=SupercapState(capacitance_f=capacitance_f),
            converter=conv,
            load=LoadModel(i_standby_a=0.0),
        )
    )


def charge_v(v0, p_panel_w, dt_s, conv=IDEAL, capacitance_f=1.0):
    """Voltage after ``dt_s`` seconds of constant panel power into an element
    with no load, through the simulator's integrator."""
    v, _, crossing = phys(conv, capacitance_f).advance(v0, True, p_panel_w, dt_s, EnergyLedger())
    assert crossing is None
    return v


class TestSupercapState:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacitance_f": 0.0},
            {"capacitance_f": -1.0},
            {"voltage_v": -0.1},
            {"voltage_v": 5.6},
            {"v_cutoff": 5.5},
            {"v_cutoff": -0.5},
            {"leak_current_a": -1e-9},
        ],
    )
    def test_invariant_violations_raise(self, kwargs):
        with pytest.raises(ValueError):
            SupercapState(**kwargs)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: SupercapState(capacitance_f=NAN), "capacitance_f"),
        (lambda: SupercapState(voltage_v=NAN), "voltage_v"),
        (lambda: SupercapState(v_rated=INF), "v_rated"),
        (lambda: SupercapState(leak_current_a=NAN), "leak_current_a"),
        (lambda: HarvesterModel(i_ref_a=NAN), "i_ref_a"),
        (lambda: HarvesterModel(lux_ref=INF), "lux_ref"),
        (lambda: ConverterModel(v_boost_min=NAN), "v_boost_min"),
        (lambda: ConverterModel(v_out_v=-INF), "v_out_v"),
        (lambda: LoadModel(i_standby_a=NAN), "i_standby_a"),
        (lambda: LoadModel(e_controller_step_j=INF), "e_controller_step_j"),
        (lambda: NodeConfig(v_on=NAN), "v_on"),
        (lambda: NodeConfig(position_m=(0.0, INF)), r"position_m\[1\]"),
        (lambda: DeploymentConfig(radio_range_m=NAN), "radio_range_m"),
        (lambda: SweepGrid(lux_levels=(10.0, NAN)), r"lux_levels\[1\]"),
    ],
)
def test_nonfinite_field_rejected_by_name(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SupercapState(capacitance_f=True), "capacitance_f must be a number, got True"),
        (lambda: SupercapState(capacitance_f="1"), "capacitance_f must be a number, got '1'"),
        (
            lambda: SupercapState(capacitance_f=10**400),
            "capacitance_f must be a finite number, got 1.000e+400",
        ),
        (lambda: DeploymentConfig(radio_range_m=True), "radio_range_m must be a number, got True"),
        (lambda: NodeConfig(v_on="2.4"), "v_on must be a number, got '2.4'"),
        (
            lambda: NodeConfig(mode="advertising"),
            "mode must be an ApplicationMode, got 'advertising'",
        ),
        (lambda: NodeConfig(supercap=None), "supercap must be a SupercapState, got None"),
        (lambda: NodeConfig(position_m=("a", 1)), "position_m[0] must be a number, got 'a'"),
        (lambda: NodeConfig(node_id=7), "node_id must be a string, got 7"),
        (lambda: LoadModel(e_sense_tx_j=None), "e_sense_tx_j must be a number, got None"),
        (lambda: SweepGrid(qos_states=(True,)), "qos_states[0] must be an integer, got True"),
        (lambda: SweepGrid(capacitances_f=1.0), "capacitances_f must be a tuple, got 1.0"),
        (
            lambda: DeploymentConfig(nodes=(NodeConfig(), "n2")),
            "nodes[1] must be a NodeConfig, got 'n2'",
        ),
    ],
)
def test_mistyped_field_rejected_by_name(build, message):
    # Once accepted (True as 1 F, a mode name) or failed in a comparison
    # naming no field; the JSON path alone checked types.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_checked_fields_are_stored_as_declared():
    cfg = NodeConfig(v_on=3, position_m=[1, 2])
    assert cfg.v_on == 3.0 and type(cfg.v_on) is float
    assert cfg.position_m == (1.0, 2.0) and all(type(x) is float for x in cfg.position_m)
    assert SweepGrid(capacitances_f=[1], lux_levels=[10]).capacitances_f == (1.0,)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HarvesterModel(i_ref_a=-1e-6), "^i_ref_a and v_ref_v must be >= 0"),
        (lambda: HarvesterModel(v_ref_v=-1.0), "^i_ref_a and v_ref_v must be >= 0"),
        (lambda: HarvesterModel(lux_ref=0.0), "^lux_ref must be > 0"),
        (lambda: ConverterModel(v_boost_min=-0.1), "^v_boost_min must be >= 0"),
        (lambda: ConverterModel(v_out_v=0.0), "^v_out_v must be > 0"),
        (lambda: NodeConfig(supercap=SupercapState(v_cutoff=2.0)), "^v_cutoff 2.0 below the table floor"),
        (
            lambda: NodeConfig(supercap=SupercapState(capacitance_f=0.05, voltage_v=2.2, v_rated=2.3)),
            "^v_on 2.4 above v_rated 2.3",
        ),
        (lambda: NodeConfig(position_m=(1.0, 2.0, 3.0)), r"^position_m must hold 2 entries, got \(1.0, 2.0, 3.0\)$"),
        (lambda: DeploymentConfig(base_station_m=(0.0,)), r"^base_station_m must hold 2 entries, got \(0.0,\)$"),
        (lambda: SweepGrid(lux_levels=(10.0, -1.0)), "^lux levels must be >= 0"),
    ],
)
def test_out_of_range_field_rejected_by_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestHarvester:
    """The panel power is the simulator's ``p_per_lux * lux``; negative lux
    is rejected by ``Trace`` and by ``explore.survival_at_lux_s``."""

    def test_reference_point(self):
        # 46.5 uA at 1.5 V under 300 lux
        assert phys().p_per_lux * 300.0 == pytest.approx(69.75e-6)

    def test_zero_light(self):
        assert phys().p_per_lux * 0.0 == 0.0

    def test_linear_scaling(self):
        assert phys().p_per_lux * 600.0 == pytest.approx(139.5e-6)
        assert phys().p_per_lux * 150.0 == pytest.approx(34.875e-6)

    def test_monotone_in_lux(self):
        p_per_lux = phys().p_per_lux
        lux = np.linspace(0, 2000, 50)
        powers = [p_per_lux * x for x in lux]
        assert all(b >= a for a, b in zip(powers, powers[1:]))
        assert all(p >= 0 for p in powers)


class TestConverter:
    def test_input_efficiency_step(self):
        # 10 mJ of panel output, too little to lift 1.79 V to 1.8 V; the
        # boundary is inclusive on the efficient side
        conv = ConverterModel()
        for v0, eta in ((2.5, 0.80), (1.79, 0.05), (1.8, 0.80)):
            gained = 0.5 * (charge_v(v0, 1e-3, 10.0, conv) ** 2 - v0**2)
            assert gained == pytest.approx(eta * 1e-2, rel=1e-9), v0

    def test_cold_start_strictly_worse(self):
        with pytest.raises(ValueError):
            ConverterModel(eta_boost=0.5, eta_cold=0.5)
        with pytest.raises(ValueError):
            ConverterModel(eta_boost=0.3, eta_cold=0.4)

    @pytest.mark.parametrize("name", ["eta_boost", "eta_cold", "eta_buck"])
    def test_efficiency_bounds(self, name):
        with pytest.raises(ValueError):
            ConverterModel(**{name: 0.0})
        with pytest.raises(ValueError):
            ConverterModel(**{name: 1.5})


class TestCharge:
    def test_closed_form(self):
        assert charge_v(2.0, 1e-3, 1000.0) == pytest.approx(math.sqrt(6.0), rel=1e-12)

    def test_zero_power_is_identity(self):
        assert charge_v(3.3, 0.0, 12345.0) == 3.3

    def test_clamps_at_rated(self):
        assert charge_v(5.49, 1.0, 1000.0) == 5.5

    def test_uses_efficiency_at_start_voltage(self):
        # cold-start below 1.8 V, boost from 1.8 V on, for stretches that
        # stay in one regime
        conv = ConverterModel()
        gained_cold = 0.5 * (charge_v(1.0, 1e-3, 10.0, conv) ** 2 - 1.0**2)
        gained_warm = 0.5 * (charge_v(1.8, 1e-3, 10.0, conv) ** 2 - 1.8**2)
        assert gained_cold == pytest.approx(0.05 * 1e-3 * 10.0)
        assert gained_warm == pytest.approx(0.80 * 1e-3 * 10.0)


class TestPay:
    """``_Phys.pay`` draws a storage-side energy at once and books it."""

    def test_closed_form(self):
        # 0.5*C*(3.6^2 - 3.0^2) = 1.98 J
        led = EnergyLedger()
        assert phys().pay(3.6, 1.98, led) == pytest.approx(3.0, rel=1e-12)
        assert led.drain_stored_j == pytest.approx(1.98, rel=1e-12)

    def test_death_below_cutoff(self):
        p = phys()
        assert p.pay(2.11, 1.0, EnergyLedger()) < p.v_cutoff

    def test_zero_draw_is_identity(self):
        led = EnergyLedger()
        assert phys().pay(2.8, 0.0, led) == 2.8
        assert led == EnergyLedger()

    def test_books_drain_and_load(self):
        led = EnergyLedger()
        v = phys(ConverterModel(eta_buck=0.5)).pay(3.0, 1.0, led)
        assert v == pytest.approx(math.sqrt(9.0 - 2.0), rel=1e-12)
        assert led.drain_stored_j == pytest.approx(1.0, rel=1e-12)
        assert led.load_j == 0.5 * led.drain_stored_j
        assert led.harvest_stored_j == led.leak_j == 0.0

    def test_overdraw_drains_to_zero(self):
        # only the 0.3125 J stored is drained, not the 100 J asked for
        led = EnergyLedger()
        assert phys(capacitance_f=0.1).pay(2.5, 100.0, led) == 0.0
        assert led.drain_stored_j == 0.5 * 0.1 * 2.5**2
        assert led.load_j == led.drain_stored_j


class TestStandbyPower:
    def test_examples(self):
        load = LoadModel()
        assert standby_power(load, IDEAL) == pytest.approx(3e-6)
        assert standby_power(load, ConverterModel(eta_buck=0.9)) == pytest.approx(
            3.3333333e-6, rel=1e-6
        )
        assert standby_power(LoadModel(i_standby_a=0.0), IDEAL) == 0.0


class TestProperties:
    def test_charge_pay_roundtrip(self):
        # equal storage-side energy through ideal converters returns the
        # initial voltage to 1e-9 relative
        rng = np.random.default_rng(42)
        for _ in range(200):
            c = rng.uniform(0.1, 10.0)
            v0 = rng.uniform(2.2, 5.0)
            p = rng.uniform(1e-6, 1e-3)
            dt = rng.uniform(1.0, 1000.0)
            up = charge_v(v0, p, dt, capacitance_f=c)
            if up >= 5.5:
                continue  # clamped: energy discarded, not reversible
            back = phys(capacitance_f=c).pay(up, p * dt, EnergyLedger())
            assert back == pytest.approx(v0, rel=1e-9)

    def test_clamp_safety_fuzz(self):
        rng = np.random.default_rng(7)
        conv = ConverterModel()
        for _ in range(500):
            cap = SupercapState(capacitance_f=rng.uniform(0.05, 5.0), voltage_v=rng.uniform(0.0, 5.5))
            charged = charge_v(
                cap.voltage_v, rng.uniform(0, 1e-2), rng.uniform(0.1, 1e4), conv, cap.capacitance_f
            )
            assert 0.0 <= charged <= cap.v_rated
            drained = phys(conv, cap.capacitance_f).pay(
                cap.voltage_v, rng.uniform(0, 10.0) / conv.eta_buck, EnergyLedger()
            )
            assert 0.0 <= drained <= cap.v_rated

    def test_load_model_rejects_negative(self):
        with pytest.raises(ValueError):
            LoadModel(e_sense_tx_j=-1e-9)
        with pytest.raises(ValueError):
            LoadModel(i_standby_a=-1e-9)
