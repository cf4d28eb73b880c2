"""Differential test of the explorer's survival time against the simulator.

A node pinned at one QoS state under constant light below half its
``min_lux`` drains to the cutoff; the explorer predicts when from the
averaged draw, the simulator pays each wakeup at once.  The first simulated
death must land within two wakeup intervals of the prediction: the payment
sawtooth runs up to one payment ahead of the average, and the death itself
waits for the wakeup or drain crossing that takes the node under the cutoff.

Draws cover leak currents 0 and 1e-10..1e-5 A, 0.01..2 F, every mode and
state, a boost threshold below or above the cutoff, and start voltages from
the cutoff up.  The start voltage is capped
so that a run has at most ``MAX_WAKEUPS`` wakeups: every run here is
dispatched wakeup by wakeup.
"""

import math
from dataclasses import replace

import pytest

from luxmote.energy import ConverterModel, SupercapState
from luxmote.explore import min_lux_for_perpetual, steady_state_power, survival_at_lux_s
from luxmote.qos import ApplicationMode
from luxmote.simulate import NodeConfig, run_node
from luxmote.traces import Trace

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LEAKS = st.one_of(st.just(0.0), st.floats(1e-10, 1e-5))
MAX_WAKEUPS = 20_000


@st.composite
def pinned_nodes(draw):
    state = draw(st.integers(1, 7))
    base = NodeConfig(
        mode=draw(st.sampled_from(list(ApplicationMode))),
        pinned_qos=state,
        supercap=SupercapState(
            capacitance_f=draw(st.floats(0.01, 2.0)), leak_current_a=draw(LEAKS)
        ),
        # Above the 2.1 V cutoff the drain ends on the cold-start path.
        converter=ConverterModel(v_boost_min=draw(st.one_of(st.just(1.8), st.floats(2.1, 5.5)))),
    )
    lux = draw(st.floats(0.0, 0.5)) * min_lux_for_perpetual(base, state)
    sc = base.supercap
    interval = base.table.intervals[base.mode][state - 1]
    # Energy the steady draw takes over MAX_WAKEUPS intervals bounds the start.
    budget = steady_state_power(base, state) * interval * MAX_WAKEUPS
    v_hi = min(sc.v_rated, math.sqrt(sc.v_cutoff**2 + 2.0 * budget / sc.capacitance_f))
    v_start = draw(st.floats(sc.v_cutoff, v_hi))
    cfg = replace(base, supercap=replace(sc, voltage_v=v_start))
    return cfg, state, lux, interval


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(pinned_nodes())
def test_survival_matches_first_simulated_death(node):
    cfg, state, lux, interval = node
    predicted = survival_at_lux_s(cfg, state, lux, v_start=cfg.supercap.voltage_v)
    assert 0.0 <= predicted < math.inf
    log = run_node(cfg, Trace.constant(lux), duration_s=predicted + 3 * interval)
    deaths = [r.time_s for r in log.records if r.action == "death"]
    assert deaths, "no death within three intervals of the predicted survival"
    assert abs(deaths[0] - predicted) <= 2 * interval
