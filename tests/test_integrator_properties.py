"""Property tests of the continuous-dynamics integrator ``_Phys.advance``,
leak-free and leaky, and of its segment solve, ``_Phys.segment``, whose
crossing time alone decides whether a span reaches the threshold.

Draws cover leak currents 0 and 1e-10..1e-4 A, light from darkness to
bright sun, live and dead nodes, and starting voltages on the thresholds and
between them: a live node from the cutoff to the rated voltage, a dead one
from 0 V to the recovery threshold.
"""

import math

import pytest

from luxmote.energy import SupercapState
from luxmote.simulate import EnergyLedger, NodeConfig, _Phys

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LEAKS = st.one_of(st.just(0.0), st.floats(1e-10, 1e-4))
LUX = st.one_of(st.just(0.0), st.floats(1e-3, 1e5))


@st.composite
def calls(draw):
    cfg = NodeConfig(
        supercap=SupercapState(
            capacitance_f=draw(st.floats(0.01, 10.0)), leak_current_a=draw(LEAKS)
        )
    )
    phys = _Phys(cfg)
    alive = draw(st.booleans())
    lo, hi = (phys.v_cutoff, phys.v_rated) if alive else (0.0, phys.v_on)
    marks = [m for m in (0.0, phys.v_boost, phys.v_cutoff, phys.v_on, phys.v_rated) if lo <= m <= hi]
    v = draw(st.one_of(st.sampled_from(marks), st.floats(lo, hi)))
    p_panel = phys.p_per_lux * draw(LUX)
    dt = draw(st.floats(1e-3, 1e7))
    return phys, v, alive, p_panel, dt


@hypothesis.settings(max_examples=400, deadline=1000)
@hypothesis.given(calls())
def test_advance_invariants(call):
    phys, v0, alive, p_panel, dt = call
    led = EnergyLedger()
    # Returning at all is the termination check: the regime loop and the
    # Newton solve are both bounded.
    v, used, crossing = phys.advance(v0, alive, p_panel, dt, led)
    assert 0.0 <= used <= dt
    assert 0.0 <= v <= phys.v_rated
    if crossing == "death":
        assert alive and v == phys.v_cutoff
    elif crossing == "recovery":
        assert not alive and v == phys.v_on
    else:
        assert crossing is None and used == dt
    # Conservation per call, relative to the larger of the energy moved and
    # the energy stored: the state is a float voltage, so stored energy is
    # resolved to a few ulps of itself.
    delta = 0.5 * phys.c * (v * v - v0 * v0)
    scale = max(led.throughput_j, 0.5 * phys.c * max(v, v0) ** 2, 1e-30)
    assert abs(delta - led.net_stored_j()) <= 1e-9 * scale
    if not phys.i_leak:
        assert led.leak_j == 0.0


@st.composite
def crossings(draw):
    """A rising or falling segment of leak-free or leaky storage, a threshold
    near or far from its start, and a span drawn freely, close to the
    crossing or close to the leak-free crossing of the start's net power."""
    leak = draw(st.one_of(st.just(0.0), st.floats(1e-7, 1e-5)))
    cfg = NodeConfig(
        supercap=SupercapState(capacitance_f=draw(st.floats(0.01, 10.0)), leak_current_a=leak)
    )
    phys = _Phys(cfg)
    v = draw(st.floats(0.0, phys.v_rated))
    # p is the leak at v plus a net power that sets the direction.
    net = draw(st.floats(1e-9, 1e-2)) * draw(st.sampled_from([1.0, -1.0]))
    p = leak * v + net
    near = v * (1.0 + draw(st.floats(-1e-3, 1e-3)))
    thr = draw(st.one_of(st.just(near), st.floats(0.0, phys.v_rated)))
    t_full = phys.segment(v, p, thr, math.inf)[0]
    # The span at which ½Cv² + net·span, the energy line of the net power at
    # v, reaches ½C·thr²: the crossing lies at or beyond it.
    t_line = 0.5 * phys.c * (thr * thr - v * v) / net
    spans = [st.floats(1e-3, 1e7)]
    for t in (t_full, t_line):
        if 0.0 < t < math.inf:
            spans.append(st.floats(0.999, 1.001).map(lambda r, t=t: t * r))
            spans.append(st.just(math.nextafter(t, 0.0)))
    return phys, v, p, thr, draw(st.one_of(*spans))


@hypothesis.settings(max_examples=400, deadline=1000)
@hypothesis.given(crossings())
# A drain to 0 V from far below the float range's square root, stopped one
# ulp short: the voltage of the Newton solve rounds to 0 V.
@hypothesis.example(
    case=(
        _Phys(NodeConfig(supercap=SupercapState(leak_current_a=9.226627627503384e-06))),
        4.47475327314149e-156,
        -0.0078125,
        0.0,
        1.28149867908647e-309,
    )
)
def test_crossing_time_decides_each_span(case):
    # The unbounded crossing time decides whether the span reaches thr.
    phys, v, p, thr, span = case
    full = phys.segment(v, p, thr, math.inf)[0]
    t, v_end = phys.segment(v, p, thr, span)
    assert (t, v_end) == (full, thr) if full <= span else t == span
    # A stretch toward thr that stops short ends on v's side of it: rounding
    # must not carry the voltage past the threshold.
    rising = p > phys.i_leak * v
    if full > span and rising == (thr > v):
        assert v_end <= thr if rising else v_end >= thr
