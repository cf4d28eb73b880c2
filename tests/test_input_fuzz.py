"""Fuzzing at the input boundary.

Any JSON value given to the three ``parse_*`` functions validates or raises
``ConfigError``; any model built with a mistyped field raises a ValueError
that names the field; and any node config that validates runs for one
simulated hour on a one-sample light trace, within a work bound computed
from its inputs, or raises ValueError.
"""

import contextlib
import math
import typing
from dataclasses import fields
from unittest import mock

import pytest

from luxmote.config import ConfigError, parse_deployment_config, parse_node_config, parse_sweep_grid
from luxmote.deployment import DeploymentConfig
from luxmote.energy import ConverterModel, HarvesterModel, LoadModel, SupercapState
from luxmote.explore import SweepGrid
from luxmote.qos import DEFAULT_TABLE, MIN_INTERVAL_S, QosTable
from luxmote.simulate import NodeConfig, _Phys, run_node
from luxmote.traces import Trace

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SECTIONS = {
    "supercap": SupercapState,
    "harvester": HarvesterModel,
    "converter": ConverterModel,
    "load": LoadModel,
}
MODELS = (*SECTIONS.values(), NodeConfig, DeploymentConfig, SweepGrid, QosTable)
KNOWN_KEYS = sorted(
    {f.name for model in MODELS for f in fields(model)} | {"node", "nodes", "table"}
)
MODES = ["periodic_sensing", "event_detection", "advertising"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.integers(),
    st.integers(10**300, 10**400).map(lambda n: n * (-1) ** (n % 2)),
    st.floats(),
    st.floats(0.0, 10.0),
    st.sampled_from(MODES + ["n01", "", "a/b", "."]),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=7)
    | st.dictionaries(st.sampled_from(KNOWN_KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    parse=st.sampled_from([parse_node_config, parse_deployment_config, parse_sweep_grid]),
    obj=json_values,
)
def test_any_json_value_validates_or_raises_config_error(parse, obj):
    try:
        parse(obj)
    except ConfigError:
        pass


def mistyped(tp):
    """Values that break the type ``tp``, each on its own."""
    if tp is float:
        return st.sampled_from([True, False, "1", None, [1.0], {}, math.nan, -math.inf, 10**400])
    if tp is int:
        return st.sampled_from([True, 7.0, 2.5, "7", None, [7]])
    if tp is str:
        return st.sampled_from([7, None, True, b"n01", ["n01"]])
    args = typing.get_args(tp)
    if type(None) in args:
        return mistyped(args[0]).filter(lambda value: value is not None)
    if typing.get_origin(tp) is tuple:
        entry = args[0] if args[-1] is Ellipsis else args[1]
        # a scalar, a string, or a well-shaped tuple with one bad entry
        good = {float: 1.0, int: 1}.get(entry, None)
        size = 3 if args[-1] is Ellipsis else len(args)
        return st.one_of(
            st.sampled_from([1.0, "ab", None]),
            mistyped(entry).map(lambda bad: (good,) * (size - 1) + (bad,)),
        )
    return st.sampled_from([None, "x", 1.0, {}, object()])


FIELDS = [
    (model, f.name, typing.get_type_hints(model)[f.name])
    for model in MODELS
    for f in fields(model)
    if f.init and model is not QosTable
]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(data=st.data(), target=st.sampled_from(FIELDS))
def test_mistyped_field_raises_value_error_naming_it(data, target):
    model, name, tp = target
    bad = data.draw(mistyped(tp))
    with pytest.raises(ValueError) as err:
        model(**{name: bad})
    assert str(err.value).startswith(name), str(err.value)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    row=st.integers(0, 6),
    column=st.integers(0, 5),
    bad=st.sampled_from([True, "3.4", None, math.nan, [1.0]]),
)
def test_mistyped_table_cell_raises_value_error_naming_it(row, column, bad):
    rows = [list(r) for r in DEFAULT_TABLE.rows]
    rows[row][column] = bad
    name = DEFAULT_TABLE.rows[0]._fields[column]
    with pytest.raises(ValueError, match=rf"^rows\[{row}\]\.{name} must be "):
        QosTable(rows=rows)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    column=st.sampled_from(["time_s", "value"]),
    at=st.integers(0, 2),
    bad=st.sampled_from([True, False, "1", None, [1.0], b"1"]),
)
def test_mistyped_trace_sample_raises_value_error_naming_it(column, at, bad):
    times, values = [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]
    (times if column == "time_s" else values)[at] = bad
    with pytest.raises(ValueError, match=f"^sample {at + 1}: {column} must be a number"):
        Trace(times, values)


def in_range(lo, hi):
    """Mostly valid numbers, sometimes just outside [lo, hi]."""
    span = hi - lo
    return st.floats(lo - 0.1 * span, hi + 0.1 * span) | st.integers(math.floor(lo), math.ceil(hi))


node_objects = st.fixed_dictionaries(
    {},
    optional={
        "mode": st.sampled_from(MODES),
        "v_on": in_range(2.1, 3.6),
        "pinned_qos": st.none() | st.integers(0, 8),
        "supercap": st.fixed_dictionaries(
            {},
            optional={
                "capacitance_f": in_range(1e-3, 5.0),
                "voltage_v": in_range(0.0, 5.5),
                "v_cutoff": in_range(2.1, 2.5),
                "leak_current_a": in_range(0.0, 1e-5),
            },
        ),
        "harvester": st.fixed_dictionaries(
            {}, optional={"i_ref_a": in_range(0.0, 1e-4), "lux_ref": in_range(1.0, 1000.0)}
        ),
        "converter": st.fixed_dictionaries(
            {},
            optional={
                "v_boost_min": in_range(0.0, 3.0),
                "eta_boost": in_range(0.1, 1.0),
                "eta_cold": in_range(0.0, 0.2),
                "eta_buck": in_range(0.1, 1.0),
            },
        ),
        "load": st.fixed_dictionaries(
            {}, optional={"i_standby_a": in_range(0.0, 1e-5), "e_sense_tx_j": in_range(0.0, 1e-4)}
        ),
    },
)


# Integrator segments and payments per wakeup (a replay, a skip's rest, the
# wakeup's own payment and segment), per light sample or external event, and
# per death or recovery.
PER_WAKEUP, PER_INPUT, PER_CROSSING = 8, 4, 4


def work_bound(config, light, events, duration):
    """A bound on the ``_Phys.advance`` and ``_Phys.pay`` calls of a run,
    from its inputs.  Each life wakes at its start and then at most once per
    shortest interval.  A recovery follows a recharge from the cutoff to
    v_on, which the run's recharge check holds to at least ``MIN_INTERVAL_S``,
    and which takes at least the fastest one: leak-free, with no load, at the
    boost efficiency and the brightest light."""
    phys = _Phys(config)
    e_recharge = 0.5 * phys.c * (phys.v_on**2 - phys.v_cutoff**2)
    p_max = phys.eta_boost * phys.p_per_lux * float(max(light.values))
    t_recharge = e_recharge / p_max if p_max else math.inf
    lives = 1 + duration / (t_recharge if t_recharge > MIN_INTERVAL_S else MIN_INTERVAL_S)
    wakeups = duration / min(config.table.intervals[config.mode]) + lives
    inputs = len(light) + (len(events) if events is not None else 0)
    return PER_WAKEUP * wakeups + PER_INPUT * inputs + PER_CROSSING * 2 * lives


@contextlib.contextmanager
def work_limit(bound):
    """Fails a run as soon as its ``_Phys.advance`` and ``_Phys.pay`` calls
    pass ``bound``: a run that would not end fails at once."""
    calls = 0

    def limited(real):
        def call(*args):
            nonlocal calls
            calls += 1
            if calls > bound:
                raise AssertionError(f"over {bound:.0f} integrator and payment calls")
            return real(*args)

        return call

    with mock.patch.object(_Phys, "advance", limited(_Phys.advance)):
        with mock.patch.object(_Phys, "pay", limited(_Phys.pay)):
            yield


fuzz_lux = st.floats(0.0, 2000.0) | st.just(0)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(obj=node_objects, lux=fuzz_lux)
# Less energy moved than the storage resolves: the residual is rounding.
@hypothesis.example(
    obj={"load": {"e_sense_tx_j": 3.8337519366930346e-184, "i_standby_a": 3.8337519366930346e-184}},
    lux=5.960464477539063e-08,
)
@hypothesis.example(obj={"load": {"i_standby_a": 1e-30, "e_sense_tx_j": 0.0}}, lux=0)
@hypothesis.example(obj={"load": {"i_standby_a": 1.1754943508222875e-38, "e_sense_tx_j": 0.0}}, lux=0)
# A leak equilibrium p/I, or the leaky solve's start, past the float range.
@hypothesis.example(obj={"supercap": {"leak_current_a": 5e-324}}, lux=0)
@hypothesis.example(
    obj={"supercap": {"voltage_v": 0.0, "leak_current_a": 1}}, lux=1.1125369292536007e-308
)
# Panel power past the float range.
@hypothesis.example(obj={"harvester": {"i_ref_a": 7.8e-05, "lux_ref": 2.225073858507e-311}}, lux=35.0)
# Storage that recharges from the cutoff to v_on in far under a millisecond:
# each death and recovery moves the clock by almost nothing.
@hypothesis.example(
    obj={
        "pinned_qos": 7,
        "supercap": {
            "capacitance_f": 8.88e-105,
            "voltage_v": 5.7e-133,
            "v_cutoff": 2.127,
            "leak_current_a": 4.0e-293,
        },
    },
    lux=686.8,
)
def test_any_valid_config_runs_an_hour_or_raises_value_error(obj, lux):
    try:
        config = parse_node_config(obj)
    except ConfigError:
        hypothesis.event("config rejected")
        return
    light = Trace.constant(lux)
    bound = work_bound(config, light, None, 3600.0)
    try:
        with work_limit(bound):
            log = run_node(config, light, duration_s=3600.0, detail=False)
    except ValueError:
        hypothesis.event("run rejected")
        return
    hypothesis.event("ran")
    assert log.duration_s == 3600.0
    assert log.energy_residual_relative <= 1e-6
