"""Property tests for the lookups that QosTable precomputes at construction,
and for the controller's fixed-point predicate.

Tables are drawn from what the validator accepts: bucket edges shared
exactly between neighbours, rows listed in any order, interval columns
strictly decreasing with state.  Voltages are drawn on the edges and
between them.
"""

import pytest

from luxmote.qos import (
    DEFAULT_TABLE,
    HISTORY_LEN,
    ApplicationMode,
    ControllerState,
    QosRow,
    QosTable,
    is_fixed_point,
    lookup_state,
    step,
)

from reference_controller import table_state

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COLUMNS = {
    ApplicationMode.PERIODIC_SENSING: "sense_interval_s",
    ApplicationMode.EVENT_DETECTION: "pir_interval_s",
    ApplicationMode.ADVERTISING: "adv_interval_s",
}


@st.composite
def tables(draw):
    interior = draw(
        st.lists(
            st.floats(2.1, 3.6, exclude_min=True, exclude_max=True),
            min_size=6,
            max_size=6,
            unique=True,
        )
    )
    edges = [2.1] + sorted(interior) + [3.6]
    columns = [
        sorted(
            draw(st.lists(st.floats(1e-3, 1e4), min_size=7, max_size=7, unique=True)),
            reverse=True,
        )
        for _ in COLUMNS
    ]
    rows = [
        QosRow(s, edges[s - 1], edges[s], *(col[s - 1] for col in columns))
        for s in range(1, 8)
    ]
    return QosTable(rows=tuple(draw(st.permutations(rows)))), edges


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(tables(), st.data())
def test_lookup_state_matches_reference(drawn, data):
    table, edges = drawn
    volt = data.draw(st.one_of(st.sampled_from(edges), st.floats(2.1, 3.6)))
    assert lookup_state(table, volt) == table_state(table.rows, volt)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(tables())
def test_intervals_read_the_rows(drawn):
    table, _ = drawn
    for row in table.rows:
        for mode, column in COLUMNS.items():
            assert table.intervals[mode][row.state - 1] == getattr(row, column)


def _table_with_edges(pairs):
    """A valid table over buckets given as (v_lo, v_hi) pairs by state."""
    return QosTable(
        rows=tuple(
            QosRow(s, lo, hi, 800.0 - 100 * s, 800.0 - 100 * s, 8.0 - s)
            for s, (lo, hi) in enumerate(pairs, start=1)
        )
    )


EDGES = [2.1, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6]


def test_gap_between_buckets_belongs_to_lower_bucket():
    pairs = list(zip(EDGES, EDGES[1:]))
    pairs[2] = (2.6, 2.8 - 5e-10)  # state 3 ends just short of state 4
    table = _table_with_edges(pairs)
    assert lookup_state(table, 2.8 - 2.5e-10) == 3
    assert lookup_state(table, 2.8) == 4


def test_overlap_between_buckets_belongs_to_upper_bucket():
    pairs = list(zip(EDGES, EDGES[1:]))
    pairs[2] = (2.6, 2.8 + 5e-10)  # state 3 reaches into state 4
    table = _table_with_edges(pairs)
    assert lookup_state(table, 2.8 - 1e-12) == 3
    assert lookup_state(table, 2.8 + 2.5e-10) == 4


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    st.one_of(st.just((DEFAULT_TABLE, None)), tables()),
    st.one_of(st.sampled_from([0.1, 300.0]), st.floats(1e-6, 2000.0)),
    st.tuples(*[st.floats(0.0, 5.5)] * HISTORY_LEN),
    st.integers(1, 9),
    st.data(),
)
def test_fixed_point_holds_for_fifty_steps(drawn, light, volt_buf, index, data):
    table = drawn[0]
    ctrl = ControllerState(light_buf=(light,) * HISTORY_LEN, volt_buf=volt_buf, index=index, next_qos=7)
    # Only tables that re-seed at or above state 5 at the ceiling qualify.
    hypothesis.assume(is_fixed_point(ctrl, light, table))
    volts = data.draw(st.lists(st.floats(table.v_min, 5.5), min_size=50, max_size=50))
    for volt in volts:
        ctrl, qos = step(ctrl, volt, light, table)
        assert qos == 7
        assert is_fixed_point(ctrl, light, table)


def test_fixed_point_needs_seeding_target_and_steady_light():
    seeded = ControllerState(light_buf=(300.0,) * HISTORY_LEN, index=1, next_qos=7)
    assert is_fixed_point(seeded, 300.0, DEFAULT_TABLE)
    assert not is_fixed_point(seeded, 299.0, DEFAULT_TABLE)
    unlit = ControllerState(light_buf=(0.0,) * HISTORY_LEN, index=1, next_qos=7)
    assert not is_fixed_point(unlit, 0.0, DEFAULT_TABLE)
    fresh = ControllerState(light_buf=(300.0,) * HISTORY_LEN, index=0, next_qos=7)
    assert not is_fixed_point(fresh, 300.0, DEFAULT_TABLE)
    lower = ControllerState(light_buf=(300.0,) * HISTORY_LEN, index=1, next_qos=6)
    assert not is_fixed_point(lower, 300.0, DEFAULT_TABLE)
    warming = ControllerState(
        light_buf=(0.0, 300.0, 300.0, 300.0, 300.0), index=1, next_qos=7
    )
    assert not is_fixed_point(warming, 300.0, DEFAULT_TABLE)


def test_fixed_point_rejects_tables_that_reseed_low_at_the_ceiling():
    # States 5 to 7 fit within the 10 mV ceiling tolerance, so a re-seed
    # just inside it lands in state 4 and the step returns 6, not 7.
    pairs = list(zip(EDGES, EDGES[1:]))
    pairs[3:] = [(2.8, 3.591), (3.591, 3.594), (3.594, 3.597), (3.597, 3.6)]
    table = _table_with_edges(pairs)
    ctrl = ControllerState(light_buf=(300.0,) * HISTORY_LEN, index=1, next_qos=7)
    assert not is_fixed_point(ctrl, 300.0, table)
    assert step(ctrl, 3.5905, 300.0, table)[1] == 6
