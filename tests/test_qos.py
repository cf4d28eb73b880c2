"""Tests for the service-level table and the adaptive controller.

The behavioral oracle is the straight-line interpreter in
reference_controller.py; every derived expectation here was computed with it
and frozen.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luxmote.qos import (
    DEFAULT_TABLE,
    ApplicationMode,
    ControllerState,
    QosRow,
    QosTable,
    lookup_state,
    reset,
    step,
    trend,
)

from reference_controller import reference_qos_sequence

ORACLE_ROWS = [tuple(r) for r in DEFAULT_TABLE.rows]

# Voltages at the ceiling (where step reseeds and the voltage rule is +1)
# and anywhere in the table; light dark or lit.
CEILING_VOLTS = st.floats(3.59, 3.6)
VOLTS = st.one_of(CEILING_VOLTS, st.floats(2.1, 3.6))
LUX = st.one_of(st.just(0.0), st.floats(0.0, 1000.0))


@st.composite
def clamp_runs(draw):
    """A table and (volt, light) samples in runs that may hold the voltage,
    the light or both: held light gives flat light trends, held darkness
    drives the target to 1, and held ceiling voltages keep it at 7.  The
    first sample seeds any state.  The state-7 bucket may start above
    3.59 V, where a reseed at the ceiling gives 6."""
    edge = draw(st.one_of(st.just(3.4), st.floats(3.59, 3.6, exclude_min=True, exclude_max=True)))
    rows = [r._replace(v_hi=edge) if r.state == 6 else r for r in DEFAULT_TABLE.rows]
    rows = [r._replace(v_lo=edge) if r.state == 7 else r for r in rows]
    first = rows[7 - draw(st.integers(1, 7))]
    samples = [(draw(st.floats(first.v_lo, first.v_hi, exclude_max=True)), draw(LUX))]
    for _ in range(draw(st.integers(1, 8))):
        volt, lux = draw(VOLTS), draw(LUX)
        hold_volt, hold_lux = draw(st.booleans()), draw(st.booleans())
        for _ in range(draw(st.integers(1, 12))):
            samples.append((volt if hold_volt else draw(VOLTS), lux if hold_lux else draw(LUX)))
    return QosTable(rows=tuple(rows)), samples


# Every cell of the shipped table, literally.
EXPECTED_TABLE = [
    (7, 3.4, 3.6, 20.0, 10.0, 0.1),
    (6, 3.2, 3.4, 40.0, 20.0, 0.2),
    (5, 3.0, 3.2, 60.0, 30.0, 0.4),
    (4, 2.8, 3.0, 120.0, 60.0, 0.64),
    (3, 2.6, 2.8, 240.0, 120.0, 0.9),
    (2, 2.4, 2.6, 300.0, 300.0, 2.0),
    (1, 2.1, 2.4, 600.0, 600.0, 5.0),
]


class TestQosTable:
    def test_default_table_cells(self):
        got = sorted((tuple(r) for r in DEFAULT_TABLE.rows), reverse=True)
        assert got == sorted(EXPECTED_TABLE, reverse=True)

    def test_span(self):
        assert DEFAULT_TABLE.v_min == 2.1
        assert DEFAULT_TABLE.v_max == 3.6

    def test_seven_unique_states_required(self):
        rows = list(EXPECTED_TABLE)
        with pytest.raises(ValueError):
            QosTable(rows=tuple(rows[:6]))
        rows[0] = (6, 3.4, 3.6, 20.0, 10.0, 0.1)  # duplicate state 6
        with pytest.raises(ValueError):
            QosTable(rows=tuple(rows))

    def test_overlapping_buckets_rejected(self):
        rows = list(EXPECTED_TABLE)
        rows[1] = (6, 3.1, 3.4, 40.0, 20.0, 0.2)  # overlaps state 5
        with pytest.raises(ValueError, match="contiguous"):
            QosTable(rows=tuple(rows))

    def test_empty_bucket_rejected(self):
        rows = list(EXPECTED_TABLE)
        rows[0] = (7, 3.6, 3.6, 20.0, 10.0, 0.1)
        with pytest.raises(ValueError, match=r"^state 7: empty bucket \[3.6, 3.6\)"):
            QosTable(rows=tuple(rows))

    def test_states_must_increase_with_voltage(self):
        rows = list(EXPECTED_TABLE)
        rows[5], rows[6] = (1, 2.4, 2.6, 300.0, 300.0, 2.0), (2, 2.1, 2.4, 600.0, 600.0, 5.0)
        with pytest.raises(ValueError, match=r"^states must increase with voltage \(2 then 1\)"):
            QosTable(rows=tuple(rows))

    def test_gap_rejected(self):
        rows = list(EXPECTED_TABLE)
        rows[1] = (6, 3.25, 3.4, 40.0, 20.0, 0.2)
        with pytest.raises(ValueError, match="contiguous"):
            QosTable(rows=tuple(rows))

    def test_non_decreasing_intervals_rejected(self):
        rows = list(EXPECTED_TABLE)
        rows[0] = (7, 3.4, 3.6, 40.0, 10.0, 0.1)  # sense equal to state 6
        with pytest.raises(ValueError, match="strictly decrease"):
            QosTable(rows=tuple(rows))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_interval_rejected(self, value):
        # a NaN wakeup interval made the event loop spin at a NaN time
        rows = list(EXPECTED_TABLE)
        rows[0] = (7, 3.4, 3.6, value, 10.0, 0.1)
        with pytest.raises(ValueError, match=rf"^rows\[0\]\.sense_interval_s must be a finite number, got {value}$"):
            QosTable(rows=tuple(rows))

    def test_interval_below_one_millisecond_rejected(self):
        rows = list(EXPECTED_TABLE)
        rows[0] = (7, 3.4, 3.6, 20.0, 10.0, 1e-4)
        with pytest.raises(ValueError, match="adv_interval_s: state 7 interval 0.0001 s is below 0.001 s"):
            QosTable(rows=tuple(rows))

    def test_coverage_must_be_full_span(self):
        rows = [(s, lo + 0.1, hi + 0.1 if s != 7 else hi, a, b, c) for s, lo, hi, a, b, c in EXPECTED_TABLE]
        with pytest.raises(ValueError):
            QosTable(rows=tuple(rows))


class TestLookup:
    @pytest.mark.parametrize(
        "volt,state",
        [
            (3.5, 7),
            (2.2, 1),
            # shared edges belong to the higher-QoS bucket
            (3.4, 7),
            (3.39, 6),
            (3.0, 5),
            (2.4, 2),
            # extremes
            (3.6, 7),
            (2.1, 1),
        ],
    )
    def test_bucket_boundaries(self, volt, state):
        assert lookup_state(DEFAULT_TABLE, volt) == state

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            lookup_state(DEFAULT_TABLE, 2.0)
        with pytest.raises(ValueError):
            lookup_state(DEFAULT_TABLE, 3.7)

    def test_matches_oracle_lookup(self):
        from reference_controller import table_state

        for volt in np.linspace(2.1, 3.6, 301):
            assert lookup_state(DEFAULT_TABLE, float(volt)) == table_state(ORACLE_ROWS, float(volt))


class TestIntervals:
    def test_examples(self):
        intervals = DEFAULT_TABLE.intervals
        assert intervals[ApplicationMode.PERIODIC_SENSING][7 - 1] == 20.0
        assert intervals[ApplicationMode.EVENT_DETECTION][4 - 1] == 60.0
        assert intervals[ApplicationMode.ADVERTISING][1 - 1] == 5.0

    def test_all_cells(self):
        intervals = DEFAULT_TABLE.intervals
        for state, _, _, sense, pir, adv in EXPECTED_TABLE:
            assert intervals[ApplicationMode.PERIODIC_SENSING][state - 1] == sense
            assert intervals[ApplicationMode.EVENT_DETECTION][state - 1] == pir
            assert intervals[ApplicationMode.ADVERTISING][state - 1] == adv


class TestTrend:
    def test_constant_is_zero(self):
        assert trend((1.0, 1.0, 1.0, 1.0, 1.0)) == 0.0

    def test_unit_slopes(self):
        assert trend((0.0, 1.0, 2.0, 3.0, 4.0)) == pytest.approx(1.0)
        assert trend((5.0, 4.0, 3.0, 2.0, 1.0)) == pytest.approx(-1.0)

    def test_matches_least_squares(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            window = rng.uniform(-10, 10, 5)
            expected = np.polyfit(np.arange(5), window, 1)[0]
            assert trend(tuple(window)) == pytest.approx(expected, abs=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            trend((1.0, 2.0, 3.0))


class TestControllerState:
    """Construction holds each field to its type and range and names the
    field it rejects; ``step`` then never meets a value of the wrong type."""

    @pytest.mark.parametrize("name", ["light_buf", "volt_buf"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (("a",) * 5, r"\[0\] must be a number, got 'a'"),
            ((1.0, 2.0, True, 4.0, 5.0), r"\[2\] must be a number, got True"),
            ((1.0, 2.0, 3.0, 4.0, float("nan")), r"\[4\] must be a finite number, got nan"),
            ((1.0,) * 4, r" must hold 5 entries, got \(1.0, 1.0, 1.0, 1.0\)"),
            (3.0, r" must be a tuple, got 3.0"),
        ],
    )
    def test_history_buffers(self, name, value, message):
        with pytest.raises(ValueError, match=rf"^ControllerState\.{name}{message}$"):
            ControllerState(**{name: value})

    @pytest.mark.parametrize("name", ["light_buf", "volt_buf"])
    def test_history_readings_are_stored_as_floats(self, name):
        ctrl = ControllerState(**{name: [1, 2, 3, 4, 5]})
        assert getattr(ctrl, name) == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert all(type(x) is float for x in getattr(ctrl, name))

    @pytest.mark.parametrize(
        "value, message",
        [(True, "must be an integer, got True"), (1.0, "must be an integer, got 1.0"),
         (-1, "must be >= 0, got -1")],
    )
    def test_index(self, value, message):
        with pytest.raises(ValueError, match=rf"^ControllerState\.index {message}$"):
            ControllerState(index=value)

    @pytest.mark.parametrize(
        "value, message",
        [(2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
         (0, r"must be in \[1, 7\], got 0"), (8, r"must be in \[1, 7\], got 8")],
    )
    def test_next_qos(self, value, message):
        with pytest.raises(ValueError, match=rf"^ControllerState\.next_qos {message}$"):
            ControllerState(next_qos=value)

    def test_fractional_state_never_reaches_step(self):
        with pytest.raises(ValueError, match="next_qos must be an integer"):
            ControllerState(next_qos=2.5, index=1)

    def test_positional_fields_are_checked_too(self):
        with pytest.raises(ValueError, match=r"^ControllerState\.index must be an integer"):
            ControllerState((0.0,) * 5, (0.0,) * 5, "1")
        ctrl = ControllerState((0.0,) * 5, (0.0,) * 5, 1, 7)
        assert (ctrl.index, ctrl.next_qos) == (1, 7)


class TestStep:
    def test_fresh_seed_and_adjust(self):
        # oracle: fresh controller, volt=3.5, light=500 -> 7
        ctrl = ControllerState()
        ctrl, qos = step(ctrl, 3.5, 500.0, DEFAULT_TABLE)
        assert qos == 7
        assert ctrl.index == 1
        assert ctrl.light_buf[-1] == 500.0
        assert ctrl.volt_buf[-1] == 3.5

    def test_declining_dark_sequence(self):
        # oracle-computed trace: reseed at max, then both rules decrement once
        # the voltage history fills; covers the warm both-decrement case
        # (5-2=3) and clamping at the floor.
        samples = [(3.6, 0.0), (3.55, 0.0), (3.5, 0.0), (3.45, 0.0),
                   (3.4, 0.0), (3.35, 0.0), (3.3, 0.0), (3.25, 0.0)]
        expected = [7, 7, 7, 7, 5, 3, 1, 1]
        assert reference_qos_sequence(samples, ORACLE_ROWS) == expected
        ctrl = ControllerState()
        got = []
        for volt, light in samples:
            ctrl, qos = step(ctrl, volt, light, DEFAULT_TABLE)
            got.append(qos)
        assert got == expected

    def test_clamp_floor_directly(self):
        ctrl = ControllerState(
            light_buf=(0.0,) * 5,
            volt_buf=(3.0, 2.9, 2.8, 2.7, 2.6),
            index=5,
            next_qos=1,
        )
        ctrl, qos = step(ctrl, 2.5, 0.0, DEFAULT_TABLE)
        assert qos == 1

    def test_reseed_at_ceiling(self):
        # any step at v_max re-seeds from the table regardless of index
        ctrl = ControllerState(
            light_buf=(100.0,) * 5, volt_buf=(3.0,) * 5, index=9, next_qos=2
        )
        ctrl, qos = step(ctrl, 3.6, 100.0, DEFAULT_TABLE)
        assert qos == 7  # seed 7, light +1, at-max +1, clamp
        assert ctrl.index == 10

    def test_ceiling_tolerance(self):
        # 3.595 V counts as "at max" (10 mV tolerance), 3.55 V does not
        warm = ControllerState(
            light_buf=(100.0,) * 5, volt_buf=(3.2,) * 5, index=3, next_qos=4
        )
        _, qos_at_max = step(warm, 3.595, 100.0, DEFAULT_TABLE)
        assert qos_at_max == 7
        _, qos_below = step(warm, 3.55, 100.0, DEFAULT_TABLE)
        assert qos_below == 6  # no reseed: 4 +1 (light) +1 (volt trend up)

    def test_voltage_above_ceiling_clamped(self):
        # storage may sit above the table top; the controller sees the ceiling
        warm = ControllerState(
            light_buf=(100.0,) * 5, volt_buf=(3.2,) * 5, index=3, next_qos=4
        )
        _, from_headroom = step(warm, 5.2, 100.0, DEFAULT_TABLE)
        _, from_ceiling = step(warm, 3.6, 100.0, DEFAULT_TABLE)
        assert from_headroom == from_ceiling == 7

    def test_dead_node_rejected(self):
        with pytest.raises(ValueError):
            step(ControllerState(), 2.0, 100.0, DEFAULT_TABLE)

    def test_negative_light_rejected(self):
        with pytest.raises(ValueError):
            step(ControllerState(), 3.0, -1.0, DEFAULT_TABLE)

    def test_determinism(self):
        rng = np.random.default_rng(11)
        samples = [(rng.uniform(2.1, 3.6), rng.uniform(0, 800)) for _ in range(100)]
        runs = []
        for _ in range(2):
            ctrl = ControllerState()
            out = []
            for volt, light in samples:
                ctrl, qos = step(ctrl, volt, light, DEFAULT_TABLE)
                out.append(qos)
            runs.append(out)
        assert runs[0] == runs[1]


class TestStepProperties:
    def test_output_range_fuzz(self):
        rng = np.random.default_rng(99)
        ctrl = ControllerState()
        for _ in range(20_000):
            volt = rng.uniform(2.1, 3.6)
            light = 0.0 if rng.random() < 0.3 else rng.uniform(0, 1500)
            ctrl, qos = step(ctrl, volt, light, DEFAULT_TABLE)
            assert 1 <= qos <= 7

    def test_reseed_exactness(self):
        # whenever index==0 the post-seed target equals the table lookup:
        # observable as qos == clamp(lookup +/- 2)
        rng = np.random.default_rng(5)
        for _ in range(300):
            volt = rng.uniform(2.1, 3.6)
            light = rng.uniform(0, 1000)
            seed = lookup_state(DEFAULT_TABLE, volt)
            _, qos = step(ControllerState(), volt, light, DEFAULT_TABLE)
            assert abs(qos - seed) <= 2

    def test_reseed_exactness_dark_fresh_step(self):
        # on a fresh controller in darkness the two rules cancel (-1 light,
        # +1 zero-padded voltage trend), exposing the seed directly
        for volt in (2.2, 2.5, 2.7, 2.9, 3.1, 3.3, 3.5):
            _, qos = step(ControllerState(), volt, 0.0, DEFAULT_TABLE)
            assert qos == lookup_state(DEFAULT_TABLE, volt)

    def test_net_change_bound_without_reseed(self):
        rng = np.random.default_rng(6)
        ctrl = ControllerState()
        # warm it past the initial seed
        ctrl, _ = step(ctrl, 3.0, 100.0, DEFAULT_TABLE)
        for _ in range(2000):
            volt = rng.uniform(2.1, 3.5)  # below the reseed ceiling
            light = rng.uniform(0, 1000)
            before = ctrl.next_qos
            index_before = ctrl.index
            ctrl, qos = step(ctrl, volt, light, DEFAULT_TABLE)
            if ctrl.index == index_before:  # no reseed fired
                assert abs(qos - before) <= 2

    def test_darkness_monotonic_non_increasing(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            start = rng.uniform(2.6, 3.6)
            drops = rng.uniform(0.001, 0.02, size=40)
            volts = start - np.cumsum(drops)
            volts = volts[volts >= 2.1]
            ctrl = ControllerState()
            seq = []
            for volt in volts:
                ctrl, qos = step(ctrl, float(volt), 0.0, DEFAULT_TABLE)
                seq.append(qos)
            assert all(b <= a for a, b in zip(seq[1:], seq[2:])), seq
            assert all(q <= seq[0] for q in seq[1:])

    def test_oracle_equivalence_random_traces(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = 200
            volts = rng.uniform(2.1, 3.6, n)
            lux = rng.uniform(0.0, 1000.0, n)
            lux[rng.random(n) < 0.25] = 0.0
            samples = list(zip(volts.tolist(), lux.tolist()))
            expected = reference_qos_sequence(samples, ORACLE_ROWS)
            ctrl = ControllerState()
            got = []
            for volt, light in samples:
                ctrl, qos = step(ctrl, volt, light, DEFAULT_TABLE)
                got.append(qos)
            assert got == expected


    @settings(max_examples=400, deadline=None)
    @given(clamp_runs())
    def test_oracle_equivalence_where_the_clamp_decides(self, run):
        # step skips a trend whose rule cannot change the clamped result; the
        # reference always computes both.
        table, samples = run
        expected = reference_qos_sequence(samples, [tuple(r) for r in table.rows])
        ctrl = ControllerState()
        got = []
        for volt, light in samples:
            ctrl, qos = step(ctrl, volt, light, table)
            got.append(qos)
        assert got == expected


class TestReset:
    def test_zeroes_buffers_and_index(self):
        ctrl = ControllerState(
            light_buf=(1.0, 2.0, 3.0, 4.0, 5.0),
            volt_buf=(3.0, 3.1, 3.2, 3.3, 3.4),
            index=17,
            next_qos=6,
        )
        out = reset(ctrl)
        assert out.light_buf == (0.0,) * 5
        assert out.volt_buf == (0.0,) * 5
        assert out.index == 0

    def test_idempotent(self):
        ctrl = ControllerState(index=4, next_qos=3)
        assert reset(reset(ctrl)) == reset(ctrl)

    def test_reseed_after_reset(self):
        # oracle: fresh step at (3.0 V, dark) seeds state 5 and returns 5
        ctrl = reset(ControllerState(index=9, next_qos=2))
        ctrl, qos = step(ctrl, 3.0, 0.0, DEFAULT_TABLE)
        assert qos == 5

    def test_recovery_voltage_seeds_state_two(self):
        # 2.4 V belongs to the state-2 bucket under the shared-edge rule
        assert lookup_state(DEFAULT_TABLE, 2.4) == 2
