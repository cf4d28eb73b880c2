"""Trace construction and validation, and CSV round-tripping.  The
simulator's sample-and-hold of a trace is checked in test_simulate.py."""

import math
import re

import numpy as np
import pytest

from luxmote.traces import Trace, TraceError, load_trace_csv


class TestConstruction:
    def test_constant(self):
        trace = Trace.constant(300.0)
        assert len(trace) == 1

    def test_from_samples(self):
        trace = Trace.from_samples([(0.0, 10.0), (5.0, 20.0)])
        assert len(trace) == 2

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([(0.0, 1.0), (0.0,)], "sample 2: expected a (time_s, value) pair, got (0.0,)"),
            ([(0.0, 1.0, 2.0)], "sample 1: expected a (time_s, value) pair, got (0.0, 1.0, 2.0)"),
            ([5.0], "sample 1: expected a (time_s, value) pair, got 5.0"),
        ],
    )
    def test_from_samples_malformed_pair_named(self, samples, message):
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            Trace.from_samples(samples)

    def test_non_increasing_times_rejected(self):
        with pytest.raises(TraceError, match="does not increase"):
            Trace(times_s=np.array([0.0, 5.0, 5.0]), values=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(TraceError):
            Trace(times_s=np.array([0.0, 5.0, 4.0]), values=np.array([1.0, 2.0, 3.0]))

    def test_negative_values_rejected(self):
        with pytest.raises(TraceError, match="negative"):
            Trace(times_s=np.array([0.0]), values=np.array([-1.0]))

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            Trace(times_s=np.array([]), values=np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            Trace(times_s=np.array([0.0, 1.0]), values=np.array([1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(TraceError):
            Trace(times_s=np.array([0.0]), values=np.array([np.nan]))

    @pytest.mark.parametrize(
        "times, values, message",
        [
            ([0.0], [True], "sample 1: value must be a number, got True"),
            ([0.0, False], [1.0, 2.0], "sample 2: time_s must be a number, got False"),
            (np.array([True]), [1.0], "sample 1: time_s must be a number, got True"),
            ([0.0], ["5"], "sample 1: value must be a number, got '5'"),
            ([0.0], [None], "sample 1: value must be a number, got None"),
            (0.0, [1.0], "time_s must be a sequence of numbers, got 0.0"),
            (np.zeros((1, 1)), [1.0], "trace columns must be one-dimensional"),
        ],
    )
    def test_non_numbers_rejected(self, times, values, message):
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            Trace(times, values)

    def test_ints_and_int_arrays_accepted(self):
        trace = Trace(np.arange(3), [0, 1, 2])
        assert trace.times_s.dtype == trace.values.dtype == np.float64

    @pytest.mark.parametrize(
        "times, values, message",
        [
            # at one sample: non-finite time, non-finite value, stall, negative
            ([0.0, math.nan], [1.0, -math.inf], "sample 2: time_s nan is not finite"),
            ([0.0, 0.0], [1.0, math.inf], "sample 2: value inf is not finite"),
            ([0.0, 0.0], [1.0, -1.0], "sample 2: time 0.0 does not increase past 0.0"),
            ([0.0, 1.0], [1.0, -1.0], "sample 2: negative value -1.0"),
            # the first failing sample, whatever its rule
            ([0.0, 1.0, 1.0, math.inf], [1.0, -2.0, 1.0, 1.0], "sample 2: negative value -2.0"),
            ([0.0, 2.0, 1.0], [1.0, 1.0, -1.0], "sample 3: time 1.0 does not increase past 2.0"),
        ],
    )
    def test_first_failing_sample_and_rule_reported(self, times, values, message):
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            Trace(times, values)


class TestCsv:
    def test_round_trip(self, tmp_path):
        trace = Trace.from_samples([(0.0, 300.0), (3600.0, 0.0), (7200.0, 150.5)])
        path = tmp_path / "light.csv"
        samples = zip(trace.times_s.tolist(), trace.values.tolist())
        path.write_text("time_s,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in samples))
        back = load_trace_csv(path)
        assert np.array_equal(back.times_s, trace.times_s)
        assert np.array_equal(back.values, trace.values)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,lux\n0,1\n")
        with pytest.raises(TraceError, match="line 1"):
            load_trace_csv(path)

    def test_decreasing_time_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,1.0\n10.0,2.0\n5.0,3.0\n")
        with pytest.raises(TraceError, match="line 4"):
            load_trace_csv(path)

    def test_bad_number_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,abc\n")
        with pytest.raises(TraceError, match="line 2"):
            load_trace_csv(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["time_s", "value"])
    def test_non_finite_names_line_and_column(self, tmp_path, text, column):
        path = tmp_path / "bad.csv"
        row = f"{text},1" if column == "time_s" else f"5,{text}"
        path.write_text(f"time_s,value\n0,1\n{row}\n")
        with pytest.raises(TraceError, match=f"bad.csv: line 3: {column} .* is not finite"):
            load_trace_csv(path)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,1.0\n\n10.0,2.0\n")
        assert load_trace_csv(path).values.tolist() == [1.0, 2.0]
        path.write_text("time_s,value\n0.0,1.0\n\n10.0,-2.0\n")
        with pytest.raises(TraceError, match="bad.csv: line 4: negative value -2.0"):
            load_trace_csv(path)

    def test_fault_after_blank_lines_cites_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,1.0\n\n\n10.0,2.0\n\n10.0,3.0\n")
        with pytest.raises(TraceError, match=r"bad.csv: line 7: time 10.0 does not increase past 10.0$"):
            load_trace_csv(path)

    def test_parse_fault_reported_before_an_earlier_rule_fault(self, tmp_path):
        # the lines are parsed first, then Trace checks the samples
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,-1.0\n1.0,abc\n")
        with pytest.raises(TraceError, match="bad.csv: line 3: could not convert"):
            load_trace_csv(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"time_s,value\n0.0,1.0\n\xff,2.0\n")
        with pytest.raises(TraceError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
            load_trace_csv(path)

    def test_wrong_column_count_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n0.0,1.0,9\n")
        with pytest.raises(TraceError, match="line 2"):
            load_trace_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceError):
            load_trace_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("time_s,value\n")
        with pytest.raises(TraceError, match="no samples"):
            load_trace_csv(path)
