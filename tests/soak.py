"""Soak runs: seven property tests at thousands of examples.

    PYTHONPATH=src python tests/soak.py

pytest does not collect this file.  Each property runs with no example
database, derandomized, so a rerun draws the same examples, and under a
per-example ``signal.alarm``.  A failing example is printed and the run goes
on; each property then prints the examples it ran, the ones it rejected (an
unsatisfied assumption, or an input the test itself reports as rejected
through ``hypothesis.event``) and the ones that failed.  Exits 1 if any
example failed.
"""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hypothesis  # noqa: E402
from hypothesis.errors import UnsatisfiedAssumption  # noqa: E402

import test_fast_forward as fast_forward  # noqa: E402
import test_input_fuzz as fuzz  # noqa: E402
import test_integrator_properties as integrator  # noqa: E402

# (test, the strategies it is given, examples)
SOAKS = [
    (
        fuzz.test_any_valid_config_runs_an_hour_or_raises_value_error,
        {"obj": fuzz.node_objects, "lux": fuzz.fuzz_lux},
        20_000,
    ),
    (
        fast_forward.test_summary_run_matches_detailed_run,
        {"scenario": fast_forward.scenarios()},
        6_000,
    ),
    (fast_forward.test_room_bound_withholds_no_skip, fast_forward.ROOM_CASES, 20_000),
    (integrator.test_advance_invariants, {"call": integrator.calls()}, 20_000),
    (integrator.test_crossing_time_decides_each_span, {"case": integrator.crossings()}, 20_000),
    (fast_forward.test_wake_times_follow_the_anchor, {"case": fast_forward.wake_cases()}, 20_000),
    (fast_forward.test_gate_changes_no_run, {"scenario": fast_forward.scenarios()}, 2_000),
    (fast_forward.test_gate_changes_no_run, {"scenario": fast_forward.dense_light()}, 1_000),
]


# Seconds one example may take: the slowest passing ones take a few.
ALARM_S = 60


class Hung(Exception):
    """An example ran past its alarm."""


def _on_alarm(signum, frame):
    raise Hung("example ran past its alarm")


def soak(test, strategies, examples):
    """Runs ``test``'s body over ``examples`` examples of ``strategies``;
    returns the counts (run, rejected, failed)."""
    # A second @settings on the test raises InvalidArgument, so the body is
    # given its strategies again.
    inner = test.hypothesis.inner_test
    events = []
    counts = {"run": 0, "rejected": 0, "failed": 0}

    def example(**kwargs):
        counts["run"] += 1
        events.clear()
        signal.alarm(ALARM_S)
        try:
            inner(**kwargs)
        except UnsatisfiedAssumption:
            counts["rejected"] += 1
            raise
        except Exception as exc:  # noqa: BLE001 - recorded, and the run goes on
            counts["failed"] += 1
            message = str(exc).splitlines()[0] if str(exc) else ""
            print(f"  failed: {type(exc).__name__}: {message}\n    {kwargs!r}", flush=True)
            return
        finally:
            signal.alarm(0)
        if any(str(e).endswith("rejected") for e in events):
            counts["rejected"] += 1

    real_event = hypothesis.event

    def recorded_event(value, payload=""):
        events.append(value)
        real_event(value, payload)

    run = hypothesis.settings(
        database=None,
        derandomize=True,
        max_examples=examples,
        deadline=None,
        suppress_health_check=list(hypothesis.HealthCheck),
    )(hypothesis.given(**strategies)(example))
    hypothesis.event = recorded_event
    try:
        run()
    finally:
        hypothesis.event = real_event
    return counts["run"], counts["rejected"], counts["failed"]


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    failed = 0
    for test, strategies, examples in SOAKS:
        start = time.perf_counter()
        run, rejected, bad = soak(test, strategies, examples)
        seconds = time.perf_counter() - start
        counts = f"{run} run, {rejected} rejected, {bad} failed"
        print(f"{test.__name__}: {counts} ({seconds:.0f} s)", flush=True)
        failed += bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
