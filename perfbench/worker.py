"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py '<spec JSON>'

The spec names the workload, the source tree, the prepared input directory,
an output directory for this repetition and whether to trace.  The last line
printed is one JSON object: set-up and run times, peak RSS, the simulated
statistics with their digest, the output checks and, when traced, the
per-layer counters.  Spans are handed over only here, when the run has ended.
"""

import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path


def _calibration_loop() -> float:
    """Fixed pure-Python work of about 2 ms: calls, float arithmetic, tuple
    shifts and dict stores, the operations the simulator's hot path is made
    of.  It never changes, so its time tracks the host's speed alone."""
    acc = 0.0
    buf = (0.0,) * 5
    table = {}
    for i in range(5000):
        buf = buf[1:] + (i * 0.5,)
        acc += math.sqrt(abs(sum(buf) - acc))
        table[i & 255] = acc
    return acc


class HostSpeed:
    """Times the calibration loop every ``INTERVAL_S`` of wall time while the
    workload runs, from a SIGALRM handler in this same thread.

    Host speed on a shared machine drifts by tens of percent over seconds to
    minutes.  Sampling it interleaved with the workload, on the same CPU,
    measures the speed the workload actually ran at; the time spent sampling
    is subtracted from the measured times.
    """

    INTERVAL_S = 0.05
    MIN_SAMPLES = 20

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _calibration_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent_s += dt

    def clock(self) -> float:
        """Wall clock in seconds, less the time spent sampling."""
        return time.perf_counter() - self.spent_s

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the mean calibration time, topped up with direct
        samples when the run was too short to gather enough."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < self.MIN_SAMPLES:
            self._sample(None, None)
        return statistics.fmean(self.samples)


def main() -> None:
    spec = json.loads(sys.argv[1])
    root, work, out = Path(spec["root"]), Path(spec["work"]), Path(spec["out"])
    sys.path.insert(0, str(root / "src"))

    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    speed = HostSpeed()
    speed.start()
    t0 = speed.clock()
    import luxmote

    tracer = None
    if spec["traced"]:
        tracer = Tracer(speed.clock)
        tracer.install()
        call = tracer.call
    else:

        def call(layer, fn, *args, **kwargs):
            return fn(*args, **kwargs)

    inputs = workload.setup(root, work, call)
    setup_s = speed.clock() - t0
    out.mkdir(parents=True)
    t1 = speed.clock()
    result = workload.run(inputs, out, call, speed.clock)
    wall_s = speed.clock() - t1
    calibration_s = speed.stop()
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = workload.summarize(result, out)
    shutil.rmtree(out)
    stats = summary.pop("stats")
    stats_json = json.dumps(stats, sort_keys=True)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "sim_s": result["sim_s"],
        "calibration_s": calibration_s,
        "calibration_samples": len(speed.samples),
        "peak_rss_mib": peak_rss_mib,
        "stats": stats,
        "stats_digest": hashlib.sha256(stats_json.encode()).hexdigest(),
        "env": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "luxmote": luxmote.__version__,
        },
        **summary,
    }
    if tracer is not None:
        record["trace"] = {
            "window_s": setup_s + wall_s,
            "self_sum_s": tracer.self_total_s(),
            **tracer.export(),
        }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
