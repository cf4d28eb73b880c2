"""Outside-in tracing of luxmote's layer boundaries.

The benchmark never edits luxmote's sources.  It rebinds, in the namespace of
the calling module, each public function through which one luxmote module
calls another (``luxmote.simulate.step`` is the name by which the simulator
reaches the QoS controller) to a wrapper that counts calls and accumulates
inclusive and self time.  Self time is a span's duration minus the time of the
traced spans it caused, so the self times of one run add up to no more than
the traced wall time.

Per-wakeup spans are folded into per-layer counters as they close, which keeps
memory constant over millions of calls.  Coarse spans (loaders, writers,
``run_node``, CLI commands) are also kept as ``(name, start, end, parent)``
records.  Both stay in memory and are handed back when the run ends.
"""

from __future__ import annotations

import importlib
import time
import types

# (calling module, name bound there, layer.function it reaches).  A binding
# that no longer exists is skipped; a layer with no binding left is reported
# as absent instead of failing the run.
BOUNDARIES = (
    ("luxmote.simulate", "step", "qos.step"),
    ("luxmote.simulate", "interval_for", "qos.interval_for"),
    ("luxmote.explore", "interval_for", "qos.interval_for"),
    ("luxmote.simulate", "reset", "qos.reset"),
    ("luxmote.simulate", "discharge", "energy.discharge"),
    # "heapq.heappush": reached through the heapq module bound in the caller.
    ("luxmote.simulate", "heapq.heappush", "simulate.heap.push"),
    ("luxmote.simulate", "heapq.heappop", "simulate.heap.pop"),
    ("luxmote.simulate", "heappush", "simulate.heap.push"),
    ("luxmote.simulate", "heappop", "simulate.heap.pop"),
    ("luxmote.deployment", "run_node", "simulate.run_node"),
    ("luxmote.cli", "run_node", "simulate.run_node"),
    # write_deployment_report imports the writer when it runs, so the binding
    # to replace for that caller is the defining module's own.
    ("luxmote.simulate", "write_node_log_csv", "simulate.write_node_log_csv"),
    ("luxmote.cli", "write_node_log_csv", "simulate.write_node_log_csv"),
    ("luxmote.cli", "load_trace_csv", "traces.load_trace_csv"),
    ("luxmote.cli", "load_deployment_config", "config.load_deployment_config"),
    ("luxmote.cli", "load_sweep_grid", "config.load_sweep_grid"),
    ("luxmote.cli", "run_deployment", "deployment.run_deployment"),
    ("luxmote.cli", "write_deployment_report", "deployment.write_deployment_report"),
    # Called from inside their own module; looked up as globals at call time.
    ("luxmote.deployment", "compute_metrics", "deployment.compute_metrics"),
    ("luxmote.deployment", "report_summary", "deployment.report_summary"),
    ("luxmote.cli", "sweep", "explore.sweep"),
    ("luxmote.explore", "min_lux_for_perpetual", "explore.min_lux_for_perpetual"),
    ("luxmote.cli", "write_frontier_csv", "explore.write_frontier_csv"),
)

# Layers the benchmark itself calls into, so they are never absent.
ENTRY_LAYERS = (
    "cli.main",
    "config.load_deployment_config",
    "config.load_node_config",
    "config.load_sweep_grid",
    "deployment.run_deployment",
    "simulate.run_node",
    "traces.load_trace_csv",
)

# One span per wakeup or more: counted, not kept as records.
_HOT = {
    "qos.step",
    "qos.interval_for",
    "qos.reset",
    "energy.discharge",
    "simulate.heap.push",
    "simulate.heap.pop",
    "explore.min_lux_for_perpetual",
}


def _events(log) -> int:
    """Discrete node events a run dispatched, from its own counters."""
    return (
        log.controller_steps
        + log.events_detected
        + log.events_missed_dead
        + log.deaths
        + log.recoveries
    )


# Work units per call, for the per-unit metrics: samples parsed, records
# written, rows swept, events simulated.
_UNITS = {
    "traces.load_trace_csv": lambda args, result: len(result),
    "simulate.write_node_log_csv": lambda args, result: len(args[0].records),
    "explore.sweep": lambda args, result: len(result),
    "simulate.run_node": lambda args, result: _events(result),
}


class Tracer:
    """Per-layer counters ``[calls, inclusive_s, self_s, units]`` plus the
    coarse span records of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, list] = {}
        self.spans: list = []
        self.absent: list[str] = []
        self._stack = [0.0]  # children time of each open span; [0] is the root
        self._open: list[int] = []  # indices of open coarse spans
        self._replaced: list[tuple] = []  # (owner, name, original) to restore

    def wrap(self, fn, layer):
        stat = self.layers.setdefault(layer, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = self.clock
        units = _UNITS.get(layer)

        if layer in _HOT:

            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - child

            return traced

        spans = self.spans
        open_spans = self._open

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                child = stack.pop()
                stack[-1] += dt
                open_spans.pop()
                spans[sid] = (layer, t0, t1, parent)
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
            if units is not None:
                stat[3] += units(args, result)
            return result

        return traced

    def call(self, layer, fn, *args, **kwargs):
        """Call into a layer from the benchmark itself, as a traced span."""
        return self.wrap(fn, layer)(*args, **kwargs)

    def install(self) -> None:
        """Rebind every boundary in ``BOUNDARIES`` that exists."""
        # Import every caller first: a module imported after a patch would
        # bind the wrapper and wrap it a second time.
        modules = {m: importlib.import_module(m) for m, _, _ in BOUNDARIES}
        found = set(ENTRY_LAYERS)
        wanted = set()
        for module_name, attr, layer in BOUNDARIES:
            wanted.add(layer)
            owner = modules[module_name]
            via, _, name = attr.rpartition(".")
            if via:
                module = owner
                owner = getattr(module, via, None)
                if isinstance(owner, types.ModuleType):
                    # A private stand-in, so that other users of the module
                    # in this process stay untraced.
                    owner = types.SimpleNamespace(**vars(owner))
                    setattr(module, via, owner)
            if owner is not None and hasattr(owner, name):
                original = getattr(owner, name)
                self._replaced.append((owner, name, original))
                setattr(owner, name, self.wrap(original, layer))
                found.add(layer)
        self.absent = sorted(wanted - found)

    def uninstall(self) -> None:
        """Restore the original bindings, so that later calls go untraced."""
        for owner, name, original in reversed(self._replaced):
            setattr(owner, name, original)
        self._replaced.clear()

    def self_total_s(self) -> float:
        """Sum of all layers' self time: the time of the outermost spans."""
        return sum(stat[2] for stat in self.layers.values())

    def export(self) -> dict:
        return {
            "layers": {
                name: {"calls": s[0], "incl_s": s[1], "self_s": s[2], "units": s[3]}
                for name, s in sorted(self.layers.items())
            },
            "spans": [list(s) for s in self.spans],
            "absent": self.absent,
        }
