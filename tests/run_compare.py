"""Comparison of two runs of the same scenario, one with per-event detail
and one without.

A run without detail may skip stretches of identical wakeups in closed form,
which changes how its floats are summed but not what happens: every counter
and the QoS histogram must be equal, every other float must agree to 1e-9
relative, and both runs must conserve energy to 1e-6 relative.

Rounding decides ties, though: when a crossing falls on a wakeup in exact
arithmetic (round inputs can make a drain reach the cutoff exactly at one),
the two runs may settle it on opposite sides.  Given a way to rerun the
detailed run from a nudged initial voltage, a mismatch is then accepted when
one of the nudged detailed runs matches instead.
"""

import math
from dataclasses import fields

from luxmote.simulate import NodeLog, ledger_summary

REL_TOL = 1e-9
RESIDUAL_LIMIT = 1e-6
# Relative nudge of the initial voltage: above the rounding that separates
# the two runs, far below the float tolerance.
TIE_NUDGE = 1e-11
# Conservation defects: ~0 up to rounding, so only their size is checked.
_RESIDUALS = ("energy_residual_j", "energy_residual_relative")


def _assert_close(full, slim, where):
    if isinstance(full, dict):
        assert full.keys() == slim.keys(), where
        for key in full:
            _assert_close(full[key], slim[key], f"{where}.{key}")
    elif isinstance(full, float):
        assert math.isclose(full, slim, rel_tol=REL_TOL, abs_tol=0.0) or full == slim, (
            f"{where}: {full!r} != {slim!r}"
        )
    else:
        assert full == slim, f"{where}: {full!r} != {slim!r}"


def assert_same_run(full, slim, rerun=None):
    """``full`` ran with detail, ``slim`` without; ``rerun(scale)``, when
    given, repeats the detailed run with the initial voltage times ``scale``.
    See the module docstring."""
    try:
        _assert_same(full, slim)
    except AssertionError as exc:
        if rerun is None:
            raise
        for scale in (1.0 + TIE_NUDGE, 1.0 - TIE_NUDGE):
            try:
                _assert_same(rerun(scale), slim)
                return
            except AssertionError:
                pass
        raise exc


def _assert_same(full, slim):
    a, b = ledger_summary(full), ledger_summary(slim)
    for key in _RESIDUALS:
        a.pop(key)
        b.pop(key)
    _assert_close(a, b, "ledger_summary")
    # Then the fields the summary leaves out, but for the per-event records
    # that only the detailed run keeps and the residual's rounding floor,
    # which counts the integrator steps that a fast-forward saves.
    for f in fields(NodeLog):
        left_out = not f.metadata.get("summary", True)
        if left_out and not f.metadata.get("detail_only") and f.name != "residual_floor_j":
            _assert_close(getattr(full, f.name), getattr(slim, f.name), f.name)
    for log in (full, slim):
        assert log.energy_residual_relative <= RESIDUAL_LIMIT
