"""Attacker-observation semantics for the modeled defense modes.

Each mode maps a (program, initial state) pair to the set of observation
traces an attacker can obtain:

    insecure   shared-memory addresses, all speculative paths live
    mi6        nothing (no shared memory at all)
    safe       the non-speculative shared-memory trace, exactly
    burst      straight-line speculation, but only inside burst regions
    burst_sta  burst if the static analyzer accepted the program,
               otherwise the program is refused and nothing is observed

Each mode that observes anything projects one committed run: insecure is
the (shm, spec) contract, safe (shm, seq), and burst (shm, stl) with only
the decision points reached while the MSPEC flag is on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .contracts import (SEQ, SHM, SPEC, STL, SelfContainmentViolation,
                        TraceDag, simulate_committed)

MODE_KINDS = ("insecure", "mi6", "safe", "burst", "burst_sta")


class ModeError(Exception):
    pass


class ReportProgramMismatch(ModeError):
    pass


@dataclass(frozen=True)
class HwMode:
    kind: str

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise ValueError(f"unknown hardware mode {self.kind!r}")


INSECURE = HwMode("insecure")
MI6 = HwMode("mi6")
SAFE = HwMode("safe")
BURST = HwMode("burst")
BURST_STA = HwMode("burst_sta")

EMPTY_TRACE_SET = frozenset({()})


def _check_runtime_containment(run):
    """Warn if execution with the burst flag on ever leaves every static
    burst region; traces are still returned."""
    for index, _, burst_active in run.steps:
        if burst_active and not any(
                on <= index <= off for on, off in run.program.burst_regions):
            warnings.warn(
                f"instruction {index} executed with burst mode on "
                f"outside every static burst region",
                SelfContainmentViolation, stacklevel=3)
            return


def sta_gate(program, report):
    """Resolve the analyzer-gated mode: burst when the report passed,
    refusal otherwise."""
    if report is None or report.program != program:
        raise ReportProgramMismatch(
            "analysis report does not correspond to this program")
    return BURST if report.verdict == "pass" else None


def hw_projection(program, mode, sta_report=None):
    """The attacker's view under `mode` as a function of a TraceDag and a
    committed run of `program`, which returns the node of the run's
    observable trace set in that table; or None when the mode lets the
    attacker observe nothing (mi6, or burst_sta refusing the program),
    which needs no run."""
    kind = mode.kind
    if kind == "burst_sta":
        kind = "burst" if sta_gate(program, sta_report) else "mi6"
    if kind == "mi6":
        return None
    if kind == "insecure":
        return lambda dag, run: dag.trace_key(run, SHM, SPEC)
    if kind == "safe":
        return lambda dag, run: dag.trace_key(run, SHM, SEQ)

    def burst(dag, run):
        _check_runtime_containment(run)
        options = [(p.step, (None,) + p.targets)
                   for p in run.decision_points(STL) if p.burst_active]
        return dag.splice(run, SHM, options)
    return burst


def hw_trace_set(program, state0, layout, mode, sta_report=None):
    """Attacker-observable trace set of `program` from `state0` under `mode`."""
    project = hw_projection(program, mode, sta_report)
    if project is None:
        return EMPTY_TRACE_SET
    dag = TraceDag()
    run = simulate_committed(program, state0, layout)
    return dag.traces(project(dag, run))
