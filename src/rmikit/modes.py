"""Attacker-observation semantics for the modeled defense modes.

Each mode maps a (program, initial state) pair to the set of observation
traces an attacker can obtain:

    insecure   shared-memory addresses, all speculative paths live
    mi6        nothing (no shared memory at all)
    safe       the non-speculative shared-memory trace, exactly
    burst      straight-line speculation, but only inside burst regions
    burst_sta  burst if the static analyzer accepted the program,
               otherwise the program is refused and nothing is observed;
               a run must start at instruction 0, where the analysis
               starts (UnanalyzedStart otherwise)

Each mode that observes anything projects one committed run: insecure is
the (shm, spec) contract, safe (shm, seq), and burst (shm, stl) with only
the decision points reached while the MSPEC flag is on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .contracts import (SEQ, SHM, SPEC, STL, Projection,
                        SelfContainmentViolation, TraceDag, simulate_committed)

MODE_KINDS = ("insecure", "mi6", "safe", "burst", "burst_sta")


class ModeError(Exception):
    pass


class ReportProgramMismatch(ModeError):
    pass


class UnanalyzedStart(ModeError):
    """burst_sta from a start pc other than 0: the analyzer unwinds each
    burst region's prefix to instruction 0, so its verdict covers only
    the runs that start there."""


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


def runtime_escape(run):
    """The first instruction `run` executes with the burst flag on
    outside every static burst region, or None."""
    inside = {index for on, off in run.program.burst_regions
              for index in range(on, off + 1)}
    for index, _, burst_active in run.steps:
        if burst_active and index not in inside:
            return index
    return None


def warn_escape(index, stacklevel):
    """The SelfContainmentViolation diagnostic for an escape at `index`;
    traces are still returned."""
    warnings.warn(f"instruction {index} executed with burst mode on "
                  f"outside every static burst region",
                  SelfContainmentViolation, stacklevel=stacklevel + 1)


def sta_gate(program, report):
    """Resolve the analyzer-gated mode: burst when the report passed,
    refusal otherwise."""
    if report is None or report.program != program:
        raise ReportProgramMismatch(
            "analysis report does not correspond to this program")
    return BURST if report.verdict == "pass" else None


def check_start(mode, state):
    """Refuse a state that `mode` cannot judge from: under burst_sta, one
    whose pc is not 0. Every other mode takes any start pc."""
    if mode.kind == "burst_sta" and state.pc != 0:
        raise UnanalyzedStart(
            f"burst_sta covers only runs that start at instruction 0, "
            f"not at {state.pc}")


def hw_projection(program, mode, sta_report=None):
    """The attacker's view under `mode` as a contracts.Projection of a
    committed run of `program`; or None when the mode lets the attacker
    observe nothing (mi6, or burst_sta refusing the program), which needs
    no run. Burst mode's view is (shm, stl) with only the decision points
    reached while the MSPEC flag is on."""
    kind = mode.kind
    if kind == "burst_sta":
        kind = "burst" if sta_gate(program, sta_report) else "mi6"
    if kind == "mi6":
        return None
    if kind == "insecure":
        return Projection(SHM, SPEC)
    if kind == "safe":
        return Projection(SHM, SEQ)
    return Projection(SHM, STL, burst_only=True)


def hw_trace_set(program, state0, layout, mode, sta_report=None):
    """Attacker-observable trace set of `program` from `state0` under
    `mode`. A burst run that escapes its static regions warns
    SelfContainmentViolation."""
    check_start(mode, state0)
    project = hw_projection(program, mode, sta_report)
    if project is None:
        return EMPTY_TRACE_SET
    dag = TraceDag()
    run = simulate_committed(program, state0, layout)
    if project.burst_only:
        escape = runtime_escape(run)
        if escape is not None:
            warn_escape(escape, stacklevel=2)
    return dag.traces(project(dag, run))
