"""The brute-force trace-set enumerator, kept as the reference oracle for
rmikit.contracts.TraceDag: the product of per-point window choices,
spliced into the committed events one trace at a time, with each window
run by the step oracle (tests/step_oracle.py), at decision points found
by this module's own copy of the mispredict-target rule
(`decision_points`), not by contracts.Projection.options."""

import itertools

from rmikit.asm import BRANCHES
from rmikit.contracts import ROLLBACK, _events, enforce_enum_cap

import step_oracle


def _targets(program, index, actual, exec_kind):
    """The admissible mispredict targets of the control step at `index`
    whose committed successor is `actual`: under stl the fall-through of
    a taken branch (branches are predicted not-taken); under spec the
    other arm of every branch, and every program index but `actual` after
    a jalr (a poisoned BTB or RSB). A jal, and every step under seq, has
    none."""
    opcode = program.instructions[index].opcode
    fall_through = index + 1
    if opcode in BRANCHES and exec_kind == "stl":
        return (fall_through,) if actual != fall_through else ()
    if opcode in BRANCHES and exec_kind == "spec":
        if actual != fall_through:
            return (fall_through,)
        return (program.instructions[index].target,)
    if opcode == "jalr" and exec_kind == "spec":
        return tuple(t for t in range(len(program)) if t != actual)
    return ()


def decision_points(run, exec_kind, burst_only=False):
    """The options of `run` (as TraceDag.splice takes them) under the
    execution model `exec_kind`: every committed step with a mispredict
    target, in execution order, and with `burst_only` only those run
    with the burst flag on, paired with None and then its targets."""
    points = []
    for pos, (index, effect, burst_active) in enumerate(run.steps):
        targets = _targets(run.program, index, effect.next_pc, exec_kind)
        if targets and (burst_active or not burst_only):
            points.append((pos, (None,) + targets))
    return points


def splice_product(run, leak, options):
    """Set of traces of `run` over every combination of choices; `options`
    as for TraceDag.splice."""
    total = 1
    for _, choices in options:
        total *= len(choices)
        enforce_enum_cap(total, "traces")
    kind = leak.kind
    segments, windows, start = [], [], 0
    for pos, choices in options:
        segments.append(_events(run.steps[start:pos + 1], kind))
        windows.append([
            () if target is None
            else _events(step_oracle.window(run.program, run.resume[pos],
                                            target, run.layout),
                         kind) + ROLLBACK
            for target in choices])
        start = pos + 1
    tail = _events(run.steps[start:], kind)
    traces = set()
    for combo in itertools.product(*windows):
        trace = []
        for segment, window in zip(segments, combo):
            trace += segment
            trace += window
        traces.add(tuple(trace) + tail)
    return frozenset(traces)


def oracle_trace_set(run, leak, exec_model):
    return splice_product(run, leak, decision_points(run, exec_model.kind))


def oracle_burst_set(run, leak):
    """The burst-mode projection: stl points reached with the flag on."""
    return splice_product(run, leak, decision_points(run, "stl",
                                                     burst_only=True))
