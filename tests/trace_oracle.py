"""The brute-force trace-set enumerator, kept as the reference oracle for
rmikit.contracts.TraceDag: the product of per-point window choices,
spliced into the committed events one trace at a time, with each window
run by the step oracle (tests/step_oracle.py)."""

import itertools

from rmikit.contracts import ROLLBACK, STL, _events, enforce_enum_cap

import step_oracle


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
    return splice_product(run, leak, [(p.step, (None,) + p.targets)
                                      for p in run.decision_points(exec_model)])


def oracle_burst_set(run, leak):
    """The burst-mode projection: stl points reached with the flag on."""
    return splice_product(run, leak, [(p.step, (None,) + p.targets)
                                      for p in run.decision_points(STL)
                                      if p.burst_active])
