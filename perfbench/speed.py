"""Gauge of the machine's speed at the moment, for scaling timings.

The shared virtual machine the benchmark runs on changes speed in phases
of seconds to minutes: a fixed pure-Python loop takes from 44 to 85 ms
of CPU time within one minute, on either vCPU. A 30-s run can fall mostly
in one phase, and then every time it measures moves with the phase. The
benchmark times `gauge` between the verdicts of a timed pass, every
0.3 s of verdict time, and right before and right after each set-up
probe, and scales the times between two readings by
REFERENCE_S / (mean of the two readings): a time is reported as it would
read at the speed where the gauge loop takes REFERENCE_S. The loop uses
none of rmikit, so a change to rmikit cannot move the scale.
"""

from dataclasses import dataclass, replace
from time import process_time

# CPU time of one gauge loop at the reference speed: the median of 960
# readings over ten 30-s runs on the 2-vCPU machine of the README.
REFERENCE_S = 0.027
ROUNDS = 6000


@dataclass(frozen=True)
class _State:
    pc: int
    regs: dict
    mem: dict


def gauge():
    """CPU seconds of one fixed loop of the work rmikit's simulator does
    on every step: copy a small memory dict, store into the copy, make a
    new frozen state with dataclasses.replace, and collect tuples in a set.
    A loop of plain dict and tuple work tracked the workloads' times less
    closely (see the README)."""
    start = process_time()
    state = _State(0, {r: r for r in range(32)}, {a: a & 255 for a in range(64)})
    seen = set()
    for i in range(ROUNDS):
        mem = dict(state.mem)
        mem[(i * 13) & 63] = i & 255
        state = replace(state, pc=state.pc + 4, mem=mem)
        seen.add((state.pc & 255, mem[(i * 7) & 63], tuple(sorted(state.regs)[:4])))
        if len(seen) > 2048:
            seen = set()
    return process_time() - start
