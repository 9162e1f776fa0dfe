"""The one exploration the NI checkers share (ni._slot): it serves a check
only when its program is the same object and its layout, component
table and base state are equal, it is never shared by two threads, a
check that raises leaves it empty, and it keeps no earlier program
alive. A burst check warns of an escaping run also when its runs and
nodes come from the exploration. A kept run holds only what a later view
can read."""

import gc
import json
import sys
import threading
import warnings
import weakref

import pytest

from rmikit import ni
from rmikit.asm import parse_program, reg_num
from rmikit.contracts import (SEQ, SHM, SPEC, STL, FuelExhausted,
                              SelfContainmentViolation)
from rmikit.corpus import load_entry
from rmikit.machine import ArchState, MemoryLayout, OutOfRangeAccess
from rmikit.modes import BURST
from rmikit.ni import (Policy, StateSpace, check_direct_ni,
                       check_hw_satisfies_one, check_relative_ni)

LAYOUT = MemoryLayout()
A0 = reg_num("a0")

# the shared address loaded depends on a secret byte at 0x1000
SECRET_INDEX = parse_program(
    "li t0, 0x1000\nlbu t1, 0(t0)\nadd t2, a0, t1\nlbu t3, 0(t2)\n")


def _space(a0=0x8000):
    return StateSpace(base_state=ArchState(regs={A0: a0}),
                      varying_cells=((0x1000, (0, 1, 2)),))


def _json(verdict):
    return json.dumps(verdict.to_json())


def _cold(check):
    ni._slot.clear()
    return check()


def _count_runs(monkeypatch):
    runs = []
    original = ni.simulate_committed

    def counting(program, state, layout):
        runs.append(state)
        return original(program, state, layout)
    monkeypatch.setattr(ni, "simulate_committed", counting)
    return runs


def _direct(space, layout=LAYOUT, exec_model=SEQ):
    return check_direct_ni(SECRET_INDEX, (SHM, exec_model), Policy(), space,
                           layout)


def test_mutated_base_state_is_never_served_a_stale_run(monkeypatch):
    """The base state's register dict changes between two checks of one
    space: the second check runs anew, up to its first violator, and its
    witness and traces are those of the changed base state."""
    space = _space()
    first = _direct(space)
    assert not first.holds
    space.base_state.regs[A0] = 0x8040
    runs = _count_runs(monkeypatch)
    second = _direct(space)
    assert [state.reg(A0) for state in runs] == [0x8040, 0x8040]
    assert _json(second) == _json(_cold(lambda: _direct(_space(0x8040))))
    assert _json(second) != _json(first)


def test_other_layout_is_never_served_a_stale_run(monkeypatch):
    """Under a layout whose shared range misses the loaded address, the
    check raises as on a cold exploration, not the verdict the first
    layout's runs give."""
    space = _space()
    assert not _direct(space).holds
    narrow = MemoryLayout(shared_range=(0x9000, 0xA000))
    runs = _count_runs(monkeypatch)
    with pytest.raises(OutOfRangeAccess):
        _direct(space, narrow)
    assert len(runs) == 1


def test_equal_but_distinct_space_reuses_runs(monkeypatch):
    """An equal StateSpace with its own base-state dicts matches the
    exploration: the second check runs nothing."""
    first = _direct(_space())
    runs = _count_runs(monkeypatch)
    second = _direct(_space())
    assert runs == []
    assert _json(second) == _json(first)


def test_program_equal_but_not_the_same_object_runs_anew(monkeypatch):
    _direct(_space())
    twin = parse_program(
        "li t0, 0x1000\nlbu t1, 0(t0)\nadd t2, a0, t1\nlbu t3, 0(t2)\n")
    assert twin == SECRET_INDEX and twin is not SECRET_INDEX
    runs = _count_runs(monkeypatch)
    check_direct_ni(twin, (SHM, SEQ), Policy(), _space(), LAYOUT)
    assert len(runs) == 2


def test_concurrent_checks_give_the_sequential_verdicts():
    """Threads that run the same checks of one program over one space,
    with the interpreter switching threads as often as it can, each get
    the verdicts of the checks run one after another."""
    entry = load_entry("spectre_v1")
    checks = [
        lambda: check_direct_ni(entry.program, (SHM, SEQ), entry.policy,
                                entry.space, entry.layout),
        lambda: check_direct_ni(entry.program, (SHM, SPEC), entry.policy,
                                entry.space, entry.layout),
        lambda: check_relative_ni(entry.program, (SHM, SEQ), (SHM, STL),
                                  entry.space, entry.layout),
        lambda: check_hw_satisfies_one(entry.program, BURST, (SHM, STL),
                                       entry.space, entry.layout)]
    want = [_json(check()) for check in checks]
    wrong = []

    def run(offset):
        for i in range(60):
            k = (i + offset) % len(checks)
            got = _json(checks[k]())
            if got != want[k]:
                wrong.append((k, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# a0 = 0 runs to the end, a0 = 1 spins until the fuel runs out
SPINS = parse_program("beq a0, zero, done\nspin:\njal zero, spin\ndone:\n")


@pytest.mark.parametrize("program, space, error", [
    (SPINS, StateSpace(base_state=ArchState(),
                       varying_registers=((A0, (0, 1)),)), FuelExhausted),
    (SECRET_INDEX, StateSpace(base_state=ArchState(regs={A0: 0x8FFF}),
                              varying_cells=((0x1000, (0, 1)),)),
     OutOfRangeAccess)],
    ids=["fuel", "fault"])
def test_check_that_raises_leaves_the_slot_empty(monkeypatch, program, space,
                                                 error):
    """The first state runs, a later one raises: the check puts nothing
    back in the slot, and repeating it runs both states again and raises
    the same error."""
    runs = _count_runs(monkeypatch)
    with pytest.raises(error) as first:
        check_direct_ni(program, (SHM, SPEC), Policy(), space, LAYOUT)
    assert ni._slot == []
    assert len(runs) == 2
    with pytest.raises(error) as again:
        check_direct_ni(program, (SHM, SPEC), Policy(), space, LAYOUT)
    assert str(again.value) == str(first.value)
    assert len(runs) == 4


def test_exploration_keeps_no_earlier_program_alive():
    """Once another program has been checked, nothing of the checkers
    holds an earlier one, and dropping it frees it."""
    program = parse_program(
        "lbu t1, 0(a0)\nbeq t1, zero, done\nli t2, 1\ndone:\n")
    space = StateSpace(base_state=ArchState(regs={A0: 0x1000}),
                       varying_cells=((0x1000, (0, 1)),))
    check_direct_ni(program, (SHM, SPEC), Policy(), space, LAYOUT)
    assert ni._slot[0].program is program
    ref = weakref.ref(program)
    del program
    _direct(_space())
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("warm_up", [
    lambda entry: check_direct_ni(entry.program, (SHM, STL), entry.policy,
                                  entry.space, entry.layout),
    lambda entry: check_relative_ni(entry.program, (SHM, SEQ), (SHM, STL),
                                    entry.space, entry.layout),
    lambda entry: check_hw_satisfies_one(entry.program, BURST, (SHM, STL),
                                         entry.space, entry.layout)],
    ids=["direct_stl", "relative_seq_stl", "burst"])
def test_warm_burst_check_still_warns_of_escape(monkeypatch, warm_up):
    """jal_far_away jumps out of its burst region with the flag on. After
    a warm-up check over its space, the Burst check takes its runs, its
    (shm, stl) nodes (Burst's view of a run with no decision point is the
    same splice) or its whole memo from the exploration, and still warns
    SelfContainmentViolation."""
    entry = load_entry("jal_far_away")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SelfContainmentViolation)
        warm_up(entry)
    runs = _count_runs(monkeypatch)
    with pytest.warns(SelfContainmentViolation, match="instruction 3"):
        verdict = check_hw_satisfies_one(entry.program, BURST, (SHM, STL),
                                         entry.space, entry.layout)
    assert verdict.holds
    assert runs == []



def test_kept_runs_hold_only_what_a_view_reads():
    """memcpy_right copies 4 bytes, and only the wrong path of its last
    branch loads the byte past them, which varies: the three states share
    one committed path. After a direct (shm, spec) check, its kept runs
    share one `steps` object, none holds a final state, and none holds
    the snapshot of a point whose windows have run (under spec, every
    branch)."""
    entry = load_entry("memcpy_right")
    a1, a2 = reg_num("a1"), reg_num("a2")
    space = StateSpace(
        base_state=ArchState(regs={A0: 0x8000, a1: 0x1100, a2: 4},
                             private_mem={0x1100 + i: i for i in range(4)}),
        varying_cells=((0x1104, (3, 200, 7)),))
    check_direct_ni(entry.program, (SHM, SPEC), Policy(), space, entry.layout)
    (exploration,) = ni._slot
    (kept_runs,) = [kept_runs for _, lists in exploration.runs.values()
                    for kept_runs in lists.values()]
    assert len(kept_runs) == 3
    for _, run, _, _ in kept_runs:
        assert run.steps is kept_runs[0][1].steps
        assert run.final_state is None
        assert run.resume and {pos for pos, _ in run.windows} == set(run.resume)
        assert all(snapshot is None for snapshot in run.resume.values())
