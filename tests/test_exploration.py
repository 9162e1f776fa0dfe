"""The one exploration the NI checkers share (ni._slot): it serves a check
only when its program is the same object and its layout, component
table and base state are equal, it is never shared by two threads, a
check that raises leaves it empty, and it keeps no earlier program
alive. A burst check warns of an escaping run also when its runs and
nodes come from the exploration. A kept run holds only what a later view
can read, and a run derived from a committed path starts its windows on
the snapshots that simulate_committed gives its state, and runs the same
windows."""

import gc
import itertools
import json
import random
import sys
import threading
import warnings
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ni_oracle
import snippetgen
import step_oracle
from test_ni import _count_derived
from test_shared_runs import _programs
from rmikit import ni
from rmikit.asm import parse_program, reg_num
from rmikit.contracts import (ARCH, LEAK_KINDS, SEQ, SHM, SPEC, STL,
                              ContractError, ExecModel, FuelExhausted,
                              LeakageModel, Projection,
                              SelfContainmentViolation, committed_words,
                              simulate_committed)
from rmikit.corpus import load_entry
from rmikit.machine import (ArchState, MachineError, MemoryLayout,
                            OutOfRangeAccess)
from rmikit.modes import BURST, hw_trace_set
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

    def counting(program, start, layout, *walk):
        runs.append(step_oracle.as_state(start))
        return original(program, start, layout, *walk)
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



# With a0 = 5 the run takes `body`, whose branch jumps over the load, and
# leaves the burst region by its csrwi; with a0 = 0 it jumps to `out`,
# past the region's end, with the flag on. The check is violated with
# witness a0 = 5, and the escaping run a0 = 0 is first met while the
# witness is shrunk.
ESCAPE_IN_SHRINK = parse_program("""
    csrwi MSPEC, BURST_ON
    bne a0, zero, body
    jal zero, out
body:
    beq zero, zero, skip
    lbu t0, 0(a2)
skip:
    csrwi MSPEC, BURST_OFF
out:
""")


FAR_AWAY = load_entry("jal_far_away")


def _burst_far_away():
    return check_hw_satisfies_one(FAR_AWAY.program, BURST, (SHM, STL),
                                  FAR_AWAY.space, FAR_AWAY.layout)


def _escape_in_shrink():
    space = StateSpace(base_state=ArchState(), varying_registers=(
        (A0, (5, 0)), (reg_num("a2"), (0x8000, 0x8001))))
    verdict = check_hw_satisfies_one(ESCAPE_IN_SHRINK, BURST, (SHM, SEQ),
                                     space, LAYOUT)
    assert not verdict.holds and verdict.witness[0].reg(A0) == 5
    return verdict


def _hw_trace_set_far_away():
    return hw_trace_set(FAR_AWAY.program, FAR_AWAY.space.base_state,
                        FAR_AWAY.layout, BURST)


@pytest.mark.parametrize("warm, check", [
    (False, _burst_far_away), (True, _burst_far_away),
    (False, _escape_in_shrink), (False, _hw_trace_set_far_away)],
    ids=["cold", "warm_memo_hit", "escape_in_shrink", "hw_trace_set"])
def test_escape_warning_points_at_the_caller(monkeypatch, warm, check):
    """A check's one SelfContainmentViolation names the line that called
    the check, wherever the escape is first met: on a cold check, on a
    warm check that every state's memo entry serves, while the witness
    is shrunk, and in modes.hw_trace_set."""
    ni._slot.clear()
    if warm:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SelfContainmentViolation)
            check()
    runs = _count_runs(monkeypatch)
    with pytest.warns(SelfContainmentViolation) as record:
        check()
    assert len(record) == 1
    assert record[0].filename == __file__
    if warm:
        assert runs == []


def test_kept_runs_hold_only_what_a_view_reads():
    """memcpy_right copies 4 bytes, and only the wrong path of its last
    branch loads the byte past them, which varies: the three states share
    one committed path. Under arch the loaded byte is observed, so
    relative NI of (arch, spec) with itself, which holds, serves all
    three (under shm the byte, only copied, splits nothing, and one run
    serves them). After that check, the path keeps its steps and
    snapshots once, in its first state's CommittedRun, which holds no
    final state; the other two runs are derived from it. A kept run is
    its state, its windows and its nodes: every run has run the window
    of every branch (under spec, every branch has one), each window is
    its (steps, read slots) pair, and every run keys its nodes by the
    path's own view objects. Every path, one
    with a single run too, holds each view with its committed words."""
    entry = load_entry("memcpy_right")
    a1, a2 = reg_num("a1"), reg_num("a2")
    space = StateSpace(
        base_state=ArchState(regs={A0: 0x8000, a1: 0x1100, a2: 4},
                             private_mem={0x1100 + i: i for i in range(4)}),
        varying_cells=((0x1104, (3, 200, 7)),))
    assert check_relative_ni(entry.program, (ARCH, SPEC), (ARCH, SPEC), space,
                             entry.layout).holds
    (exploration,) = ni._slot
    (path,) = [path for _, paths in exploration.runs.values()
               for path in paths.values()]
    assert len(path.kept) == 3
    assert path.kept[0][0] is path.origin and path.first.resume
    assert path.first.final is None and path.first.read is None
    views = [record.view for record in path.views.values()]
    for _, windows, nodes in path.kept:
        assert {pos for pos, _ in windows} == set(path.first.resume)
        assert all(len(window) == 2 for window in windows.values())
        assert nodes and all(any(key is view for view in views)
                             for key in nodes)
    # A path holds each view with its committed words, made together,
    # also while it has a single run.
    single = StateSpace(base_state=space.base_state,
                        varying_cells=((0x1104, (3,)),))
    assert check_relative_ni(entry.program, (ARCH, SPEC), (ARCH, SPEC),
                             single, entry.layout).holds
    (lone,) = [lone for _, paths in ni._slot[0].runs.values()
               for lone in paths.values()]
    assert len(lone.kept) == 1
    for held in (path, lone):
        assert held.views
        for key, record in held.views.items():
            view, words = record.view, record.parts[0]
            if isinstance(key, Projection):
                assert view == (key.leak.kind, key.options(held.first))
                assert held.views[view] is held.views[key]
            else:
                assert key == view
            assert words == committed_words(held.first.steps, *view)


CONTRACTS = [(LeakageModel(leak), ExecModel(kind))
             for leak in LEAK_KINDS for kind in ("stl", "spec")]


def _start(path, pos, origin, exploration):
    """The state a window of `origin` after the control step `pos` starts
    from, as ni._Path.start gives it: the path's snapshot with the
    register patch set and the overlay's cells stored, as a core
    (regs, mems); or None where the path keeps no snapshot, as every
    window there is state-free and so needs no patch."""
    core, regs, overlay = path.start(pos, origin, exploration)
    if core is None:
        return None
    start, snapshot = core
    mems = {domain: dict(mem) for domain, mem in snapshot.items()}
    for (domain, address), byte in overlay.items():
        mems[domain][address] = byte
    return {**start, **regs}, mems


def _assert_kept_runs_match_committed_runs(program, space):
    """Every kept run of the slot's exploration, derived ones included:
    its path's steps and the start of its windows at each control
    position (the path's snapshot, patched for a derived run) equal
    simulate_committed's steps and snapshots from its state, and the raw
    steps of each window it ran equal the step oracle's window from that
    snapshot. So do the steps and the start that the path would give
    every other state of the space that agrees with it on its committed
    read set. Returns the number of derived runs."""
    (exploration,) = ni._slot
    table = exploration.table
    paths = [path for _, paths in exploration.runs.values()
             for path in paths.values()]

    def committed_run(origin):
        return simulate_committed(program, ni._state(space.base_state, table, [
            row[3][i] for row, i in zip(table, origin)]), LAYOUT)

    for origin in itertools.product(*(range(len(row[3])) for row in table)):
        for path in paths:
            if all(origin[i] == path.origin[i] for i in path.committed):
                fresh = committed_run(origin)
                assert fresh.steps == path.first.steps
                assert {pos: _start(path, pos, origin, exploration)
                        for pos in fresh.resume} == fresh.resume
    for path in paths:
        for origin, windows, _ in path.kept:
            fresh = committed_run(origin)
            assert fresh.steps == path.first.steps
            assert {pos: _start(path, pos, origin, exploration)
                    for pos in fresh.resume} == fresh.resume
            assert {key: steps for key, (steps, _) in windows.items()} == {
                (pos, target): step_oracle.window(
                    program, fresh.resume[pos], target, LAYOUT)
                for pos, target in windows}
    _assert_kept_nodes_match_committed_runs(exploration, paths, committed_run)
    return sum(len(path.kept) - 1 for path in paths)


def _assert_kept_nodes_match_committed_runs(exploration, paths,
                                            committed_run):
    """Every kept run, derived ones included, against simulate_committed's
    run from its state, with each window run by the step oracle from that
    run's snapshot and its slots listed by the step oracle's read rule
    (step_oracle.Reads): each window it ran is that window's (steps, read
    slots) pair, and for each view in its node map, the node is the
    exploration DAG's splice of those windows under the view's kind and
    options, and the read slots are those windows', last decision point
    first."""
    dag, program, layout = (exploration.dag, exploration.program,
                            exploration.layout)
    reads = step_oracle.Reads(program, exploration.registers,
                              exploration.cells)
    for path in paths:
        for origin, windows, nodes in path.kept:
            fresh = committed_run(origin)

            def window(pos, target):
                steps = step_oracle.window(program, fresh.resume[pos], target,
                                           layout)
                return steps, tuple(reads(steps, target))

            for (pos, target), ran in windows.items():
                assert ran == window(pos, target)
            for (kind, options), (node, slots) in nodes.items():
                oracle = {(pos, target): window(pos, target)
                          for pos, choices in options
                          for target in choices[1:]}
                assert node == dag.splice(oracle, kind, options, dag.parts(
                    fresh.steps, kind, options))
                assert list(slots) == [
                    slot for pos, choices in reversed(options)
                    for target in choices[1:]
                    for slot in oracle[pos, target][1]]


MAPPED_BASES = (0x1000, 0x1008, 0x1010, 0x8000, 0x8008)
BYTES = (0, 8, 1, 0x10, 0xFF)


@st.composite
def _snippet_cases(draw):
    """(program, space, contracts): a tests/snippetgen.py snippet, or one
    behind a jalr prefix, over a random space whose committed paths are
    fault-free (the generator's own space otherwise), and one to three
    contracts with windows; a jalr program's first is under spec."""
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    jalr = draw(st.booleans())
    if jalr:
        program, space = snippetgen.generate_jalr_snippet(rng)
    else:
        program = snippetgen.generate_snippet(rng)
        space = snippetgen.SNIPPET_SPACE
    # the varied registers, and one scratch register that the snippet
    # may write before a branch without its committed path reading it
    scratch = draw(st.sampled_from(snippetgen.TEMP_REGS))
    registers = [(reg_num(r), tuple(draw(st.lists(
        st.sampled_from(MAPPED_BASES), min_size=1 + (r == scratch),
        max_size=3, unique=True)))) for r in snippetgen.VAR_REGS + (scratch,)]
    if jalr:
        # a3 past the jalr and up to the region's entry: other paths
        registers.append((reg_num("a3"), tuple(draw(st.lists(
            st.integers(1, 6), min_size=1, max_size=2, unique=True)))))
    cells = tuple((addr, tuple(draw(st.lists(
        st.sampled_from(BYTES), min_size=2, max_size=3, unique=True))))
        for addr in draw(st.lists(st.sampled_from(range(0x1000, 0x1010)),
                                  min_size=1, max_size=3, unique=True)))
    drawn = StateSpace(base_state=space.base_state,
                       varying_registers=tuple(registers), varying_cells=cells)
    if snippetgen.committed_paths_ok(program, drawn):
        space = drawn
    contracts = draw(st.lists(st.sampled_from(CONTRACTS), min_size=1,
                              max_size=3))
    if jalr:
        contracts[0] = (contracts[0][0], SPEC)
    return program, space, contracts


@st.composite
def _window_cases(draw):
    """(program, space, contracts) from test_shared_runs._programs, whose
    guards open windows that read registers and cells no committed path
    reads, with one of the registers the programs write varied too."""
    program, _, space = draw(_programs())
    written = (reg_num(draw(st.sampled_from(("t0", "t1", "t2")))), tuple(
        draw(st.lists(st.sampled_from((0, 5, 0x8000)), min_size=2,
                      max_size=3, unique=True))))
    space = StateSpace(base_state=space.base_state,
                       varying_registers=space.varying_registers + (written,),
                       varying_cells=space.varying_cells)
    return program, space, draw(st.lists(st.sampled_from(CONTRACTS),
                                         min_size=1, max_size=3))


@settings(deadline=None)
@given(case=st.one_of(_snippet_cases(), _window_cases()))
def test_derived_runs_match_committed_runs(case):
    """Per contract, relative NI of the contract with itself, which holds
    and so serves a state of every read class, and then direct NI with
    every slot secret, back to back on one exploration: after each check
    that does not raise, every kept run, derived ones included, matches
    simulate_committed from its state
    (_assert_kept_runs_match_committed_runs)."""
    program, space, contracts = case
    ni._slot.clear()
    for contract in contracts:
        for check in (
                lambda: check_relative_ni(program, contract, contract, space,
                                          LAYOUT),
                lambda: check_direct_ni(program, contract, Policy(), space,
                                        LAYOUT)):
            try:
                check()
            except (MachineError, ContractError):
                continue
            _assert_kept_runs_match_committed_runs(program, space)


# a1 and the cell 0x1000 vary, and both are overwritten before the branch,
# which is always taken: its window reads them, and so loads from 0x8007
# in every state. It also reads a3 and the cell 0x1001, which vary and
# which nothing writes, and loads from their sum.
WRITTEN_BEFORE_THE_WINDOW = parse_program(
    "li a1, 0x8000\nli t0, 7\nsb t0, 0(a2)\nbeq zero, zero, skip\n"
    "lbu t1, 0(a2)\nadd t2, a1, t1\nlbu t3, 0(t2)\n"
    "lbu t4, 1(a2)\nadd t5, a3, t4\nlbu t6, 0(t5)\nskip:\n")


def test_derived_snapshot_keeps_earlier_writes(monkeypatch):
    """The committed path reads no varying slot, so every state shares it;
    the window reads every varying slot, so each state but the first
    derives its run. The start of a derived window keeps what the path
    wrote before the branch, the `li` to a1 and the `sb` to the cell
    0x1000, and patches neither, while it patches a3 and the cell 0x1001
    with the state's values: with those two public, the check holds, as
    the tuple walk says, and every derived window's start and steps
    equal a committed run's."""
    a3 = reg_num("a3")
    space = StateSpace(base_state=ArchState(regs={reg_num("a2"): 0x1000}),
                       varying_registers=((reg_num("a1"), (0x8000, 0x8010)),
                                          (a3, (0x8000, 0x8040))),
                       varying_cells=((0x1000, (7, 9)), (0x1001, (1, 2))))
    policy = Policy(public_regs=frozenset({a3}),
                    public_private_cells=frozenset({0x1001}))
    derived = _count_derived(monkeypatch)
    ni._slot.clear()
    verdict = check_direct_ni(WRITTEN_BEFORE_THE_WINDOW, (SHM, STL), policy,
                              space, LAYOUT)
    assert [origin for _, origin in derived] == list(
        itertools.product(range(2), repeat=4))[1:]
    assert _assert_kept_runs_match_committed_runs(
        WRITTEN_BEFORE_THE_WINDOW, space) == 15
    assert verdict.to_json() == {"verdict": "holds", "pairs_checked": 12}
    monkeypatch.setattr(ni, "_check", ni_oracle.check)
    assert _json(check_direct_ni(WRITTEN_BEFORE_THE_WINDOW, (SHM, STL),
                                 policy, space, LAYOUT)) == _json(verdict)
