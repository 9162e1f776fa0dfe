"""The mutable interpreter core against the functional `step`.

`simulate_committed` and `wrong_path_events` run the decoded step table
(`machine.decode`) on one mutable core and snapshot it, as the pair of
its register dict and memory dicts, only after branches and jalr; `step`
copies a frozen state in and freezes the result out. These tests check
that both walks agree, that a faulting instruction changes nothing, that
no snapshot is written after it is taken, and that `enumerate_states`
builds the same states as a chain of `with_regs`/`with_store` calls.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit.asm import parse_program, reg_num
from rmikit.contracts import ReadWalk, simulate_committed, wrong_path_events
from rmikit.corpus import load_corpus, load_entry
from rmikit.machine import (MASK64, PRIVATE, SHARED, ArchState, MachineError,
                            MemoryLayout, execute, step)
from rmikit.ni import StateSpace, enumerate_states

import step_oracle
from snippetgen import LAYOUT, SNIPPET_SPACE, generate_snippet
from trace_oracle import decision_points

A0, A1, A2 = reg_num("a0"), reg_num("a1"), reg_num("a2")


def _subdomains(domains):
    """A non-empty sub-domain of each (component, values) pair."""
    return st.tuples(*(
        st.lists(st.sampled_from(values), min_size=1, max_size=len(values),
                 unique=True).map(lambda vs, c=c: (c, tuple(vs)))
        for c, values in domains))


def _core(state):
    """The snapshot of `state` as simulate_committed takes one: its core,
    (regs, mems)."""
    return state.regs, {PRIVATE: state.private_mem, SHARED: state.shared_mem}


def _snapshots(program, run, after):
    """The snapshot at each control position of `run`, from the states
    `after` each step: the core, or None where the step oracle finds
    every wrong arm's window state-free."""
    return {pos: None if all(step_oracle.state_free(program, t)
                             for t in step_oracle.wrong_arms(
                                 program, run.steps[pos][0], after[pos].pc))
            else _core(after[pos]) for pos in run.resume}


def _execute_or_unchanged(program, layout, pc, state, overlay):
    """Execute on a copy of `state`'s core; if the instruction raises, the
    core and the overlay must be as they were."""
    regs = dict(state.regs)
    mems = {PRIVATE: dict(state.private_mem), SHARED: dict(state.shared_mem)}
    before = (dict(regs), {d: dict(m) for d, m in mems.items()}, dict(overlay))
    try:
        execute(program, layout, pc, regs, mems, overlay)
    except MachineError:
        assert (regs, mems, overlay) == before


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       registers=_subdomains(SNIPPET_SPACE.varying_registers),
       cells=_subdomains(SNIPPET_SPACE.varying_cells))
def test_committed_run_matches_functional_walk(seed, registers, cells):
    program = generate_snippet(random.Random(seed))
    space = StateSpace(SNIPPET_SPACE.base_state, registers, cells)
    for state in enumerate_states(space, LAYOUT):
        run = simulate_committed(program, state, LAYOUT)
        walk, after = [], []
        current = state
        while current.pc != len(program):
            index = current.pc
            current, effect = step(program, current, LAYOUT)
            walk.append((index, effect))
            after.append(current)

        assert [(index, effect) for index, effect, _ in run.steps] == walk
        assert run.final_state == current
        assert run.resume == _snapshots(program, run, after)

        walk = ReadWalk(program, {}, {})
        for pos, choices in decision_points(run, "spec"):
            for target in choices[1:]:
                snapshot = run.resume[pos]
                assert wrong_path_events(
                    program, snapshot, target, LAYOUT, walk) == (
                    step_oracle.window(program, snapshot, target, LAYOUT), ())
        # overlay stores and later committed stores never reach a snapshot
        assert run.resume == _snapshots(program, run, after)
        assert run.final_state == current

        for pc in range(len(program)):
            _execute_or_unchanged(program, LAYOUT, pc, state, {})
            _execute_or_unchanged(program, LAYOUT, pc, state,
                                  {(PRIVATE, 0x1000): 0xAB})


def test_committed_run_builds_only_its_final_state(monkeypatch):
    """A 12-trip memcpy_right or memcpy_left run has 13 control steps, a
    bgeu and 12 bne, and keeps each position in `resume`. Only the last
    bne, which falls out of the loop, has a wrong arm whose window reads
    the core (the loop body's load); the bgeu's wrong arm is a label
    before the end or a barrier, and a taken bne's a barrier or a label
    before one, so the run copies exactly one core, where the parent
    copied 13. It builds no ArchState on the way in (it starts from a
    core) or out: its final state is built when asked for."""
    state = ArchState(regs={A0: 0x1800, A1: 0x1000, A2: 12},
                      private_mem={0x1000 + i: i for i in range(12)})
    entries = [load_entry(name) for name in ("memcpy_right", "memcpy_left")]
    built = []
    init = ArchState.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ArchState, "__init__", counting)
    for entry in entries:
        run = simulate_committed(entry.program, state.core(), entry.layout)
        assert len(run.resume) == 13
        cores = [pos for pos, core in run.resume.items() if core is not None]
        assert cores == [max(run.resume)]
        assert built == []
        final = run.final_state
        assert built == [final] and final.reg(A0) == 0x1800 + 12
        del built[:]


FAULT_PRONE = ("ld a2, 0(a0)", "lw a2, 2(a0)", "lbu a2, 0(a0)",
               "sd a1, 0(a0)", "sw a1, 4(a0)", "sb a1, 0(a0)",
               "jalr a2, 0(a0)", "jalr x0, 1(a0)")
EDGES = (0, 1, 2, 3, 0xFF8, 0x1000, 0x1FFC, 0x2000, 0x7FF8, 0x8FFC, 0x9000)


@settings(max_examples=200)
@given(source=st.sampled_from(FAULT_PRONE),
       base=st.sampled_from(EDGES), offset=st.integers(-8, 8),
       value=st.integers(min_value=0, max_value=MASK64),
       overlay=st.booleans())
def test_faulting_instruction_leaves_core_unchanged(source, base, offset,
                                                    value, overlay):
    program = parse_program(source)
    state = ArchState(regs={A0: (base + offset) & MASK64, A1: value, A2: 7},
                      private_mem={0x1000: 1}, shared_mem={0x8FFF: 2})
    _execute_or_unchanged(program, MemoryLayout(), 0, state,
                          {(SHARED, 0x8FFF): 3} if overlay else {})
    _execute_or_unchanged(program, MemoryLayout(), 1, state, {})


def _chained_states(space, layout):
    """The reference enumeration: one with_regs call and one with_store
    call per varying component, on top of the base state."""
    regs = [(r, tuple(d)) for r, d in space.varying_registers]
    cells = [(a, tuple(d)) for a, d in space.varying_cells]
    domains = [d for _, d in regs] + [d for _, d in cells]
    states = []
    for combo in itertools.product(*domains):
        state = space.base_state
        reg_writes = {r: value & MASK64
                      for (r, _), value in zip(regs, combo[:len(regs)])}
        if reg_writes:
            state = state.with_regs(reg_writes, pc=state.pc)
        for (addr, _), value in zip(cells, combo[len(regs):]):
            state = state.with_store(layout.classify(addr), addr, value & 0xFF,
                                     1, pc=state.pc)
        states.append(state)
    return states


def _spaces():
    for entry in load_corpus():
        yield entry.space, entry.layout
    yield SNIPPET_SPACE, LAYOUT
    # the shape of the benchmark's state ladder: spectre_v1's space with
    # a0, a full secret byte and the public cell widened
    yield (StateSpace(ArchState(regs={A0: 8}),
                      ((A0, (2, 8, 3)),),
                      ((0x1008, tuple(range(256))), (0x1002, (0, 7)))),
           MemoryLayout(shared_range=(0x8000, 0xC000)))


def test_enumerate_states_matches_with_chain():
    for space, layout in _spaces():
        states = enumerate_states(space, layout)
        assert states == _chained_states(space, layout)
        # every state owns its dicts
        owned = {id(d) for s in states
                 for d in (s.regs, s.private_mem, s.shared_mem)}
        assert len(owned) == 3 * len(states)
