"""The mutable interpreter core against the functional `step`.

`simulate_committed` and `wrong_path_events` run the decoded step table
(`machine.decode`) on one mutable core and snapshot it only after control
instructions; `step`
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
from rmikit.contracts import (SPEC, ReadWalk, simulate_committed,
                              wrong_path_events)
from rmikit.corpus import load_corpus
from rmikit.machine import (MASK64, PRIVATE, SHARED, ArchState, MachineError,
                            MemoryLayout, execute, step)
from rmikit.ni import StateSpace, enumerate_states

import step_oracle
from snippetgen import LAYOUT, SNIPPET_SPACE, generate_snippet

A0, A1, A2 = reg_num("a0"), reg_num("a1"), reg_num("a2")


def _subdomains(domains):
    """A non-empty sub-domain of each (component, values) pair."""
    return st.tuples(*(
        st.lists(st.sampled_from(values), min_size=1, max_size=len(values),
                 unique=True).map(lambda vs, c=c: (c, tuple(vs)))
        for c, values in domains))


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
        assert run.resume == {k: after[k] for k in run.resume}

        walk = ReadWalk(program, {}, {})
        for point in run.decision_points(SPEC):
            for target in point.targets:
                snapshot = run.resume[point.step]
                assert wrong_path_events(
                    program, snapshot, target, LAYOUT, walk) == (
                    step_oracle.window(program, snapshot, target, LAYOUT), [])
        # overlay stores and later committed stores never reach a snapshot
        assert run.resume == {k: after[k] for k in run.resume}
        assert run.final_state == current

        for pc in range(len(program)):
            _execute_or_unchanged(program, LAYOUT, pc, state, {})
            _execute_or_unchanged(program, LAYOUT, pc, state,
                                  {(PRIVATE, 0x1000): 0xAB})


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
