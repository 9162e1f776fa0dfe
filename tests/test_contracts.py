"""Contract trace engine tests: leakage projections, speculation windows,
and trace-set enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit import contracts
from rmikit.asm import parse_program, reg_num
from rmikit.contracts import (ARCH, CT, ENUM_CAP, MEM, SEQ, SHM, SPEC,
                              SPEC_DEPTH, STL, EnumerationCapExceeded,
                              InconsistentChoice, contract_trace,
                              contract_trace_set, mispredict,
                              simulate_committed)
from rmikit.machine import ArchState, MemoryLayout, step
from rmikit.modes import INSECURE, hw_trace_set

LAYOUT = MemoryLayout()
A0, A1, A2, A4 = (reg_num(r) for r in ("a0", "a1", "a2", "a4"))


def state_with(regs=None, private=None, shared=None):
    return ArchState(regs=regs or {}, private_mem=private or {},
                     shared_mem=shared or {})


def test_single_shared_load_shm_seq():
    program = parse_program("lbu a4, 0(a1)")
    trace = contract_trace(program, state_with({A1: 0x8000}), LAYOUT, SHM, SEQ)
    assert trace == (("addr", 0x8000, "shared"),)


def test_taken_branch_stl_window_and_rollback():
    program = parse_program("beq a0, a0, skip\nlbu a4, 0(a1)\nskip:")
    state0 = state_with({A1: 0x8000})
    assert contract_trace(program, state0, LAYOUT, SHM, SEQ) == ()
    spec = contract_trace(program, state0, LAYOUT, SHM, STL,
                          choice=[mispredict(1)])
    assert spec == (("addr", 0x8000, "shared"), ("rollback",))
    traces = contract_trace_set(program, state0, LAYOUT, SHM, STL)
    assert traces == frozenset({(), spec})


def test_seq_choice_must_be_all_correct():
    program = parse_program("beq a0, a0, skip\nskip:")
    with pytest.raises(InconsistentChoice):
        contract_trace(program, ArchState(), LAYOUT, SHM, SEQ,
                       choice=[mispredict(1)])


def test_inadmissible_target_rejected():
    program = parse_program("beq a0, a0, skip\nli a1, 1\nskip:")
    with pytest.raises(InconsistentChoice):
        contract_trace(program, ArchState(), LAYOUT, SHM, STL,
                       choice=[mispredict(2)])


def test_not_taken_branch_has_no_stl_window():
    program = parse_program("bne a0, a0, skip\nlbu a4, 0(a1)\nskip:")
    traces = contract_trace_set(program, state_with({A1: 0x8000}), LAYOUT,
                                SHM, STL)
    assert len(traces) == 1


def test_ct_includes_pc_and_addresses():
    program = parse_program("li a1, 0x8000\nlbu a4, 0(a1)")
    trace = contract_trace(program, ArchState(), LAYOUT, CT, SEQ)
    assert trace == (("pc", 0), ("pc", 1), ("addr", 0x8000, "shared"))


def test_arch_adds_loaded_values():
    program = parse_program("lbu a4, 0(a1)")
    trace = contract_trace(program, state_with({A1: 0x8000},
                                               shared={0x8000: 9}),
                           LAYOUT, ARCH, SEQ)
    assert ("val", 9) in trace


def test_mem_sees_private_addresses_but_shm_does_not():
    program = parse_program("lbu a4, 0(a1)")
    state0 = state_with({A1: 0x1000})
    assert contract_trace(program, state0, LAYOUT, MEM, SEQ) == \
        (("addr", 0x1000, "private"),)
    assert contract_trace(program, state0, LAYOUT, SHM, SEQ) == ()


def test_straightline_set_is_singleton_under_any_exec():
    program = parse_program("li a1, 0x8000\nlbu a4, 0(a1)\nsb a4, 8(a1)")
    state0 = ArchState()
    seq = contract_trace_set(program, state0, LAYOUT, SHM, SEQ)
    for exec_model in (STL, SPEC):
        assert contract_trace_set(program, state0, LAYOUT, SHM, exec_model) == seq


def test_store_emits_address_observation():
    program = parse_program("sb a0, 0(a1)")
    trace = contract_trace(program, state_with({A1: 0x8000}), LAYOUT, SHM, SEQ)
    assert trace == (("addr", 0x8000, "shared"),)


def test_spec_branch_explores_other_arm():
    # branch not taken architecturally; only spec can jump to the taken arm
    program = parse_program("bne a0, a0, leak\njal x0, end\nleak:\nlbu a4, 0(a1)\nend:"
                            )
    state0 = state_with({A1: 0x8000})
    stl = contract_trace_set(program, state0, LAYOUT, SHM, STL)
    spec = contract_trace_set(program, state0, LAYOUT, SHM, SPEC)
    assert stl == frozenset({()})
    assert (("addr", 0x8000, "shared"), ("rollback",)) in spec


def test_jalr_spec_targets_any_index():
    program = parse_program("li t0, 2\njalr x0, 0(t0)\nlbu a4, 0(a1)\nend:")
    state0 = state_with({A1: 0x8000})
    spec = contract_trace_set(program, state0, LAYOUT, SHM, SPEC)
    # some predicted target executes the load speculatively
    assert any(("rollback",) in t and ("addr", 0x8000, "shared") in t
               for t in spec)


def test_wrong_path_stores_never_commit():
    program = parse_program(
        "beq a0, a0, skip\nli a4, 7\nsb a4, 0(a1)\nskip:\nlbu a2, 0(a1)")
    state0 = state_with({A1: 0x8000})
    for choice in ([], [mispredict(1)]):
        run = contract_trace(program, state0, LAYOUT, ARCH, STL, choice=choice)
        # the committed load always sees the original (zero) value
        assert ("val", 0) in run


def test_wrong_path_store_to_load_forwarding():
    program = parse_program(
        "beq a0, a0, skip\nli a4, 7\nsb a4, 0(a1)\nlbu a2, 0(a1)\nskip:")
    state0 = state_with({A1: 0x8000})
    trace = contract_trace(program, state0, LAYOUT, ARCH, STL,
                           choice=[mispredict(1)])
    assert ("val", 7) in trace   # speculative load sees the buffered store


def test_wrong_path_fault_squashes_silently():
    program = parse_program("beq a0, a0, skip\nlbu a4, 0(a1)\nskip:")
    state0 = state_with({A1: 0x4000})   # unmapped on the wrong path only
    trace = contract_trace(program, state0, LAYOUT, SHM, STL,
                           choice=[mispredict(1)])
    assert trace == (("rollback",),)


def test_spec_depth_bounds_window():
    def window(fillers):
        body = "\n".join(["addi a2, a2, 1"] * fillers)
        program = parse_program(f"beq a0, a0, skip\n{body}\nlbu a4, 0(a1)\nskip:")
        return contract_trace(program, state_with({A1: 0x8000}), LAYOUT, SHM,
                              STL, choice=[mispredict(1)])
    assert SPEC_DEPTH == 8
    # the load in window slot 8 runs; in slot 9 it is past the window
    assert window(7) == (("addr", 0x8000, "shared"), ("rollback",))
    assert window(8) == (("rollback",),)


def test_csrwi_is_wrong_path_barrier():
    program = parse_program(
        "beq a0, a0, skip\ncsrwi MSPEC, BURST_ON\nlbu a4, 0(a1)\n"
        "csrwi MSPEC, BURST_OFF\nskip:")
    state0 = state_with({A1: 0x8000})
    trace = contract_trace(program, state0, LAYOUT, SHM, STL,
                           choice=[mispredict(1)])
    assert trace == (("rollback",),)


def test_enumeration_cap(monkeypatch):
    source = "\n".join(f"beq a0, a0, l{i}\nli a1, {i}\nl{i}:" for i in range(20))
    program = parse_program(source)
    # every branch is taken, so stl has 20 decision points of two choices
    # each: 2^20 traces, past the cap of 2^16
    run = simulate_committed(program, ArchState(), LAYOUT)
    assert len(run.decision_points(STL)) == 20 and ENUM_CAP == 1 << 16
    with pytest.raises(EnumerationCapExceeded) as exc:
        contract_trace_set(program, ArchState(), LAYOUT, SHM, STL)
    assert exc.value.needed > ENUM_CAP
    # the cap refuses before any window runs, for a contract and for the
    # insecure mode's (shm, spec) view alike
    windows = []
    monkeypatch.setattr(contracts, "wrong_path_events",
                        lambda *args: windows.append(args))
    for trace_set in (
            lambda: contract_trace_set(program, ArchState(), LAYOUT, SHM, STL),
            lambda: hw_trace_set(program, ArchState(), LAYOUT, INSECURE)):
        with pytest.raises(EnumerationCapExceeded):
            trace_set()
    assert windows == []


_SMALL_STATES = st.fixed_dictionaries({
    A0: st.sampled_from([0, 1, 2]),
    A1: st.sampled_from([0x8000, 0x8008, 0x1000]),
    A2: st.sampled_from([0, 1]),
})

_BRANCHY = parse_program("""\
beq a0, a2, t1
lbu a4, 0(a1)
t1:
sb a0, 8(a1)
bne a2, x0, t2
lbu a4, 1(a1)
t2:
""")


@settings(max_examples=60, deadline=None)
@given(regs=_SMALL_STATES)
def test_wrong_path_isolation(regs):
    """Speculation never changes the committed architectural result."""
    state0 = ArchState(regs=regs)
    expected = state0
    while expected.pc != len(_BRANCHY):
        expected, _ = step(_BRANCHY, expected, LAYOUT)
    run = simulate_committed(_BRANCHY, state0, LAYOUT)
    assert run.final_state == expected


@settings(max_examples=60, deadline=None)
@given(regs=_SMALL_STATES)
def test_rollback_balance(regs):
    """Every trace contains one rollback per mispredicted decision."""
    state0 = ArchState(regs=regs)
    for trace in contract_trace_set(_BRANCHY, state0, LAYOUT, SHM, STL):
        rollbacks = sum(1 for e in trace if e == ("rollback",))
        assert rollbacks <= 2


@settings(max_examples=60, deadline=None)
@given(regs1=_SMALL_STATES, regs2=_SMALL_STATES,
       exec_model=st.sampled_from([SEQ, STL, SPEC]))
def test_projection_lattice(regs1, regs2, exec_model):
    """arch-trace equality implies ct, implies mem, implies shm."""
    s1, s2 = ArchState(regs=regs1), ArchState(regs=regs2)
    chain = [ARCH, CT, MEM, SHM]
    results = [
        contract_trace_set(_BRANCHY, s1, LAYOUT, leak, exec_model) ==
        contract_trace_set(_BRANCHY, s2, LAYOUT, leak, exec_model)
        for leak in chain
    ]
    for stronger, weaker in zip(results, results[1:]):
        assert not stronger or weaker


@settings(max_examples=60, deadline=None)
@given(regs1=_SMALL_STATES, a1=st.sampled_from([0x8000, 0x8008, 0x1000]))
def test_exec_ordering(regs1, a1):
    """spec-trace-set equality implies stl equality implies seq equality.

    Checked over state pairs that agree on branch-deciding registers:
    when branch directions differ, trace-set comparison can collapse
    structurally different speculation behavior and the implication is
    not meaningful (windows differ only by their rollback markers).
    """
    regs2 = dict(regs1)
    regs2[A1] = a1
    s1, s2 = ArchState(regs=regs1), ArchState(regs=regs2)
    results = [
        contract_trace_set(_BRANCHY, s1, LAYOUT, SHM, exec_model) ==
        contract_trace_set(_BRANCHY, s2, LAYOUT, SHM, exec_model)
        for exec_model in (SPEC, STL, SEQ)
    ]
    for stronger, weaker in zip(results, results[1:]):
        assert not stronger or weaker
