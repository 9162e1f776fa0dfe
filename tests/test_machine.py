"""Interpreter tests: single steps, committed runs, and machine-level
properties. Runs go through `simulate_committed`, the one runner every
verdict uses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit.asm import parse_program, reg_num
from rmikit.contracts import FUEL, FuelExhausted, simulate_committed
from rmikit.machine import (ArchState, InvalidPc, MemoryLayout,
                            OutOfRangeAccess, step, to_signed)

LAYOUT = MemoryLayout()
A0, A1, A4 = reg_num("a0"), reg_num("a1"), reg_num("a4")


def state_with(regs=None, private=None, shared=None, pc=0):
    return ArchState(pc=pc, regs=regs or {}, private_mem=private or {},
                     shared_mem=shared or {})


def test_addi_increments():
    program = parse_program("addi a0, a0, 1")
    state, effect = step(program, state_with({A0: 5}), LAYOUT)
    assert state.reg(A0) == 6
    assert effect.next_pc == 1 and effect.mem_event is None


def test_lbu_from_shared():
    program = parse_program("lbu a4, 0(a1)")
    state0 = state_with({A1: 0x8000}, shared={0x8000: 0x2A})
    state, effect = step(program, state0, LAYOUT)
    assert state.reg(A4) == 42
    ev = effect.mem_event
    assert (ev.kind, ev.address, ev.domain, ev.value) == ("load", 0x8000, "shared", 42)


MEMCPY_RIGHT = """\
add a2, a0, a2
bgeu a0, a2, .end
csrwi MSPEC, BURST_ON
.loop:
lbu a4, 0(a1)
add a1, a1, 1
add a0, a0, 1
sb a4, -1(a0)
bne a0, a2, .loop
csrwi MSPEC, BURST_OFF
.end:
"""


def test_memcpy_three_bytes():
    program = parse_program(MEMCPY_RIGHT)
    src, dest = 0x8000, 0x1800
    state0 = state_with({A0: dest, A1: src, reg_num("a2"): 3},
                        shared={src: 7, src + 1: 8, src + 2: 9})
    run = simulate_committed(program, state0, LAYOUT)
    final = run.final_state
    assert final.pc == len(program)
    assert [final.private_mem.get(dest + i) for i in range(3)] == [7, 8, 9]
    events = [effect.mem_event for _, effect, _ in run.steps if effect.mem_event]
    loads = [ev for ev in events if ev.kind == "load"]
    stores = [ev for ev in events if ev.kind == "store"]
    assert len(loads) == 3 and len(stores) == 3
    assert all(ev.domain == "shared" for ev in loads)
    assert all(ev.domain == "private" for ev in stores)


def test_empty_program_halts_immediately():
    state = ArchState(regs={A0: 5})
    run = simulate_committed(parse_program(""), state, LAYOUT)
    assert run.steps == () and run.final_state == state


def test_state_at_program_end_gives_empty_run():
    program = parse_program("li a0, 1\nli a0, 2")
    state = ArchState(pc=2, regs={A0: 7})
    run = simulate_committed(program, state, LAYOUT)
    assert run.steps == () and run.resume == {} and run.final_state == state
    with pytest.raises(InvalidPc):
        simulate_committed(program, ArchState(pc=3), LAYOUT)


def test_infinite_loop_fuel_exhausted():
    program = parse_program("j:\njal x0, j")
    with pytest.raises(FuelExhausted, match=f"past {FUEL} steps"):
        simulate_committed(program, ArchState(), LAYOUT)


def test_out_of_range_access():
    program = parse_program("lbu a4, 0(a1)")
    with pytest.raises(OutOfRangeAccess):
        step(program, state_with({A1: 0x3000}), LAYOUT)


def test_misaligned_word_access_rejected():
    program = parse_program("lw a4, 1(a1)")
    with pytest.raises(OutOfRangeAccess):
        step(program, state_with({A1: 0x1000}), LAYOUT)


def test_lw_sign_extends():
    program = parse_program("lw a4, 0(a1)")
    private = {0x1000 + i: b for i, b in enumerate((0xFF, 0xFF, 0xFF, 0xFF))}
    state, _ = step(program, state_with({A1: 0x1000}, private=private), LAYOUT)
    assert to_signed(state.reg(A4)) == -1


def test_lbu_zero_extends():
    program = parse_program("lbu a4, 0(a1)")
    state, _ = step(program, state_with({A1: 0x1000}, private={0x1000: 0xFF}),
                    LAYOUT)
    assert state.reg(A4) == 0xFF


def test_invalid_pc():
    program = parse_program("li a0, 1")
    with pytest.raises(InvalidPc):
        step(program, state_with(pc=5), LAYOUT)


def test_uninitialized_memory_reads_zero():
    program = parse_program("lbu a4, 0(a1)")
    state, _ = step(program, state_with({A1: 0x1500, A4: 9}), LAYOUT)
    assert state.reg(A4) == 0


def test_label_slots_fall_through():
    program = parse_program("x:\nli a0, 3")
    run = simulate_committed(program, ArchState(), LAYOUT)
    assert run.final_state.reg(A0) == 3
    assert [index for index, _, _ in run.steps] == [0, 1]


def test_store_masks_to_width():
    program = parse_program("sb a0, 0(a1)")
    state, effect = step(program, state_with({A0: 0x1FF, A1: 0x1000}), LAYOUT)
    assert state.private_mem[0x1000] == 0xFF
    assert effect.mem_event.value == 0xFF


def test_jal_link_and_jump():
    program = parse_program("jal ra, t\nli a0, 1\nt:\nli a0, 2")
    run = simulate_committed(program, ArchState(), LAYOUT)
    assert run.final_state.reg(reg_num("ra")) == 1
    assert run.final_state.reg(A0) == 2


def test_state_json_roundtrip():
    state = state_with({A0: 5}, private={0x1000: 1}, shared={0x8000: 2}, pc=3)
    assert ArchState.from_json(state.to_json()) == state


def test_state_json_drops_a_zero_x0():
    assert ArchState.from_json({"regs": {"zero": 0, "a0": 5}}).regs == {A0: 5}
    assert ArchState.from_json({"regs": {"x0": 1 << 64}}).regs == {}  # 0 once masked


@pytest.mark.parametrize("name, value", [("zero", 5), ("x0", -1),
                                         ("zero", (1 << 64) + 1)])
def test_state_json_refuses_a_nonzero_x0(name, value):
    with pytest.raises(ValueError, match="x0 is hard-wired to 0"):
        ArchState.from_json({"regs": {name: value}})


_REG_VALUES = st.integers(min_value=0, max_value=(1 << 64) - 1)


@settings(max_examples=100)
@given(a=_REG_VALUES, b=_REG_VALUES,
       op=st.sampled_from(["add", "sub", "and", "or", "xor"]))
def test_step_determinism_and_wraparound(a, b, op):
    program = parse_program(f"{op} a2, a0, a1")
    state0 = state_with({A0: a, A1: b})
    s1, e1 = step(program, state0, LAYOUT)
    s2, e2 = step(program, state0, LAYOUT)
    assert s1 == s2 and e1 == e2
    assert 0 <= s1.reg(reg_num("a2")) < (1 << 64)


@settings(max_examples=50)
@given(value=_REG_VALUES,
       op=st.sampled_from(["li x0, 1", "add x0, a0, a1", "mv x0, a0"]))
def test_x0_write_suppression(value, op):
    program = parse_program(op)
    state, _ = step(program, state_with({A0: value, A1: 1}), LAYOUT)
    assert state.reg(0) == 0
    assert 0 not in state.regs


@settings(max_examples=100)
@given(addr=st.integers(min_value=0x1000, max_value=0x8FFF))
def test_memory_event_domain_matches_layout(addr):
    program = parse_program("lbu a4, 0(a1)")
    try:
        _, effect = step(program, state_with({A1: addr}), LAYOUT)
    except OutOfRangeAccess:
        assert LAYOUT.classify(addr) is None
        return
    assert effect.mem_event.domain == LAYOUT.classify(addr)
