"""Hardware-mode semantics tests."""

import warnings

import pytest

from rmikit.analyzer import analyze
from rmikit.asm import parse_program, reg_num
from rmikit.contracts import (SEQ, SHM, STL, SelfContainmentViolation,
                              contract_trace, contract_trace_set)
from rmikit.machine import ArchState, MemoryLayout
from rmikit.modes import (BURST, BURST_STA, INSECURE, MI6, SAFE,
                          ReportProgramMismatch, UnanalyzedStart,
                          hw_trace_set, sta_gate)
from rmikit.ni import Policy

LAYOUT = MemoryLayout()
A0, A1 = reg_num("a0"), reg_num("a1")

GADGET = parse_program("""\
.symbol array1 = 0x1000
.symbol array2 = 0x8000
li t0, 4
bgeu a0, t0, done
li t1, array1
add t1, t1, a0
lbu t2, 0(t1)
slli t2, t2, 6
li t3, array2
add t3, t3, t2
lbu t4, 0(t3)
done:
""")


def gadget_state(index, secret):
    return ArchState(regs={A0: index}, private_mem={0x1008: secret})


def test_mi6_is_always_empty():
    for program in (GADGET, parse_program("lbu a4, 0(a1)")):
        state = ArchState(regs={A1: 0x8000, A0: 8})
        assert hw_trace_set(program, state, LAYOUT, MI6) == frozenset({()})


def test_insecure_exposes_secret_dependent_address():
    traces = hw_trace_set(GADGET, gadget_state(8, 1), LAYOUT, INSECURE)
    assert any(("addr", 0x8000 + 64, "shared") in t for t in traces)
    traces0 = hw_trace_set(GADGET, gadget_state(8, 0), LAYOUT, INSECURE)
    assert traces != traces0


def test_safe_equals_seq_trace_exactly():
    for index, secret in [(2, 0), (8, 1)]:
        state = gadget_state(index, secret)
        assert hw_trace_set(GADGET, state, LAYOUT, SAFE) == \
            frozenset({contract_trace(GADGET, state, LAYOUT, SHM, SEQ)})


def test_safe_hides_secret_for_out_of_bounds_index():
    assert hw_trace_set(GADGET, gadget_state(8, 0), LAYOUT, SAFE) == \
        hw_trace_set(GADGET, gadget_state(8, 1), LAYOUT, SAFE)


BURSTY = parse_program("""\
bgeu a0, x0, skip
lbu a4, 0(a1)
skip:
csrwi MSPEC, BURST_ON
beq a0, a0, inner
lbu a4, 1(a1)
inner:
csrwi MSPEC, BURST_OFF
""")


def test_burst_gates_speculation_to_regions():
    state = ArchState(regs={A1: 0x8000})
    burst = hw_trace_set(BURSTY, state, LAYOUT, BURST)
    stl = contract_trace_set(BURSTY, state, LAYOUT, SHM, STL)
    # outside the region the always-taken bgeu may not speculate, inside
    # the region the beq may: exactly one optional window remains
    assert len(stl) == 4 and len(burst) == 2
    assert burst <= stl


def test_burst_containment_in_stl():
    for a0 in (0, 1):
        state = ArchState(regs={A0: a0, A1: 0x8000})
        burst = hw_trace_set(BURSTY, state, LAYOUT, BURST)
        stl = contract_trace_set(BURSTY, state, LAYOUT, SHM, STL)
        assert burst <= stl


def test_no_region_means_no_speculative_observation():
    program = parse_program("beq a0, a0, skip\nlbu a4, 0(a1)\nskip:")
    state = ArchState(regs={A1: 0x8000})
    assert hw_trace_set(program, state, LAYOUT, BURST) == \
        hw_trace_set(program, state, LAYOUT, SAFE)


def test_runtime_containment_diagnostic():
    escaped = parse_program(
        "csrwi MSPEC, BURST_ON\njal ra, out\ncsrwi MSPEC, BURST_OFF\nout:\nli a0, 1")
    with pytest.warns(SelfContainmentViolation):
        traces = hw_trace_set(escaped, ArchState(), LAYOUT, BURST)
    assert traces   # traces still returned


def test_sta_gate_pass_and_fail():
    passing = parse_program(
        "csrwi MSPEC, BURST_ON\nli t0, 0x8000\nlbu t1, 0(t0)\ncsrwi MSPEC, BURST_OFF")
    failing = parse_program(
        "csrwi MSPEC, BURST_ON\nld t1, 0(t0)\nlbu t2, 0(t1)\ncsrwi MSPEC, BURST_OFF")
    state = ArchState(regs={reg_num("t0"): 0x1000})
    pass_report = analyze(passing, Policy(), LAYOUT)
    fail_report = analyze(failing, Policy(), LAYOUT)
    assert sta_gate(passing, pass_report) == BURST
    assert sta_gate(failing, fail_report) is None
    assert hw_trace_set(passing, ArchState(), LAYOUT, BURST_STA,
                        sta_report=pass_report) == \
        hw_trace_set(passing, ArchState(), LAYOUT, BURST)
    assert hw_trace_set(failing, state, LAYOUT, BURST_STA,
                        sta_report=fail_report) == frozenset({()})


def test_sta_gate_program_mismatch():
    program = parse_program("li a0, 1")
    other = parse_program("li a0, 2")
    report = analyze(other, Policy(), LAYOUT)
    with pytest.raises(ReportProgramMismatch):
        sta_gate(program, report)
    with pytest.raises(ReportProgramMismatch):
        hw_trace_set(program, ArchState(), LAYOUT, BURST_STA, sta_report=None)


def test_burst_sta_refuses_a_start_pc_other_than_zero():
    """The analysis unwinds to instruction 0: starting at 1 skips the li
    it relied on, so burst_sta refuses the state; other modes take it."""
    program = parse_program("li a1, 0x8000\ncsrwi MSPEC, BURST_ON\n"
                            "beq a0, a0, done\nlbu t1, 0(a1)\ndone:\n"
                            "csrwi MSPEC, BURST_OFF\n")
    report = analyze(program, Policy(), LAYOUT)
    assert report.verdict == "pass"
    state = ArchState(pc=1, regs={A1: 0x8040})
    with pytest.raises(UnanalyzedStart, match="not at 1"):
        hw_trace_set(program, state, LAYOUT, BURST_STA, sta_report=report)
    assert hw_trace_set(program, ArchState(), LAYOUT, BURST_STA,
                        sta_report=report)
    for mode in (INSECURE, MI6, SAFE, BURST):
        assert hw_trace_set(program, state, LAYOUT, mode)
