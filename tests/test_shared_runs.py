"""The NI checkers share one committed run among the states that agree on
what it read (ni._shared_runs). Every verdict must equal the per-state
path's, which runs every observed state and stays as the oracle: the
tests replace the memo with a pass-through and compare `to_json()`, or
the class of the raised error, check by check.

The generated programs go past tests/snippetgen.py: branches on varying
registers, loads through a varying base that fault inside windows, jalr
to a varying target, window stores forwarded to loads, and varying
private and shared cells."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit import ni
from rmikit.analyzer import PathExplosion, analyze
from rmikit.asm import parse_program, reg_num
from rmikit.contracts import (ARCH, CT, EXEC_KINDS, LEAK_KINDS, MEM, SEQ, SHM,
                              SPEC, STL, ContractError, ExecModel,
                              LeakageModel, simulate_committed)
from rmikit.machine import ArchState, MachineError, MemoryLayout
from rmikit.modes import MODE_KINDS, HwMode
from rmikit.ni import (Policy, StateSpace, check_direct_ni,
                       check_hw_satisfies_one, check_relative_ni)

pytestmark = pytest.mark.filterwarnings(
    "ignore::rmikit.contracts.SelfContainmentViolation")

LAYOUT = MemoryLayout()
A0, A1, A2, A3, A5 = (reg_num(r) for r in ("a0", "a1", "a2", "a3", "a5"))

CONTRACTS = [(LeakageModel(leak), ExecModel(kind))
             for leak in LEAK_KINDS for kind in EXEC_KINDS]
RELATIVE_PAIRS = [((SHM, SEQ), (SHM, STL)), ((SHM, SEQ), (SHM, SPEC)),
                  ((ARCH, SEQ), (ARCH, SPEC)), ((CT, STL), (MEM, SPEC)),
                  ((MEM, SPEC), (SHM, SEQ))]

TEMPS = ("t0", "t1", "t2")
DATA = ("a0", "a1", "zero", "t0", "t2")
# load and store bases: a2 varies over mapped addresses in either domain,
# a4 holds 0x8000, and a5, which only windows use, takes an address that
# faults (unmapped, or misaligned for lw and ld) and one that does not,
# mostly the faulting one first
MAPPED = (0x1000, 0x1008, 0x8000, 0x8008)
FAULTING = ((0x40, 0x8000), (0x8001, 0x8008), (0x8000, 0x40))
CELLS = (0x1000, 0x1001, 0x1004, 0x8000, 0x8001, 0x8004)


def _pass_through(program, base, table, layout, derive):
    """The per-state path: every observed tuple runs, from a state built
    as a chain of with_regs and with_store calls on the base state rather
    than by ni's own builder."""
    def observe(values):
        state = base
        for (name, key, _, _), value in zip(table, values):
            if name == "regs":
                state = state.with_regs({key: value}, pc=state.pc)
            else:
                state = state.with_store(layout.classify(key), key, value, 1,
                                         pc=state.pc)
        return derive(simulate_committed(program, state, layout))
    return observe


def _outcome(check):
    try:
        return check().to_json()
    except (MachineError, ContractError) as exc:
        return type(exc).__name__


def _checks(program, policy, space, contract):
    """Every check of the program: 12 direct contracts, the relative
    pairs, and the five hardware modes under `contract`."""
    try:
        report = analyze(program, policy, LAYOUT)
    except PathExplosion:
        report = None
    checks = [lambda c=c: check_direct_ni(program, c, policy, space, LAYOUT)
              for c in CONTRACTS]
    checks += [lambda a=a, b=b: check_relative_ni(program, a, b, space, LAYOUT)
               for a, b in RELATIVE_PAIRS]
    checks += [lambda m=m: check_hw_satisfies_one(
        program, HwMode(m), contract, space, LAYOUT, sta_report=report)
        for m in MODE_KINDS if m != "burst_sta" or report is not None]
    return checks


def _assert_memo_matches_oracle(program, policy, space, contract=(SHM, STL)):
    checks = _checks(program, policy, space, contract)
    shared = [_outcome(check) for check in checks]
    with mock.patch.object(ni, "_shared_runs", _pass_through):
        oracle = [_outcome(check) for check in checks]
    for got, want in zip(shared, oracle):
        assert got == want


@st.composite
def _item(draw, bases):
    """One instruction, or a short pattern, of a generated program, whose
    memory accesses go through one of `bases`."""
    kind = draw(st.sampled_from(
        ("load", "load", "store", "forward", "alu", "li")))
    dst, src = draw(st.sampled_from(TEMPS)), draw(st.sampled_from(DATA))
    base = draw(st.sampled_from(bases))
    if kind == "load":
        op, offset = draw(st.sampled_from(
            (("lbu", 0), ("lbu", 1), ("lbu", 4), ("lw", 0), ("lw", 4), ("ld", 0))))
        return [f"{op} {dst}, {offset}({base})"]
    if kind == "store":
        op = draw(st.sampled_from(("sb", "sw", "sd")))
        return [f"{op} {src}, 0({base})"]
    if kind == "forward":       # a store forwarded to a younger load
        offset = draw(st.sampled_from((0, 1)))
        return [f"sb {src}, {offset}({base})", f"lbu {dst}, {offset}({base})"]
    if kind == "alu":
        op = draw(st.sampled_from(("add", "xor", "sub", "and")))
        return [f"{op} {dst}, {src}, {draw(st.sampled_from(DATA))}"]
    value = draw(st.sampled_from((0, 1, 4, 0x1000, 0x8000, 0x40)))
    return [f"li {dst}, {value}"]


@st.composite
def _programs(draw):
    """(program, policy, space): forward branches on varying registers,
    at most one jalr through the varying a3, and an optional burst region
    around the whole body."""
    lines, labels = [], 0
    for _ in range(draw(st.integers(2, 7))):
        roll = draw(st.sampled_from(
            ("item", "item", "branch", "guard", "guard", "jalr")))
        if roll == "jalr" and "jalr ra, 0(a3)" not in lines:
            lines.append("jalr ra, 0(a3)")
        elif roll in ("branch", "guard"):
            # a guard is always taken, so only a window runs its body
            op, lhs, rhs = (("beq", "zero", "zero") if roll == "guard" else
                            (draw(st.sampled_from(("beq", "bne", "blt", "bgeu"))),
                             draw(st.sampled_from(DATA)),
                             draw(st.sampled_from(DATA))))
            lines.append(f"{op} {lhs}, {rhs}, skip{labels}")
            bases = ("a5", "a5", "a2") if roll == "guard" else ("a2", "a4")
            for _ in range(draw(st.integers(1, 2))):
                lines += draw(_item(bases))
            lines.append(f"skip{labels}:")
            labels += 1
        else:
            lines += draw(_item(("a2", "a2", "a4")))
    if draw(st.booleans()):
        lines = ["csrwi MSPEC, BURST_ON", *lines, "csrwi MSPEC, BURST_OFF"]
    program = parse_program("\n".join(lines) + "\n")

    def domain(values):
        return tuple(draw(st.lists(st.sampled_from(values), min_size=1,
                                   max_size=2, unique=True)))

    registers = [(A0, domain((0, 1, 5, 0x8000))), (A1, domain((0, 1, 5))),
                 (A2, domain(MAPPED)), (A5, draw(st.sampled_from(FAULTING)))]
    jalrs = [i for i, ins in enumerate(program.instructions)
             if ins.opcode == "jalr"]
    if jalrs:
        # forward targets only, so no run loops
        registers.append((A3, domain(range(jalrs[0] + 1, len(program) + 1))))
    cells = tuple((addr, domain((0, 1, 7, 0x80))) for addr in draw(
        st.lists(st.sampled_from(CELLS), min_size=1, max_size=2, unique=True)))
    space = StateSpace(
        base_state=ArchState(regs={A3: len(program), reg_num("a4"): 0x8000}),
        varying_registers=tuple(registers), varying_cells=cells)
    public = draw(st.sets(st.sampled_from((A0, A1, A2, A3, A5))))
    private = [a for a, _ in cells if LAYOUT.classify(a) == "private"]
    public_cells = draw(st.sets(st.sampled_from(private))) if private else ()
    return program, Policy(frozenset(public), frozenset(public_cells)), space


@settings(max_examples=30, deadline=None)
@given(case=_programs(), contract=st.sampled_from(CONTRACTS))
def test_shared_runs_match_per_state_path(case, contract):
    program, policy, space = case
    _assert_memo_matches_oracle(program, policy, space, contract)


GUARDED_LOAD = parse_program("beq zero, zero, done\nlbu t0, 0(a2)\ndone:\n")


@pytest.mark.parametrize("bases", [(0x40, 0x8000), (0x8000, 0x40)],
                         ids=["faulting_first", "loading_first"])
def test_window_reads_decide_reuse(bases):
    """The committed path reads nothing; only the window reads a2. With
    a2 unmapped the window's load faults and is squashed, and that
    squashed load's base still decides the run: with a2 = 0x8000 the
    window observes a shared load. Both orders hold one run per state."""
    space = StateSpace(base_state=ArchState(),
                       varying_registers=((A2, bases),))
    verdict = check_relative_ni(GUARDED_LOAD, (SHM, SEQ), (SHM, SPEC),
                                space, LAYOUT)
    assert not verdict.holds
    _assert_memo_matches_oracle(GUARDED_LOAD, Policy(), space)
