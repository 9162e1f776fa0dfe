"""The NI checkers decide a check by cubes of states that agree on the
relevant slots of what a run read (ni._check). Every verdict must equal
the tuple walk's, which walks every state in order and stays as the
oracle (tests/ni_oracle.py): the tests patch `ni._check` with the oracle
and compare `to_json()` byte for byte, or the class and message of the
raised error, with the plain walk, whose memo keys on every read slot.
They compare the states served, check by check, each check on a cold
exploration (the slot emptied first), with the sliced walk, whose memo
keys on the relevant read slots as the cubes do: a state is served by a
committed run, or by a run derived from the committed path of a state
served before it. The same
checks run back to back on one exploration must give the cold outcomes
and box splits. A further property replaces
the oracle's shared-run memo with a per-state path, which runs every
observed state.

The generated programs go past tests/snippetgen.py: branches on varying
registers, loads through a varying base that fault inside windows, jalr
to a varying target, window stores forwarded to loads, register ops
of every kind the dependence slice follows, shared loads indexed by a
byte of a register, and varying private and shared cells. Wide spaces give a slot 3 to 6 values and add a register
no program reads, public or secret, so cubes keep free slots and public
wildcard slots."""

import heapq
import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ni_oracle
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
A0, A1, A2, A3, A5, A6 = (reg_num(r)
                          for r in ("a0", "a1", "a2", "a3", "a5", "a6"))

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
MAPPED = (0x1000, 0x1008, 0x8000, 0x8008, 0x1001, 0x8001)
FAULTING = ((0x40, 0x8000), (0x8001, 0x8008), (0x8000, 0x40))
CELLS = (0x1000, 0x1001, 0x1004, 0x8000, 0x8001, 0x8004)


def _pass_through(program, base, table, layout, projections, derive,
                  relevant=None):
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
        return json.dumps(check().to_json())
    except (MachineError, ContractError) as exc:
        return type(exc).__name__, str(exc)


def _outcome_and_runs(check, engine, space):
    """The check's outcome and the states of `space` it served, in order:
    those it ran, and under ni those whose runs it derived from a path
    (ni._Path.derive)."""
    runs = []
    derive = ni._Path.derive

    def recording(program, state, layout):
        runs.append(repr(state))
        return simulate_committed(program, state, layout)

    def deriving(path, origin):
        table = ni._components(space, LAYOUT)
        runs.append(repr(ni._state(space.base_state, table, [
            row[3][i] for row, i in zip(table, origin)])))
        return derive(path, origin)

    with mock.patch.object(engine, "simulate_committed", recording), \
            mock.patch.object(ni._Path, "derive", deriving):
        return _outcome(check), runs


def _cold(check):
    """The check on a new exploration: the slot is emptied first."""
    def cold():
        ni._slot.clear()
        return check()
    return cold


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


def _disjoint(box, other):
    return any(hi <= other_lo or other_hi <= lo for lo, hi, other_lo, other_hi
               in zip(*box, *other))


def _recorded(check, space):
    """The check's outcome, the states it served, in order, and the split
    of each box it popped: the boxes pushed back after it. Every split is
    a disjoint union of boxes."""
    splits = []

    def pop(heap):
        splits.append([])
        return heapq.heappop(heap)

    def push(heap, box):
        splits[-1].append(box)
        heapq.heappush(heap, box)

    with mock.patch.object(ni, "heappop", pop), \
            mock.patch.object(ni, "heappush", push):
        outcome, runs = _outcome_and_runs(check, ni, space)
    for split in splits:
        assert all(_disjoint(a, b) for a, b in itertools.combinations(split, 2))
    return outcome, runs, splits


def _assert_cubes_match_oracle(program, policy, space, contract=(SHM, STL)):
    """Each check, on a cold exploration, gives the plain tuple walk's
    outcome, and serves the states the sliced walk runs, in the same
    order, for the same outcome. The walk may run one state twice: it
    keeps no run of its last state, which its shrink can look up."""
    checks = _checks(program, policy, space, contract)
    cubes = [_recorded(_cold(check), space) for check in checks]
    with mock.patch.object(ni, "_check", ni_oracle.check):
        plain = [_outcome(check) for check in checks]
    with mock.patch.object(ni, "_check", ni_oracle.sliced_check):
        sliced = [_outcome_and_runs(check, ni_oracle, space)
                  for check in checks]
    for (got, runs, _), want, (outcome, oracle_runs) in zip(cubes, plain,
                                                            sliced):
        assert got == want == outcome
        assert runs == list(dict.fromkeys(oracle_runs))


def _assert_warm_matches_cold(program, policy, space, contract, shuffle):
    """The checks run back to back on one exploration, in the order
    `shuffle` gives them, twice over, give each the outcome and the box
    splits it gives on a cold exploration. Unless a check raises, which
    leaves the slot empty, no state is served twice over the first time,
    and the second time over serves nothing."""
    checks = _checks(program, policy, space, contract)
    cold = [_recorded(_cold(check), space) for check in checks]
    order = list(range(len(checks)))
    shuffle(order)
    ni._slot.clear()
    warm = [(i, _recorded(checks[i], space)) for i in order + order]
    for i, (got, _, got_splits) in warm:
        want, _, want_splits = cold[i]
        assert got == want
        assert got_splits == want_splits
    if all(isinstance(outcome, str) for outcome, _, _ in cold):
        first = [state for _, (_, runs, _) in warm[:len(checks)]
                 for state in runs]
        assert len(set(first)) == len(first), "a state was served twice"
        assert all(runs == [] for _, (_, runs, _) in warm[len(checks):])


def _assert_memo_matches_per_state_path(program, policy, space,
                                        contract=(SHM, STL)):
    checks = _checks(program, policy, space, contract)
    with mock.patch.object(ni, "_check", ni_oracle.check):
        shared = [_outcome(check) for check in checks]
        with mock.patch.object(ni_oracle, "_shared_runs", _pass_through):
            oracle = [_outcome(check) for check in checks]
    for got, want in zip(shared, oracle):
        assert got == want


@st.composite
def _item(draw, bases):
    """One instruction, or a short pattern, of a generated program, whose
    memory accesses go through one of `bases`."""
    kind = draw(st.sampled_from(
        ("load", "load", "store", "forward", "alu", "index", "li")))
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
    if kind == "index":     # a shared load indexed by the low byte of src
        address = draw(st.sampled_from([t for t in TEMPS if t != dst]))
        return [f"slli {dst}, {src}, 56", f"srli {dst}, {dst}, 56",
                f"add {address}, {dst}, a4", f"lbu {dst}, 0({address})"]
    if kind == "alu":
        op = draw(st.sampled_from(("add", "xor", "sub", "and", "addi",
                                   "slli", "srli", "mv")))
        if op == "mv":
            return [f"mv {dst}, {src}"]
        if op in ("addi", "slli", "srli"):
            return [f"{op} {dst}, {src}, {draw(st.sampled_from((1, 4)))}"]
        return [f"{op} {dst}, {src}, {draw(st.sampled_from(DATA))}"]
    value = draw(st.sampled_from((0, 1, 4, 0x1000, 0x8000, 0x40)))
    return [f"li {dst}, {value}"]


@st.composite
def _programs(draw, wide=False):
    """(program, policy, space): forward branches on varying registers,
    at most one jalr through the varying a3, and an optional burst region
    around the whole body. A `wide` space gives one of a0, a1, a2 and the
    first cell 3 to 6 values and adds a6, which no program reads, with 3
    to 6."""
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
    wide_slot = draw(st.sampled_from((A0, A1, A2, "cell"))) if wide else None

    def domain(slot, values):
        size = (3, 6) if slot == wide_slot else (1, 2)
        return tuple(draw(st.lists(st.sampled_from(values), min_size=size[0],
                                   max_size=size[1], unique=True)))

    registers = [(A0, domain(A0, (0, 1, 5, 0x8000, 2, 0x1000))),
                 (A1, domain(A1, (0, 1, 5, 2, 3, 0x80))),
                 (A2, domain(A2, MAPPED)), (A5, draw(st.sampled_from(FAULTING)))]
    jalrs = [i for i, ins in enumerate(program.instructions)
             if ins.opcode == "jalr"]
    if jalrs:
        # forward targets only, so no run loops
        registers.append((A3, domain(A3, range(jalrs[0] + 1, len(program) + 1))))
    if wide:
        registers.append((A6, domain(wide_slot, range(8))))
    cells = tuple((addr, domain("cell" if i == 0 else None,
                                (0, 1, 7, 0x80, 2, 0xFF)))
                  for i, addr in enumerate(draw(st.lists(
                      st.sampled_from(CELLS), min_size=1, max_size=2,
                      unique=True))))
    space = StateSpace(
        base_state=ArchState(regs={A3: len(program), reg_num("a4"): 0x8000}),
        varying_registers=tuple(registers), varying_cells=cells)
    public = draw(st.sets(st.sampled_from((A0, A1, A2, A3, A5, A6))))
    private = [a for a, _ in cells if LAYOUT.classify(a) == "private"]
    public_cells = draw(st.sets(st.sampled_from(private))) if private else ()
    return program, Policy(frozenset(public), frozenset(public_cells)), space


@settings(deadline=None)
@given(case=st.one_of(_programs(), _programs(wide=True)),
       contract=st.sampled_from(CONTRACTS))
def test_cubes_match_tuple_walk(case, contract):
    program, policy, space = case
    _assert_cubes_match_oracle(program, policy, space, contract)


@settings(deadline=None)
@given(case=st.one_of(_programs(), _programs(wide=True)),
       contract=st.sampled_from(CONTRACTS),
       rnd=st.randoms(use_true_random=False))
def test_warm_exploration_matches_cold(case, contract, rnd):
    program, policy, space = case
    _assert_warm_matches_cold(program, policy, space, contract, rnd.shuffle)


@settings(max_examples=30, deadline=None)
@given(case=_programs(), contract=st.sampled_from(CONTRACTS))
def test_shared_runs_match_per_state_path(case, contract):
    program, policy, space = case
    _assert_memo_matches_per_state_path(program, policy, space, contract)


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
    _assert_cubes_match_oracle(GUARDED_LOAD, Policy(), space)
    _assert_memo_matches_per_state_path(GUARDED_LOAD, Policy(), space)
