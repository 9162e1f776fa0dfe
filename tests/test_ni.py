"""Non-interference oracle tests."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit import contracts, ni
from rmikit.asm import parse_program, reg_num
from rmikit.contracts import (ARCH, CT, ENUM_CAP, SEQ, SHM, SPEC, STL,
                              EnumerationCapExceeded, FuelExhausted,
                              contract_trace_set)
from rmikit.corpus import load_corpus, load_entry, verify_corpus
from rmikit.machine import ArchState, MemoryLayout
from rmikit.modes import BURST, INSECURE, MI6, SAFE
from rmikit.ni import (Policy, StateSpace, check_direct_ni,
                       check_hw_satisfies_one, check_relative_ni,
                       enumerate_states)

import ni_oracle
from test_shared_runs import _programs

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

GADGET_SPACE = StateSpace(
    base_state=ArchState(regs={A0: 8}),
    varying_registers=((A0, (2, 8)),),
    varying_cells=((0x1008, (0, 1)), (0x1002, (0, 1))))

GADGET_POLICY = Policy(public_regs=frozenset({A0}),
                       public_private_cells=frozenset({0x1002}))


def test_enumerate_states_is_deterministic_product():
    states = enumerate_states(GADGET_SPACE, LAYOUT)
    assert len(states) == 8
    assert states == enumerate_states(GADGET_SPACE, LAYOUT)


def pi_key(state, policy):
    """The reference public projection of a state: equality of keys is
    pi-equivalence. The pc and shared memory are public, and so are the
    registers and private cells the policy lists."""
    return (
        state.pc,
        tuple((r, state.reg(r)) for r in sorted(policy.public_regs)),
        tuple((a, state.private_mem.get(a, 0))
              for a in sorted(policy.public_private_cells)),
        tuple(sorted((a, b) for a, b in state.shared_mem.items() if b)),
    )


def _assert_projection_is_pi_key(space, policy):
    """The checkers' public projection of tuples splits every pair of
    states of the space as `pi_key` does."""
    table = ni._components(space, LAYOUT)
    slots = ni._public(table, policy)
    keys = [(pi_key(state, policy), [values[i] for i in slots])
            for state, values in zip(
                enumerate_states(space, LAYOUT),
                itertools.product(*(domain for *_, domain in table)))]
    assert len(keys) == space.size()
    for (pi_a, public_a), (pi_b, public_b) in itertools.combinations(keys, 2):
        assert (pi_a == pi_b) == (public_a == public_b)


def test_pi_key_groups_by_public_projection():
    a, b, *_ = enumerate_states(GADGET_SPACE, LAYOUT)
    assert (pi_key(a, GADGET_POLICY) == pi_key(b, GADGET_POLICY)) == \
        (a.reg(A0) == b.reg(A0)
         and a.private_mem.get(0x1002, 0) == b.private_mem.get(0x1002, 0))
    for policy in (GADGET_POLICY, Policy()):
        _assert_projection_is_pi_key(GADGET_SPACE, policy)


@settings(max_examples=30, deadline=None)
@given(case=_programs())
def test_public_projection_matches_pi_key(case):
    _, policy, space = case
    _assert_projection_is_pi_key(space, policy)


def test_no_memory_program_holds_trivially():
    program = parse_program("add a1, a0, a0\nxor a2, a1, a0")
    space = StateSpace(base_state=ArchState(),
                       varying_registers=((A0, (0, 1, 2)),))
    verdict = check_direct_ni(program, (SHM, SEQ), Policy(), space, LAYOUT)
    assert verdict.holds


def test_public_address_load_holds():
    program = parse_program("lbu a4, 0(a1)")
    space = StateSpace(base_state=ArchState(),
                       varying_registers=((A1, (0x8000, 0x8008)),))
    verdict = check_direct_ni(program, (SHM, SEQ),
                              Policy(public_regs=frozenset({A1})),
                              space, LAYOUT)
    assert verdict.holds


def test_gadget_violates_direct_ni_under_spec():
    verdict = check_direct_ni(GADGET, (SHM, SPEC), GADGET_POLICY,
                              GADGET_SPACE, LAYOUT)
    assert not verdict.holds
    a, b = verdict.witness
    # replayable witness: regenerate traces and observe the inequality
    ta = contract_trace_set(GADGET, a, LAYOUT, SHM, SPEC)
    tb = contract_trace_set(GADGET, b, LAYOUT, SHM, SPEC)
    assert ta != tb
    # and the shrunk pair differs only in the secret byte
    assert a.reg(A0) == b.reg(A0)
    assert a.private_mem.get(0x1002, 0) == b.private_mem.get(0x1002, 0)
    assert a.private_mem.get(0x1008, 0) != b.private_mem.get(0x1008, 0)


def test_gadget_holds_under_seq():
    verdict = check_direct_ni(GADGET, (SHM, SEQ), GADGET_POLICY,
                              GADGET_SPACE, LAYOUT)
    assert verdict.holds


def test_relative_ni_reflexive():
    verdict = check_relative_ni(GADGET, (SHM, SPEC), (SHM, SPEC),
                                GADGET_SPACE, LAYOUT)
    assert verdict.holds


def test_relative_ni_gadget_violated_seq_to_stl():
    verdict = check_relative_ni(GADGET, (SHM, SEQ), (SHM, STL),
                                GADGET_SPACE, LAYOUT)
    assert not verdict.holds
    a, b = verdict.witness
    assert contract_trace_set(GADGET, a, LAYOUT, SHM, SEQ) == \
        contract_trace_set(GADGET, b, LAYOUT, SHM, SEQ)
    assert contract_trace_set(GADGET, a, LAYOUT, SHM, STL) != \
        contract_trace_set(GADGET, b, LAYOUT, SHM, STL)


def test_hw_satisfies_mi6_always():
    verdict = check_hw_satisfies_one(GADGET, MI6, (SHM, SEQ),
                                     GADGET_SPACE, LAYOUT)
    assert verdict.holds


def test_hw_satisfies_safe_but_not_insecure():
    ok = check_hw_satisfies_one(GADGET, SAFE, (SHM, SEQ),
                                GADGET_SPACE, LAYOUT)
    bad = check_hw_satisfies_one(GADGET, INSECURE, (SHM, SEQ),
                                 GADGET_SPACE, LAYOUT)
    assert ok.holds and not bad.holds


def test_unread_space_past_the_state_cap_holds_in_one_run(monkeypatch):
    """`li a0, 1` reads nothing, so one run serves all 257 * 257 states:
    the check holds with every state but the first checked against it."""
    space = StateSpace(base_state=ArchState(),
                       varying_registers=((A0, tuple(range(257))),
                                          (A1, tuple(range(257)))))
    assert space.size() == 257 * 257 > ENUM_CAP
    calls = _count_runs(monkeypatch)
    verdict = check_direct_ni(parse_program("li a0, 1"), (SHM, SEQ), Policy(),
                              space, LAYOUT)
    assert verdict.to_json() == {"verdict": "holds", "pairs_checked": 66048}
    assert len(calls) == 1


def test_cube_cap_enforced(monkeypatch):
    """ENUM_CAP bounds the pieces a check forms: with a0 and a1 public and
    unread, the one cube of `li a0, 1` falls into 5 * 5 pieces, one per
    public pattern. Listing states stays bounded by the same cap."""
    monkeypatch.setattr(contracts, "ENUM_CAP", 16)
    space = StateSpace(base_state=ArchState(),
                       varying_registers=((A0, tuple(range(5))),
                                          (A1, tuple(range(5)))))
    public = Policy(public_regs=frozenset({A0, A1}))
    with pytest.raises(EnumerationCapExceeded, match="cubes") as exc:
        check_direct_ni(parse_program("li a0, 1"), (SHM, SEQ), public,
                        space, LAYOUT)
    assert exc.value.needed == 25
    assert check_direct_ni(parse_program("li a0, 1"), (SHM, SEQ), Policy(),
                           space, LAYOUT).holds
    with pytest.raises(EnumerationCapExceeded, match="states"):
        enumerate_states(space, LAYOUT)


def test_state_cap_counts_states_not_pairs():
    space = StateSpace(base_state=ArchState(regs={A0: 8}),
                       varying_registers=((A0, (2, 8)),),
                       varying_cells=((0x1008, tuple(range(256))),
                                      (0x1002, (0, 1, 2, 3))))
    assert space.size() == 2048
    verdict = check_direct_ni(GADGET, (SHM, SPEC), GADGET_POLICY, space, LAYOUT)
    assert not verdict.holds


def test_fuel_exhausted_run_is_never_holds():
    program = parse_program(
        "li t0, 20000\nloop:\naddi t0, t0, -1\nbne t0, x0, loop\n"
        "li a1, 0x8000\nadd a1, a1, a2\nlbu a3, 0(a1)")
    space = StateSpace(base_state=ArchState(),
                       varying_registers=((reg_num("a2"), (0, 1)),))
    with pytest.raises(FuelExhausted):
        check_direct_ni(program, (SHM, SEQ), Policy(), space, LAYOUT)


@pytest.mark.parametrize("space, message", [
    (StateSpace(base_state=ArchState(), varying_registers=((A0, ()),)),
     "empty value domain"),
    (StateSpace(base_state=ArchState(), varying_registers=((A0, (2, 8)),),
                varying_cells=((0x1008, ()),)),
     "empty value domain"),
    (StateSpace(base_state=ArchState(),
                varying_registers=((A0, (5, 6)), (A0, (1,)))),
     "listed twice"),
    (StateSpace(base_state=ArchState(), varying_registers=((A0, (2, 8)),),
                varying_cells=((0x1008, (0, 1)), (0x1008, (0,)))),
     "listed twice"),
    (StateSpace(base_state=ArchState(),
                varying_registers=((0, (0, 1, 2)), (A0, (2, 8)))),
     "x0"),
    (StateSpace(base_state=ArchState(), varying_registers=((A0, (2, 8, 2)),)),
     "lists one value twice"),
    (StateSpace(base_state=ArchState(), varying_registers=((A0, (2, 8)),),
                varying_cells=((0x1008, (0, 0x100, 0x200)),)),
     "lists one value twice")],
    ids=["register", "cell", "register-twice", "cell-twice", "x0",
         "value-twice", "value-collides-after-masking"])
def test_empty_value_domain_raises(space, message):
    """A space whose states are not the product of its listed domains is
    refused. An empty domain leaves no states, over which every check
    would hold vacuously; with (2, 8) alone the gadget is violated. A
    register or cell listed twice would take only its last domain, so
    a0 = 5 and 6 would never be tried; a varying x0 would multiply the
    states by values no instruction can see. A value listed twice, or
    two values equal once masked to a byte, would enumerate one state
    several times."""
    with pytest.raises(ni.InvalidSpace, match=message):
        check_direct_ni(GADGET, (SHM, SPEC), Policy(), space, LAYOUT)


def _count_runs(monkeypatch):
    """The states simulate_committed runs from, in call order, from here
    on. The exploration slot is emptied, so nothing run before counts."""
    ni._slot.clear()
    calls = []
    original = contracts.simulate_committed

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module in (contracts, ni):
        monkeypatch.setattr(module, "simulate_committed", counting)
    return calls


def _count_derived(monkeypatch):
    """The (program id, state) pairs, each state a tuple of domain
    indices, whose runs are derived from a committed path
    (ni._Path.derive) from here on: each is served without a committed
    run."""
    derived = []
    original = ni._Path.derive

    def counting(path, origin):
        derived.append((id(path.first.program), origin))
        return original(path, origin)

    monkeypatch.setattr(ni._Path, "derive", counting)
    return derived


def test_one_committed_run_per_read_class(monkeypatch):
    """No state runs twice, and a holding check serves one state per class
    of states that agree on what a run read. With a0 = 2 a run reads a0
    and the public cell 0x1002 (two classes, two committed paths); with
    a0 = 8 it reads a0 and, in the spec window, the secret at 0x1008 (two
    classes on one committed path: the second runs only its window)."""
    calls = _count_runs(monkeypatch)
    derived = _count_derived(monkeypatch)
    states = enumerate_states(GADGET_SPACE, LAYOUT)
    verdict = check_relative_ni(GADGET, (SHM, SPEC), (SHM, SEQ),
                                GADGET_SPACE, LAYOUT)
    assert verdict.holds
    assert all(calls.count(state) == 1 for state in calls)
    assert all(state in states for state in calls)
    classes = {(s.reg(A0), s.private_mem[0x1002 if s.reg(A0) == 2 else 0x1008])
               for s in states}
    assert (len(calls), len(derived)) == (3, 1)
    assert len(calls) + len(derived) == len(classes) == 4


SPECTRE_1024 = StateSpace(
    base_state=ArchState(regs={A0: 8}),
    varying_registers=((A0, (2, 8)),),
    varying_cells=((0x1008, tuple(range(256))), (0x1002, (0, 1))))


@pytest.mark.parametrize("check, runs, served", [
    (lambda entry, layout: check_direct_ni(
        entry.program, (SHM, SEQ), entry.policy, SPECTRE_1024, layout), 3, 3),
    (lambda entry, layout: check_hw_satisfies_one(
        entry.program, BURST, (SHM, STL), SPECTRE_1024, layout), 3, 258)],
    ids=["direct_shm_seq", "burst_shm_stl"])
def test_spectre_runs_per_read_class(monkeypatch, check, runs, served):
    """spectre_v1 over 1 024 states. Under seq no run reads the secret:
    a0 = 8 is one class and a0 = 2 two (the public cell 0x1002), each its
    own committed path. Burst's stl window reads the secret when a0 = 8:
    256 classes, plus the two, served by the same three committed runs,
    the other 255 classes deriving theirs and running only the window."""
    entry = load_entry("spectre_v1")
    layout = MemoryLayout(shared_range=(0x8000, 0xC000))
    assert SPECTRE_1024.size() == 1024
    calls = _count_runs(monkeypatch)
    derived = _count_derived(monkeypatch)
    assert check(entry, layout).holds
    assert len(calls) == runs
    assert len(calls) + len(derived) == served
    assert len({repr(state) for state in calls}) == runs
    assert len(set(derived)) == len(derived)


@pytest.mark.filterwarnings(
    "ignore::rmikit.contracts.SelfContainmentViolation")
def test_verify_corpus_runs_each_state_once(monkeypatch):
    """The checks of a corpus entry share one exploration of its program,
    space and layout: verify_corpus() serves each (program, state) at
    most once, 25 of the 32 states of the corpus's spaces, and makes a
    committed run for 23 of them: two states share a committed path
    with a state served before them and run only their windows."""
    entries = load_corpus()
    ni._slot.clear()
    runs = []

    def counting(program, state, layout):
        runs.append((id(program), repr(state)))
        return contracts.simulate_committed(program, state, layout)
    monkeypatch.setattr(ni, "simulate_committed", counting)
    derived = _count_derived(monkeypatch)
    assert verify_corpus(entries)["ok"]
    assert sum(entry.space.size() for entry in entries) == 32
    assert len(runs) == len(set(runs)) == 23
    assert len(derived) == len(set(derived)) == 2


def test_stl_check_after_spec_check_runs_nothing(monkeypatch):
    """memcpy_right, direct (shm, spec) and then (shm, stl) over one space
    of two states that differ in a secret source byte: every stl window is
    a spec window, so the second check makes no committed run and
    derives none. The first makes one committed run per state: the
    states differ in a byte the committed path loads. Both give the
    verdicts of a cold exploration."""
    entry = load_entry("memcpy_right")
    a2 = reg_num("a2")
    space = StateSpace(
        base_state=ArchState(regs={A0: 0x8000, A1: 0x1100, a2: 8},
                             private_mem={0x1100 + i: i for i in range(8)}),
        varying_cells=((0x1104, (3, 200)),))
    policy = Policy(public_regs=frozenset({A0, A1, a2}))
    checks = [lambda c=c: check_direct_ni(entry.program, (SHM, c), policy,
                                          space, entry.layout)
              for c in (SPEC, STL)]
    cold = []
    for check in checks:
        ni._slot.clear()
        cold.append(check().to_json())
    calls = _count_runs(monkeypatch)
    derived = _count_derived(monkeypatch)
    assert checks[0]().to_json() == cold[0]
    assert (len(calls), len(derived)) == (2, 0)
    assert checks[1]().to_json() == cold[1]
    assert (len(calls), len(derived)) == (2, 0)


def test_views_under_other_leakage_models_run_nothing(monkeypatch):
    """A branch on a0 guards a load of the private cell 0x1000. Direct
    (ct, spec) serves three states: a0 = 1 and a0 = 0 each make a
    committed run, and the second state with a0 = 0, whose window reads
    another value of the cell, derives its run from that path. (arch,
    spec) and then (shm, stl) over the same space derive their views
    from the kept runs and the raw steps of their windows, and run and
    derive none. Each gives the verdict of a cold exploration."""
    program = parse_program("beq a0, zero, skip\nlbu t0, 0(a1)\nskip:\n")
    space = StateSpace(base_state=ArchState(regs={A1: 0x1000}),
                       varying_registers=((A0, (0, 1)),),
                       varying_cells=((0x1000, (3, 4)),))
    checks = [lambda c=c: check_direct_ni(program, c, Policy(), space, LAYOUT)
              for c in ((CT, SPEC), (ARCH, SPEC), (SHM, STL))]
    cold = []
    for check in checks:
        ni._slot.clear()
        cold.append(check().to_json())
    ni._slot.clear()
    calls = _count_runs(monkeypatch)
    derived = _count_derived(monkeypatch)
    counts = []
    for check, want in zip(checks, cold):
        before = len(calls), len(derived)
        assert check().to_json() == want
        counts.append((len(calls) - before[0], len(derived) - before[1]))
    assert counts == [(2, 1), (0, 0), (0, 0)]


# spectre_v1's gadget with a0 over 16 values, 4 in bounds, and a full
# secret byte at 0x1008 and public byte at 0x1002: 2^20 states; and with
# a full byte at each of 0x1008-0x100b, a secret word: 2^36 states
SPECTRE_2_20 = StateSpace(
    base_state=ArchState(regs={A0: 8}),
    varying_registers=((A0, tuple(range(16))),),
    varying_cells=((0x1008, tuple(range(256))), (0x1002, tuple(range(256)))))
SPECTRE_2_36 = StateSpace(
    base_state=ArchState(regs={A0: 8}),
    varying_registers=((A0, tuple(range(16))),),
    varying_cells=tuple((addr, tuple(range(256)))
                        for addr in range(0x1008, 0x100C)))


def _direct_seq(entry, space, layout):
    return check_direct_ni(entry.program, (SHM, SEQ), entry.policy, space,
                           layout)


def _burst_stl(entry, space, layout):
    return check_hw_satisfies_one(entry.program, BURST, (SHM, STL), space,
                                  layout)


@pytest.mark.parametrize("space, check, runs, served, pairs", [
    (SPECTRE_2_20, _direct_seq, 271, 271, (1 << 20) - 16 * 256),
    (SPECTRE_2_20, _burst_stl, 271, 526, (1 << 20) - 512),
    (SPECTRE_2_36, _direct_seq, 16, 16, (1 << 36) - 16),
    (SPECTRE_2_36, _burst_stl, 16, 1036, (1 << 36) - 257)],
    ids=["2^20-direct_shm_seq", "2^20-burst_shm_stl",
         "2^36-direct_shm_seq", "2^36-burst_shm_stl"])
def test_spectre_past_the_state_cap_runs_per_read_class(
        monkeypatch, space, check, runs, served, pairs):
    """The checks hold with one state served per read class, and one
    committed run per committed path. Over 2^20 states under seq, a0 = 2
    reads the public cell (256 classes), 0, 1 and 3 read cells that do
    not vary and the 12 out-of-bounds values read a0 alone: 271 runs.
    Burst's stl window also reads the secret when a0 = 8: 256 classes
    more, 526 served, on the same 271 paths. Over 2^36 states no
    in-bounds a0 reads a varying cell (16 runs under seq), and the stl
    windows of a0 = 8 to 11 each read one byte of the secret word: 1 036
    served on 16 paths."""
    entry = load_entry("spectre_v1")
    layout = MemoryLayout(shared_range=(0x8000, 0xC000))
    calls = _count_runs(monkeypatch)
    derived = _count_derived(monkeypatch)
    verdict = check(entry, space, layout)
    assert verdict.to_json() == {"verdict": "holds", "pairs_checked": pairs}
    assert len(calls) == runs
    assert len(calls) + len(derived) == served


@pytest.mark.parametrize("check", [
    lambda entry, layout: check_direct_ni(
        entry.program, (SHM, SPEC), entry.policy, SPECTRE_2_20, layout),
    lambda entry, layout: check_relative_ni(
        entry.program, (SHM, SEQ), (SHM, STL), SPECTRE_2_20, layout)],
    ids=["direct_shm_spec", "relative_seq_stl"])
def test_violated_check_past_the_state_cap_matches_tuple_walk(
        monkeypatch, check):
    """Over the 2^20 states, the violated checks give the tuple walk's
    `to_json()` byte for byte, the walk run with the state cap lifted."""
    entry = load_entry("spectre_v1")
    layout = MemoryLayout(shared_range=(0x8000, 0xC000))
    cubes = json.dumps(check(entry, layout).to_json())
    monkeypatch.setattr(contracts, "ENUM_CAP", 1 << 20)
    monkeypatch.setattr(ni, "_check", ni_oracle.check)
    assert cubes == json.dumps(check(entry, layout).to_json())
    assert json.loads(cubes)["verdict"] == "violated"


def _count_built(monkeypatch):
    """The ArchStates that ni builds from here on."""
    built = []

    def counting(*args, **kwargs):
        built.append(ArchState(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(ni, "ArchState", counting)
    return built


def test_holding_check_builds_only_the_states_it_runs(monkeypatch):
    """Over spectre_v1's 1 024 states, a holding direct (shm, seq) check
    builds an ArchState only for each of its 3 committed runs: every
    other state stays a tuple of values."""
    entry = load_entry("spectre_v1")
    layout = MemoryLayout(shared_range=(0x8000, 0xC000))
    built = _count_built(monkeypatch)
    calls = _count_runs(monkeypatch)
    assert check_direct_ni(entry.program, (SHM, SEQ), entry.policy,
                           SPECTRE_1024, layout).holds
    assert len(built) == 3
    assert [id(state) for state in built] == [id(state) for state in calls]


@pytest.mark.parametrize("space, runs, derived_runs", [
    (SPECTRE_2_20, 271, 255), (SPECTRE_2_36, 16, 1020)],
    ids=["2^20", "2^36"])
def test_derived_runs_build_no_state(monkeypatch, space, runs, derived_runs):
    """Burst mode over 2^20 and 2^36 spectre_v1 states: ni builds one
    ArchState per committed run and none for the 255 and 1 020 runs
    derived from those paths, whose windows start on the path's
    snapshot with a register patch and a store overlay."""
    entry = load_entry("spectre_v1")
    layout = MemoryLayout(shared_range=(0x8000, 0xC000))
    built = _count_built(monkeypatch)
    calls = _count_runs(monkeypatch)
    derived = _count_derived(monkeypatch)
    assert _burst_stl(entry, space, layout).holds
    assert (len(calls), len(derived)) == (runs, derived_runs)
    assert [id(state) for state in built] == [id(state) for state in calls]


# GADGET behind a store to each memory, and a base state with something
# in each of its three dicts
STORING_GADGET = parse_program("""\
li t5, 0x8100
sb a0, 0(t5)
li t6, 0x1100
sb a0, 0(t6)
li t0, 4
bgeu a0, t0, done
li t1, 0x1000
add t1, t1, a0
lbu t2, 0(t1)
slli t2, t2, 6
li t3, 0x8000
add t3, t3, t2
lbu t4, 0(t3)
done:
""")
# a0 varies, or only the secret does: then no varying component lies
# in the register dict, and in both none lies in the shared memory
STORING_VARIED = [((A0, (2, 8)),), ()]


@pytest.mark.parametrize("registers", STORING_VARIED, ids=["a0", "secret"])
@pytest.mark.parametrize("check, holds", [
    (lambda s: check_direct_ni(STORING_GADGET, (SHM, SEQ), GADGET_POLICY, s,
                               LAYOUT), True),
    (lambda s: check_direct_ni(STORING_GADGET, (SHM, SPEC), GADGET_POLICY,
                               s, LAYOUT), False),
    (lambda s: check_relative_ni(STORING_GADGET, (SHM, SEQ), (SHM, SEQ), s,
                                 LAYOUT), True),
    (lambda s: check_relative_ni(STORING_GADGET, (SHM, SEQ), (SHM, STL), s,
                                 LAYOUT), False),
    (lambda s: check_hw_satisfies_one(STORING_GADGET, SAFE, (SHM, SEQ), s,
                                      LAYOUT), True),
    (lambda s: check_hw_satisfies_one(STORING_GADGET, INSECURE, (SHM, SEQ),
                                      s, LAYOUT), False)],
    ids=["direct-holds", "direct-violated", "relative-holds",
         "relative-violated", "hw-holds", "hw-violated"])
def test_checks_leave_the_base_state_unchanged(registers, check, holds):
    """Every checker, holding and violated, with the program storing to
    both memories and writing registers: the three dicts of the space's
    base state are the same objects after the check, with the same
    contents, whichever dicts the varying components lie in."""
    ni._slot.clear()
    base = ArchState(regs={A0: 8, A1: 3}, private_mem={0x1100: 9},
                     shared_mem={0x8100: 9})
    space = StateSpace(base_state=base, varying_registers=registers,
                       varying_cells=((0x1008, (0, 1)),))
    dicts = (base.regs, base.private_mem, base.shared_mem)
    before = [dict(d) for d in dicts]
    assert check(space).holds == holds
    assert (base.regs, base.private_mem, base.shared_mem) == dicts
    assert all(a is b for a, b in zip(
        (base.regs, base.private_mem, base.shared_mem), dicts))
    assert [dict(d) for d in dicts] == before


def test_verdict_json_shape():
    verdict = check_direct_ni(GADGET, (SHM, SPEC), GADGET_POLICY,
                              GADGET_SPACE, LAYOUT)
    payload = verdict.to_json()
    assert payload["verdict"] == "violated"
    assert "state_a" in payload["witness"] and "state_b" in payload["witness"]


@settings(max_examples=20, deadline=None)
@given(extra_public=st.sets(st.sampled_from([A0, reg_num("t0"), reg_num("t1")])))
def test_monotone_policy(extra_public):
    """Enlarging the public set can only flip violated -> holds."""
    small_public = check_direct_ni(GADGET, (SHM, SPEC), GADGET_POLICY,
                                   GADGET_SPACE, LAYOUT)
    bigger = Policy(public_regs=GADGET_POLICY.public_regs | extra_public,
                    public_private_cells=GADGET_POLICY.public_private_cells)
    bigger_public = check_direct_ni(GADGET, (SHM, SPEC), bigger,
                                    GADGET_SPACE, LAYOUT)
    # more public knowledge means fewer pi-equivalent pairs to satisfy:
    # a verdict that held cannot become violated
    if small_public.holds:
        assert bigger_public.holds
