"""Non-interference oracle tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit import contracts, ni
from rmikit.asm import parse_program, reg_num
from rmikit.contracts import (ENUM_CAP, SEQ, SHM, SPEC, STL,
                              EnumerationCapExceeded, FuelExhausted,
                              contract_trace_set)
from rmikit.corpus import load_entry
from rmikit.machine import ArchState, MemoryLayout
from rmikit.modes import BURST, INSECURE, MI6, SAFE
from rmikit.ni import (Policy, StateSpace, check_direct_ni,
                       check_hw_satisfies_one, check_relative_ni,
                       enumerate_states, pi_key)

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


def test_pi_key_groups_by_public_projection():
    a, b, *_ = enumerate_states(GADGET_SPACE, LAYOUT)
    assert (pi_key(a, GADGET_POLICY) == pi_key(b, GADGET_POLICY)) == \
        (a.reg(A0) == b.reg(A0)
         and a.private_mem.get(0x1002, 0) == b.private_mem.get(0x1002, 0))


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


def test_pair_cap_enforced(monkeypatch):
    space = StateSpace(base_state=ArchState(),
                       varying_registers=((A0, tuple(range(257))),
                                          (A1, tuple(range(257)))))
    assert space.size() == 257 * 257 > ENUM_CAP

    def no_enumeration(*args):
        raise AssertionError("states enumerated past the cap")
    monkeypatch.setattr(ni, "enumerate_states", no_enumeration)
    with pytest.raises(EnumerationCapExceeded) as exc:
        check_direct_ni(parse_program("li a0, 1"), (SHM, SEQ), Policy(),
                        space, LAYOUT)
    assert exc.value.needed == space.size()


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


@pytest.mark.parametrize("space", [
    StateSpace(base_state=ArchState(), varying_registers=((A0, ()),)),
    StateSpace(base_state=ArchState(), varying_registers=((A0, (2, 8)),),
               varying_cells=((0x1008, ()),))],
    ids=["register", "cell"])
def test_empty_value_domain_raises(space):
    """An empty domain leaves no states, over which every check would hold
    vacuously; with (2, 8) alone the gadget is violated."""
    with pytest.raises(ni.InvalidSpace, match="empty value domain"):
        check_direct_ni(GADGET, (SHM, SPEC), Policy(), space, LAYOUT)


def _count_runs(monkeypatch):
    """The states simulate_committed runs from, in call order."""
    calls = []
    original = contracts.simulate_committed

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module in (contracts, ni):
        monkeypatch.setattr(module, "simulate_committed", counting)
    return calls


def test_one_committed_run_per_read_class(monkeypatch):
    """No state runs twice, and a holding check runs once per class of
    states that agree on what a run read. With a0 = 2 a run reads a0 and
    the public cell 0x1002 (two classes); with a0 = 8 it reads a0 and,
    in the spec window, the secret at 0x1008 (two classes)."""
    calls = _count_runs(monkeypatch)
    states = enumerate_states(GADGET_SPACE, LAYOUT)
    verdict = check_relative_ni(GADGET, (SHM, SPEC), (SHM, SEQ),
                                GADGET_SPACE, LAYOUT)
    assert verdict.holds
    assert all(calls.count(state) == 1 for state in calls)
    assert all(state in states for state in calls)
    classes = {(s.reg(A0), s.private_mem[0x1002 if s.reg(A0) == 2 else 0x1008])
               for s in states}
    assert len(calls) == len(classes) == 4


SPECTRE_1024 = StateSpace(
    base_state=ArchState(regs={A0: 8}),
    varying_registers=((A0, (2, 8)),),
    varying_cells=((0x1008, tuple(range(256))), (0x1002, (0, 1))))


@pytest.mark.parametrize("check, runs", [
    (lambda entry, layout: check_direct_ni(
        entry.program, (SHM, SEQ), entry.policy, SPECTRE_1024, layout), 3),
    (lambda entry, layout: check_hw_satisfies_one(
        entry.program, BURST, (SHM, STL), SPECTRE_1024, layout), 258)],
    ids=["direct_shm_seq", "burst_shm_stl"])
def test_spectre_runs_per_read_class(monkeypatch, check, runs):
    """spectre_v1 over 1 024 states. Under seq no run reads the secret:
    a0 = 8 is one class and a0 = 2 two (the public cell 0x1002). Burst's
    stl window reads the secret when a0 = 8: 256 classes, plus the two."""
    entry = load_entry("spectre_v1")
    layout = MemoryLayout(shared_range=(0x8000, 0xC000))
    assert SPECTRE_1024.size() == 1024
    calls = _count_runs(monkeypatch)
    assert check(entry, layout).holds
    assert len(calls) == runs
    assert len({repr(state) for state in calls}) == runs


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
