"""The dependence slice of a program (asm.Program.observed_labels) and the
relevant slots it gives a space (contracts.relevant_slots): one test per
rule, and the property that makes the cube walk's use of them sound:
two states that differ only in slots that are not relevant give every
projection the same node, and the same runtime escape, as
simulate_committed and its windows run them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ni_oracle
from test_exploration import _snippet_cases, _window_cases
from test_shared_runs import _assert_cubes_match_oracle
from rmikit import ni
from rmikit.asm import parse_program, reg_num
from rmikit.contracts import (ARCH, CONTRACT_VIEWS, SEQ, SHM, STL,
                              ContractError, Projection, TraceDag,
                              relevant_slots, simulate_committed)
from rmikit.machine import ArchState, MachineError, MemoryLayout
from rmikit.modes import runtime_escape
from rmikit.ni import Policy, StateSpace, check_direct_ni

LAYOUT = MemoryLayout()

# the varying components of the rule tests, each standing for itself:
# relevant_slots gives back the values of these dicts
REGISTERS = {reg_num(name): name for name in ("a0", "a1", "a2", "a3")}
CELLS = {0x1000: "0x1000", 0x8000: "0x8000"}
MEMORY = {"0x1000", "0x8000"}


def _relevant(source, kind="shm"):
    return relevant_slots(parse_program(source), REGISTERS, CELLS, kind)


def test_stored_value_is_not_relevant():
    """A value that is only stored reaches no observation; the store's
    base is an address."""
    assert _relevant("sb a0, 0(a1)\nsd a2, 8(a1)\n") == {"a1"}


def test_loaded_value_is_relevant_where_it_feeds_an_address():
    """A loaded value carries memory, and the load's base: loaded and
    dropped, memory is not relevant; used as the next load's base, it
    is."""
    assert _relevant("lbu t0, 0(a0)\n") == {"a0"}
    assert _relevant("lbu t0, 0(a0)\nadd t1, t0, a1\nlw t2, 0(t1)\n") == {
        "a0", "a1"} | MEMORY


def test_flow_through_memory():
    """A stored value flows into every later load, whatever the
    addresses: memory is one label."""
    source = "sb a1, 0(a0)\nlbu t0, 4(a2)\nlbu t1, 0(t0)\n"
    assert _relevant(source) == {"a0", "a1", "a2"} | MEMORY


@pytest.mark.parametrize("op", [
    "add t0, a0, a1", "sub t0, a0, a1", "and t0, a0, a1", "or t0, a0, a1",
    "xor t0, a0, a1", "addi t0, a0, 4", "slli t0, a0, 2", "srli t0, a0, 2",
    "mv t0, a0"])
def test_register_op_carries_its_sources(op):
    """An ALU op, addi, slli, srli or mv gives its rd its sources'
    labels, through any chain of such ops."""
    sources = {"a0", "a1"} if op.endswith("a1") else {"a0"}
    assert _relevant(f"{op}\nmv t1, t0\nlbu t2, 0(t1)\n") == sources


def test_branch_and_jalr_operands_are_observed():
    assert _relevant("bne a0, a1, done\njalr x0, 0(a2)\ndone:\n") == {
        "a0", "a1", "a2"}
    assert _relevant("blt a3, zero, done\ndone:\n") == {"a3"}


def test_constant_writes_carry_nothing():
    """li, jal and jalr write constants: what they write reaches an
    address, and no varying component does."""
    source = ("li t0, 0x8000\njal t1, next\nnext:\njalr t2, 0(t1)\n"
              "add t3, t0, t1\nadd t3, t3, t2\nlbu t4, 0(t3)\n")
    assert _relevant(source) == set()


def test_x0_is_no_label():
    """x0 is constant: a branch on it or a base of it observes nothing,
    least of all memory, whose label shares its bit."""
    source = "sb a0, 0(a1)\nbeq zero, zero, done\nlbu t0, 0(zero)\ndone:\n"
    assert _relevant(source) == {"a1"}


def test_arch_observes_loaded_values():
    """arch observes every loaded value: memory, and so every stored
    value, is relevant, while under the other leakage models a copy's
    bytes are not."""
    copy = "lbu t0, 0(a0)\nsb t0, 0(a1)\n"
    assert _relevant(copy) == {"a0", "a1"}
    for kind in ("ct", "mem"):
        assert _relevant(copy, kind) == {"a0", "a1"}
    assert _relevant(copy, "arch") == {"a0", "a1"} | MEMORY
    assert _relevant("sb a2, 0(a1)\n", "arch") == {"a1", "a2"} | MEMORY


# every contract, and the burst hardware mode's view
PROJECTIONS = (*CONTRACT_VIEWS.values(), Projection(SHM, STL, burst_only=True))


def _observe(program, state, projections, dag):
    """The runtime escape and the node of each projection of the state's
    run, or the class and message of what running it raised."""
    try:
        run = simulate_committed(program, state, LAYOUT)
        return runtime_escape(run), [p(dag, run) for p in projections]
    except (MachineError, ContractError) as exc:
        return type(exc).__name__, str(exc)


@settings(deadline=None)
@given(case=st.one_of(_snippet_cases(), _window_cases()), data=st.data())
def test_states_that_differ_only_in_irrelevant_slots_share_every_node(
        case, data):
    """Over tests/snippetgen.py snippets, with and without a jalr prefix,
    and the guarded programs of test_shared_runs, on random spaces: a
    state and another that differs from it only in slots that are not
    relevant under arch, or under the other leakage models, give each
    projection under those models the same node, in one TraceDag, and
    the same runtime escape, or raise alike."""
    program, space, _ = case
    table = ni._components(space, LAYOUT)
    registers, cells = ni_oracle._slots(table)
    dag = TraceDag()
    for kind in ("shm", "arch"):
        relevant = relevant_slots(program, registers, cells, kind)
        projections = [p for p in PROJECTIONS
                       if (p.leak.kind == "arch") == (kind == "arch")]
        for _ in range(3):
            a = [data.draw(st.sampled_from(row[3])) for row in table]
            b = [value if i in relevant else data.draw(st.sampled_from(row[3]))
                 for i, (value, row) in enumerate(zip(a, table))]
            assert (_observe(program, ni._state(space.base_state, table, a),
                             projections, dag)
                    == _observe(program, ni._state(space.base_state, table, b),
                                projections, dag))


A0, A2, A3, A4 = (reg_num(r) for r in ("a0", "a2", "a3", "a4"))
# a4 holds a shared base, a2 a private one, whose byte at 0x1000 varies
BASE = ArchState(regs={A2: 0x1000, A4: 0x8000})
SECRET_A0 = ((A0, (0x8000, 0x8001)),)
SECRET_BYTE = ((0x1000, (0, 1)),)


@pytest.mark.parametrize("source, registers, cells, leak", [
    ("add t0, a0, zero\nlbu t1, 0(t0)\n", SECRET_A0, (), SHM),
    ("mv t0, a0\nslli t0, t0, 1\nsrli t0, t0, 1\naddi t0, t0, 0\n"
     "lbu t1, 0(t0)\n", SECRET_A0, (), SHM),
    ("lbu t0, 0(a2)\nadd t1, t0, a4\nlbu t2, 0(t1)\n", (), SECRET_BYTE, SHM),
    ("sb a0, 0(a2)\nlbu t0, 0(a2)\nadd t1, t0, a4\nlbu t2, 0(t1)\n",
     SECRET_A0, (), SHM),
    ("lbu t0, 0(a0)\n", SECRET_A0, (), SHM),
    ("sb zero, 0(a0)\n", SECRET_A0, (), SHM),
    ("jalr x0, 0(a3)\nlbu t0, 0(a4)\n", ((A3, (1, 2)),), (), SHM),
    ("beq a0, zero, skip\nlbu t0, 0(a4)\nskip:\n", ((A0, (0, 1)),), (), SHM),
    ("lbu t0, 0(a2)\n", (), SECRET_BYTE, ARCH)],
    ids=["alu", "addi_mv_slli_srli", "load", "store", "load_base",
         "store_base", "jalr", "branch", "arch"])
def test_each_rule_decides_a_verdict(source, registers, cells, leak):
    """One program per rule of the slice, where a secret reaches an
    observation under `leak` through that rule alone, so direct NI under
    (leak, seq) is violated: every check gives the plain tuple walk's
    outcome, and serves the states of the sliced one (test_shared_runs).
    A slice without the rule would call the secret irrelevant, and that
    check would hold."""
    program = parse_program(source)
    space = StateSpace(base_state=BASE, varying_registers=registers,
                       varying_cells=cells)
    assert not check_direct_ni(program, (leak, SEQ), Policy(), space,
                               LAYOUT).holds
    _assert_cubes_match_oracle(program, Policy(), space)
