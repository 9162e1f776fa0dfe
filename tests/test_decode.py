"""The decoded step table of rmikit.machine against the opcode chain it
replaced (tests/step_oracle.py), and the one-slot cache of `decode`.

The step property runs every instruction of a program through
`machine.execute` and through the oracle, from the same random cores,
and compares the effect, the registers, the memories and the overlay
after it, or the raised error's class and its address or pc. The
programs are generated snippets (tests/snippetgen.py), the corpus
programs, and programs that hold every mnemonic of the dialect once, in
any order and with any operands, with numeric targets on both sides of
the program's ends. The run properties compare `simulate_committed` and
every wrong-path window with loops over the oracle.

These properties take their number of examples from the hypothesis
profile (tests/conftest.py registers a larger `ci` one).
"""

import gc
import itertools
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import step_oracle
from rmikit.asm import (BURST_OFF, BURST_ON, SYNTAX, Instruction, Program,
                        parse_program, reg_num)
from rmikit.contracts import (SPEC, ContractError, ReadWalk,
                              simulate_committed, wrong_path_events)
from rmikit.corpus import load_corpus
from rmikit.machine import (MASK64, PRIVATE, SHARED, ArchState, MachineError,
                            MemoryLayout, decode, execute)
from rmikit.ni import enumerate_states

from snippetgen import generate_snippet

LAYOUT = MemoryLayout()
CORPUS = load_corpus()

# x0, ra, t0, a0 and a1
REGISTERS = (0, 1, 5, 10, 11)
# memory bases: a0 and a1 hold mapped addresses, so most accesses through
# them reach memory
BASES = (10, 11, 10, 11, 0, 1, 5)
# addresses in both ranges, aligned and not, and next to their edges
PRIVATE_ADDRESSES = (0x1000, 0x1001, 0x1004, 0x1008, 0x1FF8, 0x1FFC, 0x1FFF)
SHARED_ADDRESSES = (0x8000, 0x8002, 0x8004, 0x8008, 0x8FF8, 0x8FFC, 0x8FFF)
# unmapped addresses, small values, and values with the top bits of a
# word or of a register set
OTHERS = (0, 1, 2, 3, 5, 7, 0x2000, 0x7FFF, 0x9000, 0x7FFFFFFF, 0x80000000,
          0xFFFFFFFF, 1 << 63, MASK64)
IMMEDIATES = (0, 1, -1, 4, -8, 7, 8, 63, 64, 0x7FF, -0x800, 0x1000, 0x8000)
OFFSETS = (0, 0, 4, -4, 8, -8, 1, 0x1000)
PRIVATE_CELLS = tuple(range(0x1000, 0x1010)) + tuple(range(0x1FF0, 0x2000))
SHARED_CELLS = tuple(range(0x8000, 0x8010)) + tuple(range(0x8FF0, 0x9000))

_values = st.one_of(st.sampled_from(PRIVATE_ADDRESSES + SHARED_ADDRESSES),
                    st.sampled_from(OTHERS),
                    st.integers(min_value=0, max_value=MASK64))


def _memory(cells):
    """Uniform random bytes on about seven cells in eight, from a drawn
    seed: hypothesis would draw mostly zeros, whose top bit is clear."""
    def fill(seed):
        rng = random.Random(seed)
        return {c: rng.randrange(256) for c in cells if rng.randrange(8)}
    return st.integers(0, 2**32 - 1).map(fill)


@st.composite
def _cores(draw):
    """(ArchState, overlay): registers, both memories, and an overlay
    that is None, empty or holds bytes over either domain. x0 sometimes
    has a value, which every read must ignore."""
    regs = {1: draw(_values), 5: draw(_values),
            10: draw(st.sampled_from(PRIVATE_ADDRESSES)),
            11: draw(st.sampled_from(SHARED_ADDRESSES))}
    if draw(st.booleans()):
        regs[0] = draw(_values)
    state = ArchState(regs=regs, private_mem=draw(_memory(PRIVATE_CELLS)),
                      shared_mem=draw(_memory(SHARED_CELLS)))
    overlay = draw(st.one_of(
        st.none(), st.just({}),
        st.dictionaries(st.one_of(
            st.tuples(st.just(PRIVATE), st.sampled_from(PRIVATE_CELLS)),
            st.tuples(st.just(SHARED), st.sampled_from(SHARED_CELLS))),
            st.integers(0, 255), min_size=1, max_size=16)))
    return state, overlay


# The mnemonics of the dialect grouped by operand form: each group shares
# one SYNTAX entry (so jalr, whose operands are those of a load, is in
# the loads' group), with "label" a group of its own. A generated program
# holds each mnemonic once, so every one has the same length.
FORMS = {}
for _mnemonic, _slots in sorted(SYNTAX.items()):
    FORMS.setdefault(_slots, []).append(_mnemonic)
FORMS = sorted(FORMS.items()) + [((), ["label"])]
LENGTH = sum(len(mnemonics) for _, mnemonics in FORMS)
# before the first instruction, on it, on the last, at the end, past it
TARGETS = (-1, 0, LENGTH - 1, LENGTH, LENGTH, LENGTH + 1)


@st.composite
def _form(draw, slots, mnemonics):
    """One instruction of each of `mnemonics`, of the operand form
    `slots`, all with the same operands."""
    fields = {}
    for slot in slots:
        if slot in ("rd", "rs1", "rs2"):
            fields[slot] = draw(st.sampled_from(REGISTERS))
        elif slot == "imm":
            fields["imm"] = draw(st.one_of(
                st.sampled_from(IMMEDIATES),
                st.integers(min_value=-(1 << 64), max_value=MASK64)))
        elif slot == "mem":
            fields["imm"] = draw(st.sampled_from(OFFSETS))
            fields["rs1"] = draw(st.sampled_from(BASES))
        elif slot == "target":
            fields["target"] = draw(st.sampled_from(TARGETS))
        elif slot == "csr_value":
            fields["csr_value"] = draw(st.sampled_from((BURST_ON, BURST_OFF)))
    return [Instruction(mnemonic, **fields) for mnemonic in mnemonics]


@st.composite
def _any_program(draw):
    """Every mnemonic of the dialect and a label, each once, in any
    order."""
    return Program(tuple(draw(st.permutations([
        ins for slots, mnemonics in FORMS
        for ins in draw(_form(slots, mnemonics))]))))


_programs = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda seed: generate_snippet(random.Random(seed))),
    st.sampled_from([entry.program for entry in CORPUS]),
    _any_program(), _any_program())


def _outcome(run, *args):
    """("returned", what `run(*args)` returned), or ("raised", the class
    and the address or pc of the error it raised)."""
    try:
        return "returned", run(*args)
    except (MachineError, ContractError) as exc:
        return ("raised", type(exc).__name__, getattr(exc, "address", None),
                getattr(exc, "pc", None))


def _core(state, overlay):
    regs = dict(state.regs)
    mems = {PRIVATE: dict(state.private_mem), SHARED: dict(state.shared_mem)}
    return regs, mems, None if overlay is None else dict(overlay)


@settings(deadline=None)
@given(program=_programs, cores=st.lists(_cores(), min_size=1, max_size=2))
def test_step_matches_oracle(program, cores):
    """Every pc of the program, and one on each side of it, from each
    core."""
    for (state, overlay), pc in itertools.product(
            cores, range(-1, len(program) + 1)):
        want_regs, want_mems, want_overlay = _core(state, overlay)
        want = _outcome(step_oracle.execute, program, LAYOUT, pc, want_regs,
                        want_mems, want_overlay)
        regs, mems, got_overlay = _core(state, overlay)
        got = _outcome(execute, program, LAYOUT, pc, regs, mems, got_overlay)
        assert got == want
        assert (regs, mems, got_overlay) == (want_regs, want_mems, want_overlay)


def _assert_run_matches_oracle(program, state, layout):
    want = _outcome(step_oracle.committed, program, state, layout)
    got = _outcome(simulate_committed, program, state, layout)
    if got[0] == "returned":
        run = got[1]
        got = "returned", (run.steps, run.resume, run.final_state)
    assert got == want
    if want[0] == "raised":
        return
    walk = ReadWalk(program, {}, {})
    for point in run.decision_points(SPEC):
        for target in point.targets:
            snapshot = run.resume[point.step]
            assert wrong_path_events(program, snapshot, target, layout,
                                     walk)[0] == step_oracle.window(
                program, snapshot, target, layout)


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_runs_match_oracle_on_corpus_spaces(entry):
    """Every state of the entry's space: the committed run, and the
    window at every decision point under spec, with every target."""
    for state in enumerate_states(entry.space, entry.layout):
        _assert_run_matches_oracle(entry.program, state, entry.layout)


@settings(deadline=None)
@given(program=_programs, core=_cores(), data=st.data())
def test_runs_match_oracle_on_random_cores(program, core, data):
    state, _ = core
    pc = data.draw(st.integers(-1, len(program)), label="pc")
    _assert_run_matches_oracle(program, ArchState(
        pc, state.regs, state.private_mem, state.shared_mem), LAYOUT)


def _li_a0(program):
    regs = {}
    execute(program, LAYOUT, 0, regs, {PRIVATE: {}, SHARED: {}})
    return regs[reg_num("a0")]


def test_interleaved_programs_never_run_stale_code():
    """A B A: each program runs its own code. An equal but distinct
    program is decoded anew, since the cache compares identity."""
    a, b = parse_program("li a0, 1\n"), parse_program("li a0, 2\n")
    assert [_li_a0(p) for p in (a, b, a, b, a)] == [1, 2, 1, 2, 1]
    twin = parse_program("li a0, 1\n")
    assert twin == a and twin is not a
    table = decode(a)
    assert decode(a) is table
    assert decode(twin) is not table
    assert [_li_a0(p) for p in (twin, a, twin)] == [1, 1, 1]


def test_decoding_keeps_no_program_alive():
    """Once another program has been decoded, nothing of the decoder
    holds an earlier one, and dropping it frees it."""
    program = parse_program("li a0, 1\nbeq a0, a0, 0\n")
    decode(program)
    ref = weakref.ref(program)
    del program
    decode(parse_program("li a0, 2\n"))
    gc.collect()
    assert ref() is None


def test_concurrent_decodes_never_pair_a_program_with_another_table():
    """Threads that run two programs in turn, with the interpreter
    switching threads as often as it can, each get their own program's
    result every time."""
    programs = [(parse_program(f"li a0, {n}\n"), n) for n in (1, 2)]
    wrong = []

    def run(offset):
        for i in range(300):
            program, want = programs[(i + offset) % 2]
            got = _li_a0(program)
            if got != want:
                wrong.append((want, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# the default ranges, and a private range that ends where the shared one
# starts, so one byte past it lies in the other domain
EDGE_LAYOUTS = (LAYOUT, MemoryLayout(private_range=(0x1000, 0x2000),
                                     shared_range=(0x2000, 0x2100)))


def _edges(layout):
    """Per mapped range: one byte before it, its first and last bytes, and
    one byte past it."""
    return [address for lo, hi in (layout.private_range, layout.shared_range)
            for address in (lo - 1, lo, hi - 1, hi)]


@pytest.mark.parametrize("layout", EDGE_LAYOUTS, ids=["apart", "adjacent"])
@pytest.mark.parametrize("source", [
    "lbu t0, 0(a0)", "lbu zero, 0(a0)", "lbu t0, 1(a1)", "sb t1, 0(a0)",
    "sb zero, 0(a0)", "sb t1, 1(a1)"])
@pytest.mark.parametrize("overlay", ["none", "empty", "edges"])
def test_byte_kernels_at_range_edges(layout, source, overlay):
    """`lbu` and `sb` run through their byte-wide step functions, which
    classify one address instead of a span: at each range's edges, one
    byte inside and one outside, with and without an overlay and with x0
    as rd or rs2, each gives the oracle's effect and core, or raises the
    oracle's error at the oracle's address with the core unchanged."""
    program = parse_program(source)
    assert decode(program).steps[0].__name__ == source.split()[0]
    edges = _edges(layout)
    for address in edges:
        regs = {reg_num("a0"): address, reg_num("a1"): (address - 1) & MASK64,
                reg_num("t0"): 7, reg_num("t1"): 0x1A5}
        mems = {domain: {x: (x * 7 + 1) & 0xFF for x in edges
                         if layout.classify(x) == domain}
                for domain in (PRIVATE, SHARED)}
        state = ArchState(regs=regs, private_mem=mems[PRIVATE],
                          shared_mem=mems[SHARED])
        cells = {(layout.classify(x), x): 0xEE for x in edges
                 if layout.classify(x)}
        start = {"none": None, "empty": {}, "edges": cells}[overlay]
        core, want_core = _core(state, start), _core(state, start)
        want = _outcome(step_oracle.execute, program, layout, 0, *want_core)
        got = _outcome(execute, program, layout, 0, *core)
        assert got == want
        assert core == want_core
        if want[0] == "raised":
            assert core == _core(state, start)
