"""Trace-set keys (contracts.TraceDag) against the brute-force enumerator
of tests/trace_oracle.py: key equality is trace-set equality, the walk of
a key is its trace set, and NI checks compare keys without building any
trace set."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit.asm import reg_num
from rmikit.contracts import (EMPTY_TRACE, ENUM_CAP, EXEC_KINDS, LEAK_KINDS,
                              SHM, SPEC, EnumerationCapExceeded, ExecModel,
                              LeakageModel, Projection, TraceDag,
                              simulate_committed)
from rmikit.corpus import ENTRY_NAMES, load_entry
from rmikit.machine import ArchState
from rmikit.modes import BURST, hw_projection
from rmikit.ni import Policy, StateSpace, check_direct_ni, enumerate_states

import snippetgen
from trace_oracle import oracle_burst_set, oracle_trace_set

# jal_far_away leaves its burst region by design
pytestmark = pytest.mark.filterwarnings(
    "ignore::rmikit.contracts.SelfContainmentViolation")

# the 12 (leak, exec) contracts, then the burst-mode projection
PROJECTIONS = [(LeakageModel(leak), ExecModel(kind))
               for leak in LEAK_KINDS for kind in EXEC_KINDS] + ["burst"]

ENTRIES = {name: load_entry(name) for name in ENTRY_NAMES}

COPY_SRC, COPY_DESTS, SECRETS = 0x1100, (0x8000, 0x8040), (3, 200)


def _outcome(build):
    """A trace set or key, or the `needed` of the cap it hits."""
    try:
        return build()
    except EnumerationCapExceeded as exc:
        return ("cap", exc.needed)


def _assert_keys_match_oracle(program, states, layout, projection):
    dag = TraceDag()
    if projection == "burst":
        key = hw_projection(program, BURST)
        oracle = lambda run: oracle_burst_set(run, SHM)
    else:
        key = Projection(*projection)
        oracle = lambda run: oracle_trace_set(run, *projection)
    keys, sets = [], []
    for state in states:
        run = simulate_committed(program, state, layout)
        keys.append(_outcome(lambda: key(dag, run)))
        sets.append(_outcome(lambda: oracle(run)))
        if isinstance(keys[-1], int):
            assert dag.traces(keys[-1]) == sets[-1]
        else:
            assert keys[-1] == sets[-1]
    for key_a, set_a in zip(keys, sets):
        for key_b, set_b in zip(keys, sets):
            assert (key_a == key_b) == (set_a == set_b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), projection=st.sampled_from(PROJECTIONS))
def test_snippet_keys_match_oracle(seed, projection):
    program = snippetgen.generate_snippet(random.Random(seed))
    states = enumerate_states(snippetgen.SNIPPET_SPACE, snippetgen.LAYOUT)
    assert len(states) == 16
    _assert_keys_match_oracle(program, states, snippetgen.LAYOUT, projection)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ENTRY_NAMES), projection=st.sampled_from(PROJECTIONS))
def test_corpus_keys_match_oracle(name, projection):
    entry = ENTRIES[name]
    _assert_keys_match_oracle(entry.program,
                              enumerate_states(entry.space, entry.layout),
                              entry.layout, projection)


def _copy_space(n, dests=COPY_DESTS, lengths=None):
    """Copy-loop states of length n (and of length 0, which for n = 0 is
    the same length): source bytes at COPY_SRC, one of them secret,
    copied to a shared destination."""
    A0, A1, A2 = (reg_num(r) for r in ("a0", "a1", "a2"))
    base = ArchState(regs={A0: dests[0], A1: COPY_SRC, A2: n},
                     private_mem={COPY_SRC + i: i for i in range(n)})
    lengths = lengths or ((0, n) if n else (0,))
    return StateSpace(
        base_state=base,
        varying_registers=((A0, dests), (A2, lengths)),
        varying_cells=((COPY_SRC + n // 2, SECRETS),))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["memcpy_left", "memcpy_right"]),
       n=st.integers(0, 12), projection=st.sampled_from(PROJECTIONS))
def test_copy_loop_keys_match_oracle(name, n, projection):
    entry = ENTRIES[name]
    states = enumerate_states(_copy_space(n), entry.layout)
    _assert_keys_match_oracle(entry.program, states, entry.layout, projection)


def test_holding_copy_check_builds_no_trace_set(monkeypatch):
    """Direct NI of a 12-byte memcpy_right under (shm, spec) compares keys
    of 8 192-trace sets: no set is walked, and one state's key has 40
    nodes."""
    entry = ENTRIES["memcpy_right"]
    space = _copy_space(12, dests=COPY_DESTS[:1], lengths=(12,))
    policy = Policy(public_regs=frozenset(reg_num(r) for r in ("a0", "a1", "a2")))
    run = simulate_committed(entry.program, space.base_state, entry.layout)
    dag = TraceDag()
    key = Projection(SHM, SPEC)(dag, run)
    assert len(dag.traces(key)) == 2 ** 13
    assert len(dag.nodes) <= 40

    def no_walk(self, node):
        raise AssertionError("a trace set was built")
    monkeypatch.setattr(TraceDag, "_walk", no_walk)
    verdict = check_direct_ni(entry.program, (SHM, SPEC), policy, space,
                              entry.layout)
    assert verdict.holds and verdict.pairs_checked == 1


def test_check_past_the_cap_raises_with_the_same_need():
    """16 copy iterations under spec have 17 decision points of two
    choices: 2^17 traces, past the cap, reported as the oracle reports."""
    entry = ENTRIES["memcpy_right"]
    space = _copy_space(16)
    run = simulate_committed(entry.program, space.base_state, entry.layout)
    oracle = _outcome(lambda: oracle_trace_set(run, SHM, SPEC))
    assert oracle == ("cap", 2 * ENUM_CAP)
    with pytest.raises(EnumerationCapExceeded) as exc:
        check_direct_ni(entry.program, (SHM, SPEC), Policy(), space,
                        entry.layout)
    assert exc.value.needed == 2 * ENUM_CAP


def test_union_along_a_prefix_longer_than_the_recursion_limit():
    """Two sets whose traces share thousands of leading events, as a long
    committed path of repeated loads can give: the union merges them
    without recursing per event."""
    dag = TraceDag()
    load = ("addr", 0x8000, "shared")
    rollback = ("rollback",)
    depth = 2 * sys.getrecursionlimit()
    a = dag.chain((load,) * depth + (rollback,), EMPTY_TRACE)
    b = dag.chain((load,) * (depth + 2), EMPTY_TRACE)
    union = dag.union(a, b)
    assert dag.traces(union) == {(load,) * depth + (rollback,),
                                 (load,) * (depth + 2)}
    assert dag.union(b, a) == union == dag.union(union, a)
