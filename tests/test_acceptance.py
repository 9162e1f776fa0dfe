"""Top-level acceptance gate.

Each test is one release criterion and prints a single pass/fail line
(visible with pytest -s). The criteria exercise the library end to end:
analyzer verdicts on the copy-loop pair, the bounds-check-bypass gadget
against the NI oracles, hardware-mode satisfaction across the corpus,
the trace projection lattice, analyzer soundness against the oracle on
random snippets, the partitioned cache model, and CLI determinism.
"""

import itertools
import json
import random
import subprocess
import sys
import time
import warnings

from rmikit.analyzer import analyze
from rmikit.asm import reg_num
from rmikit.contracts import (ARCH, CT, MEM, SEQ, SHM, SPEC, STL,
                              contract_trace_set)
from rmikit.corpus import load_corpus, load_entry, load_reference_table
from rmikit.llc import (Geometry, OverlappingRanges, PartitionTable,
                        PartitionedCache)
from rmikit.modes import BURST, BURST_STA, SAFE
from rmikit.ni import (Policy, check_direct_ni, check_hw_satisfies_one,
                       check_relative_ni, enumerate_states)

from snippetgen import LAYOUT as GEN_LAYOUT
from snippetgen import SNIPPET_SPACE, generate_batch


def report(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def check_hw_satisfies(mode, contract, entries):
    """The satisfaction check on each corpus entry: {name: NiVerdict}."""
    return {entry.name: check_hw_satisfies_one(
        entry.program, mode, contract, entry.space, entry.layout,
        sta_report=entry.sta_report) for entry in entries}


def test_criterion_1_copy_loop_analyzer_verdicts():
    left = load_entry("memcpy_left")
    right = load_entry("memcpy_right")
    start = time.perf_counter()
    left_report = analyze(left.program, left.policy, left.layout)
    left_time = time.perf_counter() - start
    start = time.perf_counter()
    right_report = analyze(right.program, right.policy, right.layout)
    right_time = time.perf_counter() - start

    leaked = {reg for reg, _ in left_report.leaked_initial_registers}
    guard_line = left.program.instructions[2].source_line
    guard_cited = all(f"line {guard_line}" in condition
                      for _, condition in left_report.leaked_initial_registers)
    ok = (left_report.verdict == "fail"
          and {reg_num("a1"), reg_num("a2")} <= leaked
          and guard_cited
          and right_report.verdict == "pass"
          and left_time < 1.0 and right_time < 1.0)
    report(1, ok,
           f"copy-loop pair: left fails leaking src+len at the guard, "
           f"right passes ({left_time + right_time:.3f}s total)")


def test_criterion_2_read_gadget_direct_ni():
    entry = load_entry("spectre_v1")
    start = time.perf_counter()
    spec = check_direct_ni(entry.program, (SHM, SPEC), entry.policy,
                           entry.space, entry.layout)
    seq = check_direct_ni(entry.program, (SHM, SEQ), entry.policy,
                          entry.space, entry.layout)
    elapsed = time.perf_counter() - start

    witness_ok = False
    if not spec.holds:
        a, b = spec.witness
        private_diff = {addr for addr in set(a.private_mem) | set(b.private_mem)
                        if a.private_mem.get(addr, 0) != b.private_mem.get(addr, 0)}
        witness_ok = (a.regs == b.regs and a.shared_mem == b.shared_mem
                      and a.pc == b.pc and len(private_diff) == 1)
    ok = (not spec.holds) and witness_ok and seq.holds and elapsed < 60.0
    report(2, ok,
           f"read gadget: speculative NI violated by a one-secret-byte "
           f"witness, sequential NI holds ({elapsed:.3f}s)")


def test_criterion_3_safe_mode_satisfaction():
    entries = load_corpus()
    verdicts = check_hw_satisfies(SAFE, (SHM, SEQ), entries)
    holding = sum(v.holds for v in verdicts.values())
    report(3, holding == len(entries),
           f"safe mode satisfies the sequential shared-memory contract on "
           f"{holding}/{len(entries)} corpus entries")


def test_criterion_4_burst_mode_satisfaction():
    entries = load_corpus()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        burst = check_hw_satisfies(BURST, (SHM, STL), entries)
        gated = check_hw_satisfies(BURST_STA, (SHM, SEQ), entries)
    ok = (all(v.holds for v in burst.values())
          and all(v.holds for v in gated.values())
          and "memcpy_left" in gated and gated["memcpy_left"].holds)
    report(4, ok,
           "burst mode satisfies the straight-line contract and the "
           "analyzer-gated mode satisfies the sequential contract on all "
           "entries, including the rejected copy loop")


LEAK_CHAIN = (ARCH, CT, MEM, SHM)
EXEC_CHAIN = (SPEC, STL, SEQ)


def test_criterion_5_projection_lattice():
    rng = random.Random(5)
    pairs_per_entry = 1000
    counterexamples = 0
    total_pairs = 0
    for entry in load_corpus():
        states = enumerate_states(entry.space, entry.layout)
        cache = {}
        for index, state in enumerate(states):
            for leak, exec_model in itertools.product(LEAK_CHAIN, EXEC_CHAIN):
                cache[(index, leak, exec_model)] = contract_trace_set(
                    entry.program, state, entry.layout, leak, exec_model)
        for _ in range(pairs_per_entry):
            a = rng.randrange(len(states))
            b = rng.randrange(len(states))
            total_pairs += 1
            for exec_model in EXEC_CHAIN:
                for fine, coarse in zip(LEAK_CHAIN, LEAK_CHAIN[1:]):
                    if cache[(a, fine, exec_model)] == cache[(b, fine, exec_model)] \
                            and cache[(a, coarse, exec_model)] != cache[(b, coarse, exec_model)]:
                        counterexamples += 1
            for leak in LEAK_CHAIN:
                for fine, coarse in zip(EXEC_CHAIN, EXEC_CHAIN[1:]):
                    if cache[(a, leak, fine)] == cache[(b, leak, fine)] \
                            and cache[(a, leak, coarse)] != cache[(b, leak, coarse)]:
                        counterexamples += 1
    report(5, counterexamples == 0,
           f"projection implications (values>addresses>shared at fixed "
           f"execution; adversarial>straight-line>sequential at fixed "
           f"leakage) hold on {total_pairs} sampled pairs with "
           f"{counterexamples} counterexamples")


def test_criterion_6_analyzer_soundness_vs_oracle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases = [(f"random_{i:03d}", p, Policy(), SNIPPET_SPACE, GEN_LAYOUT)
                 for i, p in enumerate(generate_batch(20260823, 200))]
        cases += [(e.name, e.program, e.policy, e.space, e.layout)
                  for e in load_corpus()]
        unsound = []
        analyzer_fails = conservative = 0
        for name, program, policy, space, layout in cases:
            verdict = analyze(program, policy, layout).verdict
            oracle = check_relative_ni(program, (SHM, SEQ), (SHM, STL),
                                       space, layout)
            if verdict == "pass" and not oracle.holds:
                unsound.append(name)
            if verdict == "fail":
                analyzer_fails += 1
                if oracle.holds:
                    conservative += 1
    rate = conservative / analyzer_fails if analyzer_fails else 0.0
    report(6, not unsound,
           f"no analyzer pass contradicts the relative-NI oracle over "
           f"{len(cases)} snippets (conservative failures: "
           f"{conservative}/{analyzer_fails}, rate {rate:.0%})")


def test_criterion_7_partitioned_cache():
    geometry = Geometry()
    table = load_reference_table()
    cache = PartitionedCache(table)
    accepted = cache.table is table and geometry.total_sets == 1024

    overlap_rejected = False
    try:
        PartitionTable(entries={0: (0, 16), 1: (12, 8)}, geometry=geometry)
    except OverlappingRanges:
        overlap_rejected = True

    # fill one enclave region completely, then flush it
    region, (base, size) = 1, table.entries[1]
    for original in range(size * geometry.ways):
        cache.access((region << 25) | (original * geometry.line_bytes))
    filled = len(cache.lines_of_region(region))
    cost = cache.flush_region(region)
    flush_ok = (filled == size * geometry.ways
                and cost == size * geometry.ways
                and cache.lines_of_region(region) == [])

    # cross-region isolation: 10,000 accesses elsewhere evict nothing here
    rng = random.Random(7)
    victims = [(2 << 25) | (i * geometry.line_bytes) for i in range(32)]
    for victim in victims:
        cache.access(victim)
    for _ in range(10_000):
        other = rng.choice([r for r in table.entries if r != 2])
        cache.access((other << 25)
                     | (rng.randrange(4096) * geometry.line_bytes))
    isolation_ok = all(cache.access(victim) for victim in victims)

    ok = accepted and overlap_rejected and flush_ok and isolation_ok
    report(7, ok,
           f"reference layout accepted, overlap rejected, flush invalidated "
           f"{filled} lines in exactly {cost} zero-device accesses, and "
           f"10000 foreign accesses evicted no victim line")


def test_criterion_8_cli_determinism():
    runs = [subprocess.run(
        [sys.executable, "-m", "rmikit.cli", "corpus-verify", "--json"],
        capture_output=True, text=True, check=False) for _ in range(2)]
    identical = runs[0].stdout == runs[1].stdout
    ok = (all(r.returncode == 0 for r in runs) and identical
          and json.loads(runs[0].stdout)["ok"] is True)
    report(8, ok, "two consecutive corpus-verify --json runs are "
                  "byte-identical and report every verdict reproduced")
