"""Canonical snippet library with golden expected verdicts.

Each entry is an assembly file plus a JSON sidecar fixing the memory
layout, the secrecy policy, the enumerable state space, and the expected
outcome of every check that is meaningful for the snippet. The live
checkers must reproduce the expected verdicts on every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .analyzer import analyze
from .asm import AsmError, parse_program, reg_num
from .contracts import SEQ, SHM, SPEC, STL
from .machine import ArchState, MemoryLayout, json_int
from .modes import BURST, BURST_STA, MI6, SAFE
from .ni import (InvalidSpace, Policy, StateSpace, check_direct_ni,
                 check_hw_satisfies_one, check_relative_ni)

DATA_PACKAGE = "rmikit.corpus_data"

ENTRY_NAMES = (
    "memcpy_left",
    "memcpy_right",
    "jal_far_away",
    "spectre_v1",
    "straightline_arith",
    "shared_streaming",
    "tensor_double_deref",
)


class CorpusIntegrity(Exception):
    pass


@dataclass
class CorpusEntry:
    name: str
    source: str
    program: object
    layout: MemoryLayout
    policy: Policy
    space: StateSpace
    expected: dict
    notes: dict = field(default_factory=dict)
    _sta_report: object = None

    @property
    def sta_report(self):
        if self._sta_report is None:
            self._sta_report = analyze(self.program, self.policy, self.layout)
        return self._sta_report


def _read_data(filename):
    try:
        return (resources.files(DATA_PACKAGE) / filename).read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise CorpusIntegrity(f"missing corpus file {filename}: {exc}") from exc


def _parse_layout(data):
    def rng(pair):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"a range is a two-item list, got {pair!r}")
        return (int(pair[0], 0), int(pair[1], 0))
    return MemoryLayout(private_range=rng(data["private"]),
                        shared_range=rng(data["shared"]))


def _parse_policy(data):
    return Policy(
        public_regs=frozenset(reg_num(r) for r in data.get("public_regs", [])),
        public_private_cells=frozenset(
            int(a, 0) for a in data.get("public_private_cells", [])))


def _parse_space(data):
    if "base_state" not in data:
        raise InvalidSpace("state space lacks the required key 'base_state'")
    return StateSpace(
        base_state=ArchState.from_json(data["base_state"]),
        varying_registers=tuple(
            (reg_num(r), tuple(json_int(v) for v in values))
            for r, values in data.get("varying_registers", [])),
        varying_cells=tuple(
            (int(a, 0), tuple(json_int(v) for v in values))
            for a, values in data.get("varying_cells", [])))


def load_entry(name):
    sidecar = json.loads(_read_data(f"{name}.json"))
    source = _read_data(f"{name}.s")
    try:
        program = parse_program(source)
    except AsmError as exc:
        raise CorpusIntegrity(f"{name}.s does not parse: {exc}") from exc
    return CorpusEntry(
        name=name,
        source=source,
        program=program,
        layout=_parse_layout(sidecar["layout"]),
        policy=_parse_policy(sidecar["policy"]),
        space=_parse_space(sidecar["space"]),
        expected=sidecar["expected"],
        notes=sidecar.get("notes", {}))


def load_corpus():
    return [load_entry(name) for name in ENTRY_NAMES]


def load_reference_table():
    """The reference partition layout used by the cache checks."""
    from .llc import PartitionTable
    return PartitionTable.from_json(json.loads(_read_data("reference_layout.json")))


def _ni_word(verdict):
    return "holds" if verdict.holds else "violated"


def _run_sta(entry):
    return entry.sta_report.verdict


def _run_direct(contract):
    def run(entry):
        return _ni_word(check_direct_ni(
            entry.program, contract, entry.policy, entry.space, entry.layout))
    return run


def _run_relative(contract_a, contract_b):
    def run(entry):
        return _ni_word(check_relative_ni(
            entry.program, contract_a, contract_b, entry.space, entry.layout))
    return run


def _run_hw(mode, contract):
    def run(entry):
        return _ni_word(check_hw_satisfies_one(
            entry.program, mode, contract, entry.space, entry.layout,
            sta_report=entry.sta_report))
    return run


CHECKS = {
    "sta": _run_sta,
    "direct_ni_shm_spec": _run_direct((SHM, SPEC)),
    "direct_ni_shm_seq": _run_direct((SHM, SEQ)),
    "relative_ni_seq_stl": _run_relative((SHM, SEQ), (SHM, STL)),
    "hw_safe_satisfies": _run_hw(SAFE, (SHM, SEQ)),
    "hw_burst_satisfies": _run_hw(BURST, (SHM, STL)),
    "hw_burst_sta_satisfies": _run_hw(BURST_STA, (SHM, SEQ)),
    "hw_mi6_satisfies": _run_hw(MI6, (SHM, SEQ)),
}


def verify_entry(entry):
    """Re-run every expected check; returns {check: {expected, actual, ok}}."""
    results = {}
    for check, expected in sorted(entry.expected.items()):
        if check not in CHECKS:
            raise CorpusIntegrity(
                f"{entry.name}: unknown expected check {check!r}")
        actual = CHECKS[check](entry)
        results[check] = {"expected": expected, "actual": actual,
                          "ok": actual == expected}
    return results


def verify_corpus(entries=None):
    """Full pass/fail matrix over the corpus; ok iff every verdict matches."""
    entries = load_corpus() if entries is None else entries
    matrix = {entry.name: verify_entry(entry) for entry in entries}
    ok = all(cell["ok"] for row in matrix.values() for cell in row.values())
    return {"ok": ok, "entries": matrix}
