"""Brute-force non-interference oracles over small enumerable state spaces.

Three checks, all exhaustive over a finite state space:

    direct NI     equal public state implies equal contract traces
    relative NI   equal traces under contract A implies equal under B
    satisfaction  equal contract traces implies equal hardware traces

Each state is explored once (contracts.simulate_committed); both sides
of a check are projections of that one run. Trace sets are compared as
node ids of one contracts.TraceDag per check, and listed only for a
violation's witness detail. States are grouped by the left-hand-side key
(public projection, or the node of the A-trace set), so each state is
compared only with its group's first state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .contracts import (EMPTY_TRACE, TraceDag, enforce_enum_cap,
                        simulate_committed, trace_set_to_json)
from .machine import MASK64, PRIVATE, ArchState
from .modes import hw_projection


class InvalidSpace(ValueError):
    """A state space that cannot be enumerated: a required key is missing,
    a varying cell lies in no mapped range, or a value domain is empty."""


@dataclass(frozen=True)
class Policy:
    """What the attacker is assumed to already know.

    Shared memory and the pc are always public; everything not listed
    here is secret.
    """
    public_regs: frozenset = frozenset()
    public_private_cells: frozenset = frozenset()


@dataclass(frozen=True)
class StateSpace:
    """Finite instantiation of "for all initial states": a base state plus
    a value domain for each varying register and memory cell."""
    base_state: object
    varying_registers: tuple = ()   # ((reg number, (values...)), ...)
    varying_cells: tuple = ()       # ((address, (values...)), ...)

    def size(self):
        n = 1
        for _, domain in tuple(self.varying_registers) + tuple(self.varying_cells):
            n *= len(domain)
        return n


def enumerate_states(space, layout):
    """All states of the space, in a deterministic order. Each state is
    built in one constructor call and owns copies of the base dicts."""
    base = space.base_state
    regs = [(r, tuple(d)) for r, d in space.varying_registers]
    cells = []
    for addr, d in space.varying_cells:
        domain = layout.classify(addr)
        if domain is None:
            raise InvalidSpace(f"varying cell {addr:#x} is in no mapped range")
        cells.append((addr, domain == PRIVATE, tuple(d)))
    domains = [d for _, d in regs] + [d for _, _, d in cells]
    if not all(domains):
        raise InvalidSpace("a varying register or cell has an empty value domain")
    states = []
    for combo in itertools.product(*domains):
        state_regs = dict(base.regs)
        private, shared = dict(base.private_mem), dict(base.shared_mem)
        for (r, _), value in zip(regs, combo):
            if r != 0:
                state_regs[r] = value & MASK64
        for (addr, is_private, _), value in zip(cells, combo[len(regs):]):
            (private if is_private else shared)[addr] = value & 0xFF
        states.append(ArchState(base.pc, state_regs, private, shared))
    return states


def pi_key(state, policy):
    """Public projection of a state: equality of keys is pi-equivalence."""
    return (
        state.pc,
        tuple((r, state.reg(r)) for r in sorted(policy.public_regs)),
        tuple((a, state.private_mem.get(a, 0))
              for a in sorted(policy.public_private_cells)),
        tuple(sorted((a, b) for a, b in state.shared_mem.items() if b)),
    )


@dataclass
class NiVerdict:
    holds: bool
    witness: tuple | None = None     # (state, state') when violated
    witness_detail: dict = field(default_factory=dict)
    pairs_checked: int = 0

    def to_json(self):
        out = {"verdict": "holds" if self.holds else "violated",
               "pairs_checked": self.pairs_checked}
        if self.witness is not None:
            a, b = self.witness
            out["witness"] = {"state_a": a.to_json(), "state_b": b.to_json()}
            out.update(self.witness_detail)
        return out


def _states(space, layout):
    """The states of the space, refusing more than the enumeration cap."""
    enforce_enum_cap(space.size(), "states")
    return enumerate_states(space, layout)


def _component_resets(space, layout):
    """One state-transformer per varying component, restoring its base value."""
    base = space.base_state
    resets = []
    for r, _ in space.varying_registers:
        value = base.reg(r)
        resets.append(lambda s, r=r, v=value: s.with_regs({r: v}, pc=s.pc))
    for addr, _ in space.varying_cells:
        domain = layout.classify(addr)
        value = base.mem(domain).get(addr, 0) if domain else 0
        resets.append(lambda s, a=addr, d=domain, v=value:
                      s.with_store(d, a, v, 1, pc=s.pc))
    return resets


def _shrink(a, b, space, layout, observe):
    """Greedy witness minimization: reset varying components to their base
    values, one at a time in both states, while the violation persists.
    `a` and `b` are (state, value) pairs, and so is the result."""
    resets = _component_resets(space, layout)
    changed = True
    while changed:
        changed = False
        for reset in resets:
            na, nb = reset(a[0]), reset(b[0])
            if (na, nb) == (a[0], b[0]):
                continue
            (key_a, value_a), (key_b, value_b) = observe(na), observe(nb)
            if key_a == key_b and value_a != value_b:
                a, b = (na, value_a), (nb, value_b)
                changed = True
    return a, b


def _check_grouped(states, observe, space, layout, dag, detail_names):
    """Shared engine: `observe(state)` explores the state once and returns
    its (key, value); within each group of states with equal keys, all
    values must be equal; the first mismatching pair is the witness, and
    the trace sets of its two values, nodes of `dag`, are its detail under
    `detail_names`."""
    groups = {}
    pairs = 0
    for state in states:
        key, value = observe(state)
        if key not in groups:
            groups[key] = (state, value)
            continue
        pairs += 1
        if value != groups[key][1]:
            (a, value_a), (b, value_b) = _shrink(
                groups[key], (state, value), space, layout, observe)
            name_a, name_b = detail_names
            return NiVerdict(
                holds=False, witness=(a, b),
                witness_detail={name_a: trace_set_to_json(dag.traces(value_a)),
                                name_b: trace_set_to_json(dag.traces(value_b))},
                pairs_checked=pairs)
    return NiVerdict(holds=True, pairs_checked=pairs)


def check_direct_ni(program, contract, policy, space, layout):
    """Exhaustive direct non-interference for one (leak, exec) contract."""
    states = _states(space, layout)
    dag = TraceDag()

    def observe(state):
        run = simulate_committed(program, state, layout)
        return pi_key(state, policy), dag.trace_key(run, *contract)

    return _check_grouped(states, observe, space, layout, dag,
                          ("traces_a", "traces_b"))


def check_relative_ni(program, contract_a, contract_b, space, layout):
    """Equal trace sets under contract A must imply equal sets under B,
    over every pair of states in the space (no public/secret split)."""
    states = _states(space, layout)
    dag = TraceDag()

    def observe(state):
        run = simulate_committed(program, state, layout)
        return dag.trace_key(run, *contract_a), dag.trace_key(run, *contract_b)

    return _check_grouped(states, observe, space, layout, dag,
                          ("traces_b_a", "traces_b_b"))


def check_hw_satisfies_one(program, mode, contract, space, layout,
                           sta_report=None):
    """One program: equal contract traces must imply equal attacker
    observations under the hardware mode."""
    states = _states(space, layout)
    project = hw_projection(program, mode, sta_report)
    dag = TraceDag()

    def observe(state):
        run = simulate_committed(program, state, layout)
        return (dag.trace_key(run, *contract),
                EMPTY_TRACE if project is None else project(dag, run))

    return _check_grouped(states, observe, space, layout, dag,
                          ("hw_traces_a", "hw_traces_b"))


@dataclass
class SatisfactionVerdict:
    per_program: dict      # name -> NiVerdict
    holds: bool

    def to_json(self):
        return {"verdict": "holds" if self.holds else "violated",
                "programs": {name: v.to_json()
                             for name, v in sorted(self.per_program.items())}}


def check_hw_satisfies(mode, contract, entries):
    """Run the satisfaction check across a corpus of entries, each exposing
    name, program, space, layout, and (for the analyzer-gated mode) an
    sta_report attribute."""
    per_program = {}
    for entry in entries:
        report = getattr(entry, "sta_report", None)
        per_program[entry.name] = check_hw_satisfies_one(
            entry.program, mode, contract, entry.space, entry.layout,
            sta_report=report)
    return SatisfactionVerdict(
        per_program=per_program,
        holds=all(v.holds for v in per_program.values()))
