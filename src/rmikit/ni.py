"""Brute-force non-interference oracles over small enumerable state spaces.

Three checks, all exhaustive over a finite state space:

    direct NI     equal public state implies equal contract traces
    relative NI   equal traces under contract A implies equal under B
    satisfaction  equal contract traces implies equal hardware traces

A state of a space is the tuple of its varying components' values, one
slot per row of the space's component table (`_components`), and the
checks walk the product of the domains lazily, keying everything by
tuple. Both sides of a check are projections of one committed run
(contracts.simulate_committed), and one run serves every tuple that
agrees with an explored one on each slot the run may have read
(`_shared_runs`); an ArchState is built only for a run or a witness.
Trace sets are compared as node ids of one contracts.TraceDag per check,
and listed only for a violation's witness detail. States are grouped by
the left-hand-side key (public slots, or the node of the A-trace set),
so each state is compared only with its group's first state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .contracts import (EMPTY_TRACE, TraceDag, enforce_enum_cap, read_walk,
                        simulate_committed, trace_set_to_json)
from .machine import MASK64, PRIVATE, ArchState
from .modes import check_start, hw_projection


class InvalidSpace(ValueError):
    """A state space that cannot be enumerated: a required key is missing,
    x0 varies, a register or cell is listed twice, a varying cell lies in
    no mapped range, or a value domain is empty or lists one value twice
    (after masking to the component's width)."""


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


def _components(space, layout):
    """The space's component table, the one place a space is validated:
    an (ArchState field, register or address, base value, masked domain)
    row per varying register, then per varying cell."""
    base = space.base_state
    table = []
    for r, domain in space.varying_registers:
        if r == 0:
            raise InvalidSpace("x0 is hard-wired to 0 and cannot vary")
        table.append(("regs", r, base.reg(r) & MASK64,
                      tuple(v & MASK64 for v in domain)))
    for addr, domain in space.varying_cells:
        kind = layout.classify(addr)
        if kind is None:
            raise InvalidSpace(f"varying cell {addr:#x} is in no mapped range")
        name = "private_mem" if kind == PRIVATE else "shared_mem"
        table.append((name, addr, getattr(base, name).get(addr, 0) & 0xFF,
                      tuple(v & 0xFF for v in domain)))
    if not all(domain for *_, domain in table):
        raise InvalidSpace("a varying register or cell has an empty value domain")
    if any(len(set(domain)) < len(domain) for *_, domain in table):
        raise InvalidSpace("a value domain lists one value twice, after masking "
                           "to 64 bits for a register or 8 for a cell")
    if len({row[:2] for row in table}) < len(table):
        raise InvalidSpace("a varying register or cell is listed twice")
    return table


def _state(base, table, values):
    """The ArchState of the tuple `values`: `base`, owning copies of its
    dicts, with each component of `table` set to its slot's value."""
    fields = {"regs": dict(base.regs), "private_mem": dict(base.private_mem),
              "shared_mem": dict(base.shared_mem)}
    for (name, key, _, _), value in zip(table, values):
        fields[name][key] = value
    return ArchState(base.pc, **fields)


def enumerate_states(space, layout):
    """All states of the space, in a deterministic order: the product of
    the domains, the last component varying fastest."""
    table = _components(space, layout)
    return [_state(space.base_state, table, values)
            for values in itertools.product(*(domain for *_, domain in table))]


def _public(table, policy):
    """The public projection of a tuple under `policy`: its shared cells
    and the registers and private cells the policy lists. Every other
    component, and the pc, is the base state's in every state of a space,
    so equal projections are pi-equivalence."""
    slots = [i for i, (name, key, _, _) in enumerate(table)
             if name == "shared_mem"
             or key in (policy.public_regs if name == "regs"
                        else policy.public_private_cells)]
    return lambda values: tuple([values[i] for i in slots])


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


def _shrink(a, b, table, observe):
    """Greedy witness minimization: reset slots to their base values, one
    at a time in both tuples, while the violation persists. `a` and `b`
    are (tuple, value) pairs, and so is the result."""
    changed = True
    while changed:
        changed = False
        for i, (_, _, base_value, _) in enumerate(table):
            na, nb = (v[:i] + (base_value,) + v[i + 1:] for v in (a[0], b[0]))
            if (na, nb) == (a[0], b[0]):
                continue
            (key_a, value_a), (key_b, value_b) = observe(na), observe(nb)
            if key_a == key_b and value_a != value_b:
                a, b = (na, value_a), (nb, value_b)
                changed = True
    return a, b


def _shared_runs(program, base, table, layout, derive):
    """`derive(run)` of the committed run of each observed tuple, where one
    run serves every tuple that agrees on the slots it read.

    A deterministic run depends only on the components of the initial
    state it reads, and `contracts.read_walk` lists their slots once
    `derive` has forced the check's windows. Every state of a check is
    `base` with a tuple's values on the table's components, so two states
    cannot differ outside the varying components: a tuple that agrees
    with an explored one on every slot its run read has the same run and
    the same result. Only the result is kept: node ids of the check's
    TraceDag, never the run, whose snapshots hold components it did not
    read. The memo maps each distinct read set to a dict from the values
    on it to the result.

    The last tuple of a check's walk (the product of the domains, so each
    domain's last value) is never entered: no later tuple of the walk can
    probe it, and a shrink that would have hit it runs it again.
    """
    registers, cells = {}, {}
    for i, (name, key, _, _) in enumerate(table):
        (registers if name == "regs" else cells)[key] = i
    reads = read_walk(program, registers, cells)
    last = tuple(domain[-1] for *_, domain in table)
    memo = {}

    def observe(values):
        for read_set, results in memo.items():
            result = results.get(tuple([values[i] for i in read_set]))
            if result is not None:
                return result
        run = simulate_committed(program, _state(base, table, values), layout)
        result = derive(run)
        if values != last:
            read_set = reads(run)
            memo.setdefault(read_set, {})[
                tuple([values[i] for i in read_set])] = result
        return result

    return observe


def _check(program, space, layout, derive, detail_names, policy=None):
    """Shared engine: `derive(dag, run)` gives a committed run's (key,
    value) with trace sets as nodes of the check's `dag`, and a tuple's
    group key is its run's key plus, for direct NI, its public projection
    under `policy`. Within each group all values must be equal; the first
    mismatching pair, shrunk, is the witness, and the trace sets of its
    two values are its detail under `detail_names`."""
    enforce_enum_cap(space.size(), "states")
    table = _components(space, layout)
    public = (lambda values: ()) if policy is None else _public(table, policy)
    base, dag = space.base_state, TraceDag()
    run_result = _shared_runs(program, base, table, layout,
                              lambda run: derive(dag, run))

    def observe(values):
        key, value = run_result(values)
        return (public(values), key), value

    groups = {}
    pairs = 0
    for values in itertools.product(*(domain for *_, domain in table)):
        key, value = observe(values)
        if key not in groups:
            groups[key] = (values, value)
            continue
        pairs += 1
        if value != groups[key][1]:
            (a, value_a), (b, value_b) = _shrink(
                groups[key], (values, value), table, observe)
            name_a, name_b = detail_names
            return NiVerdict(
                holds=False, witness=(_state(base, table, a),
                                      _state(base, table, b)),
                witness_detail={name_a: trace_set_to_json(dag.traces(value_a)),
                                name_b: trace_set_to_json(dag.traces(value_b))},
                pairs_checked=pairs)
    return NiVerdict(holds=True, pairs_checked=pairs)


def check_direct_ni(program, contract, policy, space, layout):
    """Exhaustive direct non-interference for one (leak, exec) contract."""
    return _check(program, space, layout,
                  lambda dag, run: (None, dag.trace_key(run, *contract)),
                  ("traces_a", "traces_b"), policy)


def check_relative_ni(program, contract_a, contract_b, space, layout):
    """Equal trace sets under contract A must imply equal sets under B,
    over every pair of states in the space (no public/secret split)."""
    return _check(program, space, layout, lambda dag, run: (
        dag.trace_key(run, *contract_a), dag.trace_key(run, *contract_b)),
        ("traces_b_a", "traces_b_b"))


def check_hw_satisfies_one(program, mode, contract, space, layout,
                           sta_report=None):
    """One program: equal contract traces must imply equal attacker
    observations under the hardware mode."""
    check_start(mode, space.base_state)
    project = hw_projection(program, mode, sta_report)
    return _check(program, space, layout, lambda dag, run: (
        dag.trace_key(run, *contract),
        EMPTY_TRACE if project is None else project(dag, run)),
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
