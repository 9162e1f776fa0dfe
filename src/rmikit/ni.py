"""Exact non-interference oracles over finite state spaces.

Three checks, each over every state of a finite state space:

    direct NI     equal public state implies equal contract traces
    relative NI   equal traces under contract A implies equal under B
    satisfaction  equal contract traces implies equal hardware traces

A state of a space is the tuple of its varying components' values, one
slot per row of the space's component table (`_components`). States are
grouped by the left-hand-side key (public slots, or the node of the
A-trace set), and a check is the walk of every state in order, the
product of the domains with the last slot varying fastest, that compares
each state with its group's first state and stops at the first mismatch.

`_check` decides that walk by cubes of read classes rather than state by
state, in the spirit of the input classes of Oleksenko et al., Revizor
(ASPLOS 2022). Both sides of a check are projections of one committed
run (contracts.simulate_committed), and a deterministic run depends only
on the components of its initial state that it reads: every state that
agrees with a run's state on each slot the run may have read
(contracts.read_walk) has the same run, and so the same key and value.
The space is split DPLL-style (Davis, Logemann and Loveland, CACM 1962)
along the read sets of the runs, least state first, into such cubes, and
the groups, `pairs_checked` and the first mismatching pair follow from
the cubes, cut by the values of their unread public slots, exactly as
the walk of every state would find them. The work therefore grows with
the read classes and public patterns, not with the states: `ENUM_CAP`
bounds the pieces a check forms, and only `enumerate_states` lists
states. An ArchState is built only for a run or a witness. Trace sets
are compared as node ids of one contracts.TraceDag per check, and listed
only for a violation's witness detail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import add, itemgetter

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
    the domains, the last component varying fastest. Listing more than
    ENUM_CAP states is refused."""
    enforce_enum_cap(space.size(), "states")
    table = _components(space, layout)
    return [_state(space.base_state, table, values)
            for values in itertools.product(*(domain for *_, domain in table))]


def _public(table, policy):
    """The public slots of a tuple under `policy`: its shared cells and
    the registers and private cells the policy lists. Every other
    component, and the pc, is the base state's in every state of a space,
    so equal projections on these slots are pi-equivalence."""
    return [i for i, (name, key, _, _) in enumerate(table)
            if name == "shared_mem"
            or key in (policy.public_regs if name == "regs"
                       else policy.public_private_cells)]


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


def _shrink(a, b, resets, observe):
    """Greedy witness minimization: reset slots to their base values, one
    at a time in both tuples, while the violation persists. `resets` is
    the domain index of each slot's base value, or None where the base
    value lies outside the slot's domain, so a witness never leaves the
    space. `a` and `b` are (index tuple, value) pairs, and so is the
    result."""
    changed = True
    while changed:
        changed = False
        for i, reset in enumerate(resets):
            if reset is None:
                continue
            na, nb = (v[:i] + (reset,) + v[i + 1:] for v in (a[0], b[0]))
            if (na, nb) == (a[0], b[0]):
                continue
            (key_a, value_a), (key_b, value_b) = observe(na), observe(nb)
            if key_a == key_b and value_a != value_b:
                a, b = (na, value_a), (nb, value_b)
                changed = True
    return a, b


def _projection(slots):
    """The function from a tuple to its values on `slots`."""
    return itemgetter(*slots) if slots else lambda values: ()


def _pieces(lo, hi, public):
    """The least state of each piece of the cube `(lo, hi)`: one per
    combination of the values of its free public slots."""
    firsts = [lo]
    for i in public:
        if hi[i] - lo[i] > 1:
            firsts = [first[:i] + (index,) + first[i + 1:]
                      for first in firsts for index in range(lo[i], hi[i])]
    return firsts


def _check(program, space, layout, derive, detail_names, policy=None):
    """Shared engine: `derive(dag, run)` gives a committed run's (key,
    value) with trace sets as nodes of the check's `dag`, and a state's
    group key is its run's key plus, for direct NI, its public slots
    under `policy`. The verdict is that of the walk of every state in
    order which stops at the first state whose value differs from its
    group's first state's, with the pair, shrunk, as witness and the
    trace sets of its two values as detail under `detail_names`. It is
    decided by cubes, with states as tuples of domain indices:

    - A box `(lo, hi)` holds, per slot, the indices from lo to hi - 1,
      and `lo` is its least state. Boxes are popped in the order of
      their least states, so every state below the next box lies in an
      explored cube.
    - The run of a box's least state, or a memoised run whose read set
      it agrees with, serves the cube of the box with the read slots
      fixed to its values. The rest of the box is pushed back, split
      DPLL-style: per read slot, the earlier read slots fixed and this
      one past the run's value. A box of one state is its own cube, and
      its run is memoised for that state alone, not walked for reads.
    - A cube is cut into pieces by the values of its free public slots,
      so each piece lies in one group. A group keeps its least state and
      its least state with another value, its first violator. Once the
      next box lies past the least violator `t` of all groups, every
      state up to `t` is explored and `t` is the walk's first mismatch.

    A state whose run raises is the least state of the box popped once
    every smaller state is explored, so a check raises where the walk
    would. `ENUM_CAP` bounds the pieces a check forms.
    """
    table = _components(space, layout)
    domains = [domain for *_, domain in table]
    public = () if policy is None else _public(table, policy)
    base, dag = space.base_state, TraceDag()
    registers, cells = {}, {}
    for i, (name, key, _, _) in enumerate(table):
        (registers if name == "regs" else cells)[key] = i
    reads = read_walk(program, registers, cells)
    every_slot = tuple(range(len(table)))
    ones = (1,) * len(table)
    memo = {}       # read set -> (its projection, {projection: (key, value)})

    def state(lo):
        return _state(base, table, tuple([d[i] for d, i in zip(domains, lo)]))

    def explore(lo, hi=None):
        """The (key, value) of the state `lo` and the read set its run
        shares. The run of a box `(lo, hi)` of one state is memoised for
        `lo` alone, not walked."""
        for read_set, (project, results) in memo.items():
            result = results.get(project(lo))
            if result is not None:
                return result, read_set
        run = simulate_committed(program, state(lo), layout)
        result = derive(dag, run)
        read_set = (every_slot if hi == tuple(map(add, lo, ones))
                    else reads(run))
        if read_set not in memo:
            memo[read_set] = (_projection(read_set), {})
        project, results = memo[read_set]
        results[project(lo)] = result
        return result, read_set

    project = _projection(public)
    heap = [((0,) * len(domains), tuple([len(domain) for domain in domains]))]
    groups = {}     # (public projection, key) -> [first, value, violator, value]
    t = None        # the group of the least violator
    pieces = 0
    while heap and (t is None or heap[0][0] < t[2]):
        lo, hi = heappop(heap)
        (key, value), read_set = explore(lo, hi)
        hi = list(hi)
        for r in read_set:
            if lo[r] + 1 < hi[r]:
                heappush(heap, (lo[:r] + (lo[r] + 1,) + lo[r + 1:], tuple(hi)))
                hi[r] = lo[r] + 1
        n = 1
        for i in public:
            n *= hi[i] - lo[i]
        pieces += n
        enforce_enum_cap(pieces, "cubes")
        for first in _pieces(lo, hi, public) if n > 1 else (lo,):
            group_key = (project(first), key)
            group = groups.get(group_key)
            if group is None:
                groups[group_key] = [first, value, None, None]
                continue
            if first < group[0]:
                if value != group[1]:
                    group[2:] = group[:2]
                group[:2] = first, value
            elif value != group[1] and (group[2] is None or first < group[2]):
                group[2:] = first, value
            if group[2] is not None and (t is None or group[2] < t[2]):
                t = group
    if t is None:
        return NiVerdict(holds=True, pairs_checked=space.size() - len(groups))
    violator = t[2]
    rank = 0
    for domain, i in zip(domains, violator):
        rank = rank * len(domain) + i
    resets = [domain.index(base_value) if base_value in domain else None
              for (_, _, base_value, domain) in table]

    def observe(lo):
        (key, value), _ = explore(lo)
        return (project(lo), key), value

    (a, value_a), (b, value_b) = _shrink(t[:2], t[2:], resets, observe)
    name_a, name_b = detail_names
    return NiVerdict(
        holds=False, witness=(state(a), state(b)),
        witness_detail={name_a: trace_set_to_json(dag.traces(value_a)),
                        name_b: trace_set_to_json(dag.traces(value_b))},
        # the states up to t, less the first state of each group below t
        pairs_checked=rank + 1 - sum(g[0] < violator for g in groups.values()))


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
