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
states. An ArchState is built only for a run or a witness.

Consecutive checks share one exploration (`_Exploration`), in a slot
that holds the exploration of the most recent check. It is keyed on the
program (the same object), the layout, the component table and the base
state (pc, registers and both memories, equal by value), and holds one
contracts.TraceDag, the committed runs indexed by read class as they
are made, each with a cache from view (leak kind and options) to DAG
node, and per check signature the cube walk's memo. Every contract and
mode is a projection (contracts.Projection) of the same runs, derived in
one place for a fresh run and a kept one, so a direct (shm, spec) check
and a (shm, stl) check over one space share runs, and relative
(shm, seq) -> (shm, stl) and Burst mode share runs and (shm, stl) nodes.
A run's read set for a check counts only the windows of that check's
projections, so verdicts, cube splits and piece counts never depend on
the checks before. A kept run keeps the raw steps of its windows, so a
view under any leakage model runs no state twice in one exploration,
and drops its final state and each snapshot no view needs; the slot
keeps one exploration, so the memory of the checks is bounded by the
largest exploration of one (program, space, layout). Trace sets are
compared as node ids of the exploration's DAG, and listed only for a
violation's witness detail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter

from .contracts import (Projection, TraceDag, enforce_enum_cap, read_walk,
                        simulate_committed, trace_set_to_json)
from .machine import MASK64, PRIVATE, ArchState
from .modes import check_start, hw_projection, runtime_escape, warn_escape


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
    """The ArchState of the slot values `values`: `base`, owning copies of
    its dicts, with each component of `table` set to its slot's value."""
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


class _Exploration:
    """What the checks of one (program, space, layout) share: one TraceDag,
    the runs of its checks, and per check signature (the pair of key and
    value projections) the cube walk's memo.

    - `runs` indexes each run as it is made, by the values of the slots
      its committed path read: committed read set -> (its projection,
      {values on it: [kept run, ...]}). A kept run is the record
      (origin, run, committed read set, cache): the state it ran from,
      as a tuple of domain indices; its contracts.CommittedRun; and a
      cache from view (leak kind and options) to DAG node and from
      window (step, target) to the slots the window read. The runs of
      one list share their committed path, and its `steps` object, and
      differ only in their windows.
    - `memos` maps a signature to the memo from read set to (its
      projection, {values on it: (key, value, escape)}), and to how many
      runs of each list (by its id) are entered in that memo.

    A kept run keeps the raw steps of every window it ran, so a view
    under any leakage model derives its words without running the state
    again, and drops what no view reads: its final state, and the
    snapshot of a point whose windows have run (every view that has a
    point runs every window the point has: a branch has one wrong arm,
    and only spec takes a jalr, with all its targets).

    It matches a check whose program is the same object and whose
    layout, component table and base state (pc, registers and both
    memories, copied here) are equal. It keeps the runs of the states
    its checks explored, so its memory is bounded by them and by its
    DAG, and the slot keeps one exploration."""
    __slots__ = ("program", "layout", "table", "base", "dag", "reads", "runs",
                 "memos")

    def __init__(self, program, layout, table, base):
        self.program, self.layout, self.table = program, layout, table
        self.base = (base.pc, dict(base.regs), dict(base.private_mem),
                     dict(base.shared_mem))
        self.dag = TraceDag()
        registers, cells = {}, {}
        for i, (name, key, _, _) in enumerate(table):
            (registers if name == "regs" else cells)[key] = i
        self.reads = read_walk(program, registers, cells)
        self.runs, self.memos = {}, {}

    def matches(self, program, layout, table, base):
        return (program is self.program and layout == self.layout
                and table == self.table
                and (base.pc, base.regs, base.private_mem,
                     base.shared_mem) == self.base)


# The exploration of the most recent check. A check takes it out while it
# runs, so two threads never share one, and puts it back when it ends; a
# check that raises puts nothing back.
_slot = []


def _exploration(program, layout, table, base):
    """The slot's exploration if it matches the check, else a new one."""
    try:
        exploration = _slot.pop()
    except IndexError:
        exploration = None
    if exploration is None or not exploration.matches(program, layout, table,
                                                      base):
        exploration = _Exploration(program, layout, table, base)
    return exploration


def _check(program, space, layout, projections, detail_names, policy=None):
    """Shared engine: a state's (key, value) are the nodes of its committed
    run under `projections`, a pair of contracts.Projection (None for a
    constant), and its group key is its key plus, for direct NI, its
    public slots under `policy`. The verdict is that of the walk of every
    state in order which stops at the first state whose value differs
    from its group's first state's, with the pair, shrunk, as witness and
    the trace sets of its two values as detail under `detail_names`. It
    is decided by cubes, with states as tuples of domain indices:

    - A box `(lo, hi)` holds, per slot, the indices from lo to hi - 1,
      and `lo` is its least state. Boxes are popped in the order of
      their least states, so every state below the next box lies in an
      explored cube.
    - The run of a box's least state, or a kept run whose read set it
      agrees with, serves the cube of the box with the read slots fixed
      to its values. The rest of the box is pushed back, split
      DPLL-style: per read slot, the earlier read slots fixed and this
      one past the run's value. A box of one state is its own cube, and
      its run is entered for that state alone, with no read set.
    - A cube is cut into pieces by the values of its free public slots,
      so each piece lies in one group. A group keeps its least state and
      its least state with another value, its first violator. Once the
      next box lies past the least violator `t` of all groups, every
      state up to `t` is explored and `t` is the walk's first mismatch.

    Runs, nodes and memo entries come from the slot's exploration when
    it matches. A run's read set for a check counts its committed path
    and only the windows of this check's projections, so a kept run
    serves exactly the states its own fresh run would, and the boxes,
    pieces and outcome never depend on the checks before.

    A state whose run raises is the least state of the box popped once
    every smaller state is explored, so a check raises where the walk
    would. `ENUM_CAP` bounds the pieces a check forms.
    """
    table = _components(space, layout)
    exploration = _exploration(program, layout, table, space.base_state)
    domains = [row[3] for row in table]
    public = () if policy is None else _public(table, policy)
    base, dag, reads = space.base_state, exploration.dag, exploration.reads
    runs = exploration.runs
    # runs kept by the checks before may serve a state of this one; each
    # run of this check is entered in its memo as it is made
    reuse = bool(runs)
    memo, entered = exploration.memos.setdefault(projections, ({}, {}))
    burst = any(p is not None and p.burst_only for p in projections)
    warned = not burst

    def state(lo):
        return _state(base, table, [d[i] for d, i in zip(domains, lo)])

    def enter(kept, alone=False):
        """Derive the kept run's (key, value, escape) under this check's
        projections and enter it in the memo under its read set: its
        committed read set and the slots the windows of this check's
        views read; or, when `alone`, for its own state alone."""
        origin, run, committed, cache = kept
        read = committed
        nodes = []
        for projection in projections:
            if projection is None:
                nodes.append(None)
                continue
            view = (projection.leak.kind, projection.options(run))
            node = cache.get(view)
            if node is None:
                node = cache[view] = dag.splice(run, projection.leak, view[1])
            nodes.append(node)
            for pos, choices in reversed(view[1]):
                for target in choices[1:]:
                    slots = cache.get((pos, target))
                    if slots is None:
                        slots = cache[pos, target] = tuple(
                            reads(run.windows[pos, target], target))
                    read += slots
                run.resume[pos] = None
        if alone:
            read_set = tuple(range(len(origin)))
        elif len(read) > len(committed):
            read_set = tuple(dict.fromkeys(read))
        else:
            read_set = committed
        if read_set not in memo:
            memo[read_set] = (_projection(read_set), {})
        at, results = memo[read_set]
        result = results[at(origin)] = (
            *nodes, runtime_escape(run) if burst else None)
        return result, read_set

    def explore(lo, hi=None):
        """The (key, value, escape) of the state `lo` and the read set its
        run shares. A miss enters the kept runs that share the committed
        path of `lo` and are not yet entered, and runs `lo` when none of
        them serves it, keeping the run at once. The run of a box
        `(lo, hi)` of one state is entered for `lo` alone."""
        nonlocal warned
        for read_set, (at, results) in memo.items():
            found = results.get(at(lo))
            if found is not None:
                break
        else:
            found = kept_runs = None
            for at, lists in runs.values() if reuse else ():
                kept_runs = lists.get(at(lo))
                if kept_runs is not None:
                    break
            if kept_runs is not None:
                n = entered.get(id(kept_runs), 0)
                while found is None and n < len(kept_runs):
                    kept = kept_runs[n]
                    n += 1
                    result, read_set = enter(kept)
                    at = memo[read_set][0]
                    if at(lo) == at(kept[0]):
                        found = result
                entered[id(kept_runs)] = n
            if found is None:
                run = simulate_committed(program, state(lo), layout)
                committed = tuple(dict.fromkeys(reads(run.steps)))
                if committed not in runs:
                    runs[committed] = (_projection(committed), {})
                at, lists = runs[committed]
                kept_runs = lists.setdefault(at(lo), [])
                run.final_state = None
                if kept_runs:
                    run.steps = kept_runs[0][1].steps
                kept = (lo, run, committed, {})
                kept_runs.append(kept)
                # every earlier run of the list is entered in this memo
                entered[id(kept_runs)] = len(kept_runs)
                # every slot of a box is at least one value wide
                found, read_set = enter(kept, hi is not None and (
                    sum(hi) - sum(lo) == len(lo)))
        if not warned and found[2] is not None:
            warn_escape(found[2], stacklevel=4)
            warned = True
        return found, read_set

    project = _projection(public)
    heap = [((0,) * len(domains), tuple([len(domain) for domain in domains]))]
    groups = {}     # (public projection, key) -> [first, value, violator, value]
    t = None        # the group of the least violator
    pieces = 0
    while heap and (t is None or heap[0][0] < t[2]):
        lo, hi = heappop(heap)
        (key, value, _), read_set = explore(lo, hi)
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
        _slot[:] = (exploration,)
        return NiVerdict(holds=True, pairs_checked=space.size() - len(groups))
    violator = t[2]
    rank = 0
    for domain, i in zip(domains, violator):
        rank = rank * len(domain) + i
    resets = [domain.index(base_value) if base_value in domain else None
              for (_, _, base_value, domain) in table]

    def observe(lo):
        (key, value, _), _ = explore(lo)
        return (project(lo), key), value

    (a, value_a), (b, value_b) = _shrink(t[:2], t[2:], resets, observe)
    name_a, name_b = detail_names
    _slot[:] = (exploration,)
    return NiVerdict(
        holds=False, witness=(state(a), state(b)),
        witness_detail={name_a: trace_set_to_json(dag.traces(value_a)),
                        name_b: trace_set_to_json(dag.traces(value_b))},
        # the states up to t, less the first state of each group below t
        pairs_checked=rank + 1 - sum(g[0] < violator for g in groups.values()))


def check_direct_ni(program, contract, policy, space, layout):
    """Exhaustive direct non-interference for one (leak, exec) contract."""
    return _check(program, space, layout, (None, Projection(*contract)),
                  ("traces_a", "traces_b"), policy)


def check_relative_ni(program, contract_a, contract_b, space, layout):
    """Equal trace sets under contract A must imply equal sets under B,
    over every pair of states in the space (no public/secret split)."""
    return _check(program, space, layout,
                  (Projection(*contract_a), Projection(*contract_b)),
                  ("traces_b_a", "traces_b_b"))


def check_hw_satisfies_one(program, mode, contract, space, layout,
                           sta_report=None):
    """One program: equal contract traces must imply equal attacker
    observations under the hardware mode. A run that escapes its burst
    regions under burst mode warns SelfContainmentViolation, once per
    check."""
    check_start(mode, space.base_state)
    return _check(program, space, layout, (
        Projection(*contract), hw_projection(program, mode, sta_report)),
        ("hw_traces_a", "hw_traces_b"))
