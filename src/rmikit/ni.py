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
states. An ArchState is built only for a committed run or a witness.

Consecutive checks share one exploration (`_Exploration`), in a slot
that holds the exploration of the most recent check, keyed on the
program (the same object), the layout, the component table and the
base state (by value). Every contract and mode is a projection
(contracts.Projection) of the same runs, so the checks of one space
share runs and DAG nodes, and a run's read set for a check counts only
the windows of that check's projections: verdicts, cube splits and
piece counts never depend on the checks before.

Every speculative trace is the committed run with wrong-path windows
spliced in (Guarnieri et al., S&P 2021), so states that agree on the
committed read set share the committed run and differ only in their
windows. A path record (`_Path`) keeps that run once, with what depends
on it alone. A state of a known path gets a run derived from the
record, whose windows start on the path's snapshots with the state's
values patched in and build no ArchState: `simulate_committed` runs
once per committed path, and a derived run costs its windows and their
splice. Trace sets are compared as node ids of the exploration's DAG,
and listed only for a violation's witness detail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter

from .asm import STORE_SIZES
from .contracts import (CONTRACT_VIEWS, CommittedRun, TraceDag,
                        committed_words, enforce_enum_cap, read_walk,
                        simulate_committed, trace_set_to_json,
                        wrong_path_events)
from .machine import MASK64, PRIVATE, SHARED, ArchState
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


class _Path:
    """One committed path of an exploration, and the kept runs that share
    it: every state that agrees with its first state on the `committed`
    read set runs its steps (contracts.read_walk).

    - `first` is the CommittedRun of the path's first state, `origin` (a
      tuple of domain indices); its `steps` are the path's, and its
      `resume` holds the path's snapshots, once per path.
    - `views` is None until the path has a second run, and then maps a
      projection to its view on the path, (leak kind, options), and its
      committed words once made: the runs of the path key their nodes
      by these views.
    - `free` maps each control position to the slots that the path
      neither read nor wrote up to and including that step, or is None
      until a second state on the path needs a window.
    - `escape` is modes.runtime_escape of the path, or False until needed.
    - `kept` lists the kept runs `(origin, run, cache)`, first run first:
      the state, its CommittedRun (the path's steps, its own windows, no
      final state, and no snapshots but the first run's), and a cache
      from view to its DAG node and the slots its windows read.

    The derivation is exact. A state that agrees with the first state on
    `committed` runs the same steps with the same effects: each step
    reads a slot of `committed`, a component no state varies, or what an
    earlier step wrote, equal in both. So after any step the two states
    differ only in the slots that the path has neither read nor written
    so far, and the state's snapshot at a control position is the path's
    with its own values in those slots. Its run (`derive`) shares the
    path's steps and runs only its windows, from those snapshots given
    as the path's and a patch (`start`)."""
    __slots__ = ("first", "origin", "committed", "views", "free", "escape",
                 "kept")

    def __init__(self, run, committed, origin):
        run.final_state = None
        self.first, self.origin, self.committed = run, origin, committed
        self.views, self.free, self.escape = None, None, False
        self.kept = [(origin, run, {})]

    def derive(self, origin):
        """The kept run of the state `origin`, which agrees with the first
        state on the committed read set: the path's steps and no window
        yet."""
        first = self.first
        kept = (origin, CommittedRun(first.program, first.layout, first.steps,
                                     None, None), {})
        self.kept.append(kept)
        if self.views is None:
            self.views = {}
        return kept

    def start(self, pos, origin, exploration):
        """Where the windows of `origin` after the control step `pos` start:
        the path's snapshot, and a register patch and store overlay with
        the state's values in the free slots that differ from the first
        state's (contracts.wrong_path_events)."""
        regs, overlay = {}, {}
        if origin is not self.origin:
            if self.free is None:
                self.free = exploration.unwritten(self)
            for slot in self.free[pos]:
                if origin[slot] != self.origin[slot]:
                    name, key, _, domain = exploration.table[slot]
                    if name == "regs":
                        regs[key] = domain[origin[slot]]
                    else:
                        overlay[PRIVATE if name == "private_mem" else SHARED,
                                key] = domain[origin[slot]]
        return self.first.resume[pos], regs, overlay


class _Exploration:
    """What the checks of one (program, space, layout) share: one TraceDag,
    the committed paths of its checks with their kept runs, and per check
    signature (the pair of key and value projections) the cube walk's
    memo.

    - `runs` indexes each path (`_Path`) as it is made, by the values of
      the slots it read: committed read set -> (its projection, {values
      on it: path}).
    - `memos` maps a signature to the memo from read set to (its
      projection, {values on it: (key, value, escape)}), and to how many
      runs of each path are entered in that memo.

    `simulate_committed` runs a state only when no path matches it, and a
    kept run keeps the raw steps of every window it ran, so a view under
    any leakage model derives its words without running a state again.

    It matches a check whose program is the same object and whose
    layout, component table and base state (pc, registers and both
    memories, copied here) are equal. It keeps the runs of the states
    its checks explored, so its memory is bounded by them and by its
    DAG, and the slot keeps one exploration."""
    __slots__ = ("program", "layout", "table", "base", "dag", "registers",
                 "cells", "reads", "runs", "memos")

    def __init__(self, program, layout, table, base):
        self.program, self.layout, self.table = program, layout, table
        self.base = (base.pc, dict(base.regs), dict(base.private_mem),
                     dict(base.shared_mem))
        self.dag = TraceDag()
        self.registers, self.cells = {}, {}
        for i, (name, key, _, _) in enumerate(table):
            (self.registers if name == "regs" else self.cells)[key] = i
        self.reads = read_walk(program, self.registers, self.cells)
        self.runs, self.memos = {}, {}

    def matches(self, program, layout, table, base):
        return (program is self.program and layout == self.layout
                and table == self.table
                and (base.pc, base.regs, base.private_mem,
                     base.shared_mem) == self.base)

    def unwritten(self, path):
        """Per control position of `path`, the slots outside its committed
        read set that no step up to and including it wrote: the `rd` of
        each step's instruction and the bytes of each store."""
        instructions, cells = self.program.instructions, self.cells
        free = set(range(len(self.table))).difference(path.committed)
        controls = path.first.resume
        unwritten = {}
        for pos, (index, effect, _) in enumerate(path.first.steps):
            if len(unwritten) == len(controls):
                break
            ins = instructions[index]
            free.discard(self.registers.get(ins.rd))
            event = effect.mem_event
            if event is not None and event.kind == "store":
                free.difference_update(
                    cells.get(x) for x in range(
                        event.address,
                        event.address + STORE_SIZES[ins.opcode]))
            if pos in controls:
                unwritten[pos] = tuple(sorted(free))
        return unwritten


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
    it matches; a kept run serves exactly the states its own fresh run
    would.

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
    memo, entered = exploration.memos.setdefault(projections, ({}, {}))
    burst = any(p is not None and p.burst_only for p in projections)
    warned = not burst

    def state(lo):
        return _state(base, table, [d[i] for d, i in zip(domains, lo)])

    def enter(path, kept, alone=False):
        """Derive the kept run's (key, value, escape) under this check's
        projections, running the windows of its views that it has not
        run, and enter it in the memo under its read set: its path's
        committed read set and the slots the windows of this check's
        views read; or, when `alone`, for its own state alone."""
        origin, run, cache = kept
        read = committed = path.committed
        nodes = []
        for projection in projections:
            if projection is None:
                nodes.append(None)
                continue
            views = path.views
            entry = None if views is None else views.get(projection)
            if entry is None:
                entry = [(projection.leak.kind,
                          projection.options(path.first)), None]
                if views is not None:
                    views[projection] = entry
            view = entry[0]
            derived = cache.get(view)
            if derived is None:
                options, windows, slots = view[1], run.windows, []
                for pos, choices in options:
                    if (pos, choices[1]) in windows:
                        continue    # a point runs all its windows at once
                    snapshot, regs, overlay = path.start(pos, origin,
                                                         exploration)
                    for target in choices[1:]:
                        windows[pos, target] = wrong_path_events(
                            program, snapshot, target, layout, regs, overlay)
                for pos, choices in reversed(options):
                    for target in choices[1:]:
                        slots += reads(windows[pos, target], target)
                if entry[1] is None:
                    entry[1] = committed_words(path.first.steps, *view)
                derived = cache[view] = (
                    dag.splice(run, view[0], options, entry[1]), tuple(slots))
            nodes.append(derived[0])
            read += derived[1]
        if alone:
            read_set = tuple(range(len(origin)))
        elif len(read) > len(committed):
            read_set = tuple(dict.fromkeys(read))
        else:
            read_set = committed
        if read_set not in memo:
            memo[read_set] = (_projection(read_set), {})
        at, results = memo[read_set]
        if burst and path.escape is False:
            path.escape = runtime_escape(path.first)
        result = results[at(origin)] = (*nodes, path.escape if burst else None)
        return result, read_set

    def explore(lo, hi=None):
        """The (key, value, escape) of the state `lo` and the read set its
        run shares. A miss finds the path that `lo` runs, enters those of
        its kept runs that are not yet entered, and when none of them
        serves `lo`, keeps a run of `lo` derived from the path; only a
        state that no path matches runs its committed path. The run of a
        box `(lo, hi)` of one state is entered for `lo` alone."""
        nonlocal warned
        for read_set, (at, results) in memo.items():
            found = results.get(at(lo))
            if found is not None:
                break
        else:
            found = None
            for at, paths in runs.values():
                path = paths.get(at(lo))
                if path is not None:
                    break
            else:
                path = None
            if path is None:
                run = simulate_committed(program, state(lo), layout)
                committed = tuple(dict.fromkeys(reads(run.steps)))
                if committed not in runs:
                    runs[committed] = (_projection(committed), {})
                at, paths = runs[committed]
                path = paths[at(lo)] = _Path(run, committed, lo)
                kept = path.kept[0]
            else:
                kept_runs = path.kept
                n = entered.get(path, 0)
                while found is None and n < len(kept_runs):
                    kept = kept_runs[n]
                    n += 1
                    result, read_set = enter(path, kept)
                    at = memo[read_set][0]
                    if at(lo) == at(kept[0]):
                        found = result
                entered[path] = n
                if found is None:
                    kept = path.derive(lo)
            if found is None:
                # every earlier run of the path is entered in this memo
                entered[path] = len(path.kept)
                # every slot of a box is at least one value wide
                found, read_set = enter(path, kept, hi is not None and (
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


def _view(contract):
    """The contracts.Projection of the contract (leak, exec)."""
    leak, exec_model = contract
    return CONTRACT_VIEWS[leak, exec_model]


def check_direct_ni(program, contract, policy, space, layout):
    """Exhaustive direct non-interference for one (leak, exec) contract."""
    return _check(program, space, layout, (None, _view(contract)),
                  ("traces_a", "traces_b"), policy)


def check_relative_ni(program, contract_a, contract_b, space, layout):
    """Equal trace sets under contract A must imply equal sets under B,
    over every pair of states in the space (no public/secret split)."""
    return _check(program, space, layout,
                  (_view(contract_a), _view(contract_b)),
                  ("traces_b_a", "traces_b_b"))


def check_hw_satisfies_one(program, mode, contract, space, layout,
                           sta_report=None):
    """One program: equal contract traces must imply equal attacker
    observations under the hardware mode. A run that escapes its burst
    regions under burst mode warns SelfContainmentViolation, once per
    check."""
    check_start(mode, space.base_state)
    return _check(program, space, layout, (
        _view(contract), hw_projection(program, mode, sta_report)),
        ("hw_traces_a", "hw_traces_b"))
