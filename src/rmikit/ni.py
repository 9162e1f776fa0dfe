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
(contracts.ReadWalk) has the same run, and so the same key and value.
The space is split DPLL-style (Davis, Logemann and Loveland, CACM 1962)
along the read sets of the runs, least state first, into such cubes, and
the groups, `pairs_checked` and the first mismatching pair follow from
the cubes, cut by the values of their unread public slots, exactly as
the walk of every state would find them. The work therefore grows with
the read classes and public patterns, not with the states: `ENUM_CAP`
bounds the pieces a check forms, and only `enumerate_states` lists
states. A fresh run starts from a core `(pc, regs, mems)` built from
the base state and the state's values (`_core`), and lists the slots
its committed steps read as it runs them; an ArchState is built only
for a witness.

A cube fixes only the read slots that are relevant to the check: those
whose values can reach an address, a branch operand or a jalr operand,
and under arch a loaded value (contracts.relevant_slots, a static
dependence slice of the program in the manner of Weiser, ICSE 1981,
used as the taint classes of Schwartz, Avgerinos and Brumley, S&P
2010). So a secret that a program only moves through memory and
registers splits nothing. This is sound: two states that agree on
every relevant slot run in lockstep on the same control flow. Their
addresses, faults, jalr targets, runtime burst escape and, under arch,
loaded values are equal, on the committed path and in every window, so
every projection gives both states the same node. The relevant slots
are computed once per exploration and leakage class and kept beside
each signature's memo; where every slot is relevant, read sets are
used as they are. Paths stay keyed by their full committed read
values, so a derived run is still exact.

Every run enters a check's memo one way: under its read set, the
relevant slots of its path's committed read set and of what the
windows of the check's projections read. A box's least state either
hits the memo, or finds or runs its path and enters the path's runs,
first run first, until one serves it, deriving a run of its own when
none does. A box of one state takes the same way; its read set splits
nothing.

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
windows. A path record (`_Path`) keeps that run once, with its runtime
burst escape and, per view (`_View`), what every run of the path
shares: the options (contracts.Projection.options, the one list of the
path's decision points), their ENUM_CAP product checked, the committed
words and the node after the last decision point. A check keeps the
relevant slots of each path's committed read set. A kept run of the
path is its state, its map of windows and its nodes: each window, the
(steps, read slots) record of contracts.wrong_path_events, runs once
from the path's snapshot, the core after its branch or jalr, with the
state's values patched in, listing the slots it reads as it runs; per
view, the options are walked last point first, and its windows are
spliced onto the view's parts and their slots extend the committed
prefix. A path keeps a snapshot only where a window can read it
(contracts.CommittedRun), and a state-free window is the decoded
program's, the same for every run. So `simulate_committed` runs once per
committed path, and neither a fresh nor a derived run builds an
ArchState. Trace sets are compared as node ids of the exploration's
DAG, and listed only for a violation's witness detail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter

from .asm import STORE_SIZES
from .contracts import (CONTRACT_VIEWS, ReadWalk, TraceDag, enforce_enum_cap,
                        relevant_slots, simulate_committed,
                        trace_set_to_json, wrong_path_events)
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
    a ("regs", register, base value, masked domain) row per varying
    register, then a (domain, address, base value, masked domain) row
    per varying cell."""
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
        table.append((kind, addr, base.mem(kind).get(addr, 0) & 0xFF,
                      tuple(v & 0xFF for v in domain)))
    if not all(domain for *_, domain in table):
        raise InvalidSpace("a varying register or cell has an empty value domain")
    if any(len(set(domain)) < len(domain) for *_, domain in table):
        raise InvalidSpace("a value domain lists one value twice, after masking "
                           "to 64 bits for a register or 8 for a cell")
    if len({row[:2] for row in table}) < len(table):
        raise InvalidSpace("a varying register or cell is listed twice")
    return table


def _core(base, table, values):
    """The core `(pc, regs, mems)` of the slot values `values`, as
    contracts.simulate_committed takes it: `base`'s, in dicts of its own,
    with each component of `table` set to its slot's value."""
    pc, regs, mems = base.core()
    for (name, key, _, _), value in zip(table, values):
        (regs if name == "regs" else mems[name])[key] = value
    return pc, regs, mems


def _state(base, table, values):
    """The ArchState of the slot values `values` (`_core`)."""
    pc, regs, mems = _core(base, table, values)
    return ArchState(pc, regs, mems[PRIVATE], mems[SHARED])


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
            if name == SHARED
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


class _View:
    """A path's record of one `view`, (leak kind, options), with the
    options as contracts.Projection.options lists them, made once: the
    view and its `parts` (contracts.TraceDag.parts, which checks the
    options' ENUM_CAP product)."""
    __slots__ = ("view", "parts")

    def __init__(self, view, parts):
        self.view, self.parts = view, parts


class _Path:
    """One committed path of an exploration, and the kept runs that share
    it: every state that agrees with its first state on the `committed`
    read set runs its steps (contracts.ReadWalk).

    - `first` is the CommittedRun of the path's first state, `origin` (a
      tuple of domain indices), with no final state: its `steps` are the
      path's, and its `resume` holds the path's snapshots, the core after
      each branch and jalr, once per path; the options of a view
      (contracts.Projection.options) are read off them.
    - `views` maps a projection, and the view it has on the path, (leak
      kind, options), to the path's record of that view (`_View`), made
      on first use and shared by the projections with an equal view:
      every run of the path keys its nodes by the view and builds them on
      the record's parts.
    - `free` maps each control position to the slots that the path
      neither read nor wrote up to and including that step, each with
      where its value goes in a patch (_Exploration.unwritten), or is
      None until a second state on the path needs a window.
    - `escape` is modes.runtime_escape of the path, or False until a
      burst check needs it.
    - `kept` lists the kept runs `(origin, windows, nodes)`, first run
      first: the state, its windows, `{(pos, target): (steps, read
      slots)}` (contracts.wrong_path_events), and a map from each view
      to its DAG node and the slots its windows read.

    The derivation is exact. A state that agrees with the first state on
    `committed` runs the same steps with the same effects: each step
    reads a slot of `committed`, a component no state varies, or what an
    earlier step wrote, equal in both. So after any step the two states
    differ only in the slots that the path has neither read nor written
    so far, and the state's snapshot at a control position is the path's
    with its own values in those slots. Its kept run (`derive`) runs
    only its windows, from those snapshots given as the path's and a
    patch (`start`), and its node under a view adds only those windows
    to the view's parts (`splice`), which walks the view's options last
    point first."""
    __slots__ = ("first", "origin", "committed", "views", "free", "escape",
                 "kept")

    def __init__(self, run, committed, origin):
        run.final = run.read = None
        self.first, self.origin, self.committed = run, origin, committed
        self.views, self.free, self.escape = {}, None, False
        self.kept = [(origin, {}, {})]

    def view(self, projection, dag):
        """The record of the view that `projection` has on the path, made
        in `dag` when no projection with an equal view has one yet."""
        view = (projection.leak.kind, projection.options(self.first))
        record = self.views.get(view)
        if record is None:
            record = self.views[view] = _View(
                view, dag.parts(self.first.steps, *view))
        self.views[projection] = record
        return record

    def splice(self, kept, record, exploration):
        """The kept run's node under the view of `record` and the slots its
        windows read, kept under the view. The view's options are walked
        last point first; each window runs once, and lists its slots as
        it runs; a point runs all its windows at once."""
        origin, windows, nodes = kept
        view = record.view
        slots = []
        for pos, choices in reversed(view[1]):
            targets = choices[1:]
            if (pos, targets[0]) not in windows:
                snapshot, regs, overlay = self.start(pos, origin, exploration)
                for target in targets:
                    windows[pos, target] = wrong_path_events(
                        exploration.program, snapshot, target,
                        exploration.layout, exploration.reads, regs, overlay)
            for target in targets:
                slots += windows[pos, target][1]
        derived = nodes[view] = (
            exploration.dag.splice(windows, *view, record.parts), tuple(slots))
        return derived

    def derive(self, origin):
        """The kept run of the state `origin`, which agrees with the first
        state on the committed read set: no window and no node yet."""
        kept = (origin, {}, {})
        self.kept.append(kept)
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
            first = self.origin
            for slot, register, key, domain in self.free[pos]:
                if origin[slot] != first[slot]:
                    (regs if register else overlay)[key] = domain[origin[slot]]
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
      projection, {values on it: (key, value, escape)}), to a map from
      each path to how many of its runs, counted in the path's order,
      are entered in that memo and the relevant slots of its committed
      read set, and to the slots relevant to its projections
      (`relevant`). A later check of another signature enters the runs
      that earlier checks kept before it derives a new one.
    - `relevant` maps True (arch) and False (every other leakage model:
      they share one slice) to the relevant slots
      (contracts.relevant_slots), made on first use, or None when every
      slot is relevant.

    `simulate_committed` runs a state only when no path matches it, and a
    kept run keeps every window it ran, so a view under any leakage model
    splices its windows without running a state again.

    It matches a check whose program is the same object and whose
    layout, component table and base state (pc, registers and both
    memories, copied here) are equal. It keeps the runs of the states
    its checks explored, so its memory is bounded by them and by its
    DAG, and the slot keeps one exploration."""
    __slots__ = ("program", "layout", "table", "base", "dag", "registers",
                 "cells", "reads", "relevant", "runs", "memos")

    def __init__(self, program, layout, table, base):
        self.program, self.layout, self.table = program, layout, table
        self.base = (base.pc, dict(base.regs), dict(base.private_mem),
                     dict(base.shared_mem))
        self.dag = TraceDag()
        self.registers, self.cells = {}, {}
        for i, (name, key, _, _) in enumerate(table):
            (self.registers if name == "regs" else self.cells)[key] = i
        self.reads = ReadWalk(program, self.registers, self.cells)
        self.relevant, self.runs, self.memos = {}, {}, {}

    def memo(self, projections):
        """The memo, entered paths and relevant slots of the signature
        `projections`; None for the slots when every slot is relevant."""
        found = self.memos.get(projections)
        if found is None:
            arch = any(p is not None and p.leak.kind == "arch"
                       for p in projections)
            if arch not in self.relevant:
                slots = relevant_slots(self.program, self.registers,
                                       self.cells, "arch" if arch else "shm")
                self.relevant[arch] = (slots if len(slots) < len(self.table)
                                       else None)
            found = self.memos[projections] = ({}, {}, self.relevant[arch])
        return found

    def matches(self, program, layout, table, base):
        return (program is self.program and layout == self.layout
                and table == self.table
                and (base.pc, base.regs, base.private_mem,
                     base.shared_mem) == self.base)

    def unwritten(self, path):
        """Per control position of `path`, the slots outside its committed
        read set that no step up to and including it wrote: the `rd` of
        each step's instruction and the bytes of each store. Each slot is
        given as (slot, whether it is a register, its register or its
        overlay key (domain, address), its domain of values)."""
        instructions, cells = self.program.instructions, self.cells
        rows = [(slot, name == "regs", key if name == "regs" else (name, key),
                 domain)
                for slot, (name, key, _, domain) in enumerate(self.table)]
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
                unwritten[pos] = tuple([rows[slot] for slot in sorted(free)])
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
      to its values; a read set holds only the slots relevant to the
      check. The rest of the box is pushed back, split DPLL-style: per
      read slot, the earlier read slots fixed and this one past the
      run's value.
    - A cube is cut into pieces by the values of its free public slots,
      so each piece lies in one group. A group keeps its least state and
      its least state with another value, its first violator. Once the
      next box lies past the least violator `t` of all groups, every
      state up to `t` is explored and `t` is the walk's first mismatch.

    Runs, nodes and memo entries come from the slot's exploration when
    it matches. Every run enters the memo the one way (`enter`), under
    the read set of its own committed path and windows, so a kept run
    serves exactly the states its own fresh run would. Under burst mode
    the first runtime escape met warns SelfContainmentViolation once,
    from the caller's frame, when the check returns.

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
    memo, entered, relevant = exploration.memo(projections)
    burst = any(p is not None and p.burst_only for p in projections)
    escape = None   # the first runtime escape met

    def core(lo):
        return _core(base, table, [d[i] for d, i in zip(domains, lo)])

    def enter(path, kept, prefix):
        """Derive the kept run's (key, value, escape) under this check's
        projections, running the windows of its views that it has not
        run, and enter it in the memo under its read set: `prefix`, the
        relevant slots of its path's committed read set, then those of
        what the windows of this check's views read. Returns the read
        set, its projection and the entry."""
        origin, _, cached = kept
        nodes, slots, last = [], [], None
        for projection in projections:
            if projection is None:
                nodes.append(None)
                continue
            record = path.views.get(projection) or path.view(projection, dag)
            if record is not last:  # two projections can share a view
                last = record
                derived = cached.get(record.view) or path.splice(
                    kept, record, exploration)
                slots += derived[1]
            nodes.append(derived[0])
        read_set = prefix
        for slot in slots:
            if slot not in read_set and (relevant is None or slot in relevant):
                read_set += (slot,)
        entry = memo.get(read_set)
        if entry is None:
            entry = memo[read_set] = (_projection(read_set), {})
        at, results = entry
        if burst and path.escape is False:
            path.escape = runtime_escape(path.first)
        result = results[at(origin)] = (*nodes, path.escape if burst else None)
        return read_set, at, result

    def explore(lo):
        """The (key, value, escape) of the state `lo` and the read set its
        run shares. A miss finds the path that `lo` runs, running `lo`
        when no path matches, and enters the path's runs that are not yet
        in the memo, first run first, until one serves `lo`; when none
        does, it keeps and enters a run of `lo` derived from the path."""
        nonlocal escape
        for read_set, (at, results) in memo.items():
            found = results.get(at(lo))
            if found is not None:
                break
        else:
            for at, paths in runs.values():
                path = paths.get(at(lo))
                if path is not None:
                    break
            else:
                run = simulate_committed(program, core(lo), layout, reads)
                committed = tuple(dict.fromkeys(run.read))
                if committed not in runs:
                    runs[committed] = (_projection(committed), {})
                at, paths = runs[committed]
                path = paths[at(lo)] = _Path(run, committed, lo)
            n, prefix = entered.get(path) or (0, path.committed)
            if n == 0 and relevant is not None:
                prefix = tuple([slot for slot in prefix if slot in relevant])
            while True:
                kept = path.kept[n] if n < len(path.kept) else path.derive(lo)
                n += 1
                read_set, at, found = enter(path, kept, prefix)
                # a run kept for `lo` itself serves it
                if kept[0] is lo or at(lo) == at(kept[0]):
                    break
            entered[path] = (n, prefix)
        if escape is None:
            escape = found[2]
        return found, read_set

    project = _projection(public)
    heap = [((0,) * len(domains), tuple([len(domain) for domain in domains]))]
    groups = {}     # (public projection, key) -> [first, value, violator, value]
    t = None        # the group of the least violator
    pieces = 0
    while heap and (t is None or heap[0][0] < t[2]):
        lo, hi = heappop(heap)
        (key, value, _), read_set = explore(lo)
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
        verdict = NiVerdict(holds=True, pairs_checked=space.size() - len(groups))
    else:
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
        verdict = NiVerdict(
            holds=False, witness=tuple(ArchState(pc, r, m[PRIVATE], m[SHARED])
                                       for pc, r, m in map(core, (a, b))),
            witness_detail={name_a: trace_set_to_json(dag.traces(value_a)),
                            name_b: trace_set_to_json(dag.traces(value_b))},
            # the states up to t, less the first state of each group below t
            pairs_checked=rank + 1 - sum(g[0] < violator
                                         for g in groups.values()))
    _slot[:] = (exploration,)
    if escape is not None:
        # check_hw_satisfies_one calls _check: warn at its caller
        warn_escape(escape, stacklevel=3)
    return verdict


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
