"""Contract traces: one exploration of a (program, state), many projections.

A contract pairs a leakage model (which events an observer sees) with an
execution model (which speculative control flows exist): the leak x exec
lattice of Guarnieri et al., "Hardware-Software Contracts for Secure
Speculation" (IEEE S&P 2021). Traces are tuples of tagged event tuples:

    ("pc", index)              program-counter observation
    ("addr", address, domain)  memory-access address observation
    ("val", value)             loaded-value observation
    ("rollback",)              end of a mispredicted wrong-path window

Speculation never changes architectural results here, so every trace is
the committed trace with self-contained wrong-path windows spliced in
after mispredicted control transfers. `simulate_committed` explores a
(program, state) once: the committed steps with their burst flag, the
state after each control instruction, and each wrong-path window, run on
first use; `read_walk` lists, by their slots in a state's tuple of
varying values, which components of the initial state a run may have
read, so that one run can serve every state that agrees on them (ni.py),
and `relevant_slots` which of them can reach an observation under a
leakage model at all, by a static dependence slice of the program
(`asm.Program.observed_labels`), so that a run serves every state that
agrees on the relevant ones. Contracts and hardware modes (modes.py)
are projections of that run (`Projection`): a leakage model filters
events (ct, arch, mem, shm), and an execution model chooses decision
points (seq: none, stl: taken branches, spec: every branch arm and
jalr target). The Projection of each contract is made once
(`CONTRACT_VIEWS`); the two models are one-field named tuples, so a
projection hashes in C. The NI checks keep the runs, and a node per
projection, of one (program, space, layout) between checks: one slot
holds the exploration of the most recent check, keyed on the program
object, the layout, the space's component table and its base state, so
its memory is bounded by one exploration (ni.py). There the states that
agree on what a committed path read share one record of it, its steps
and its snapshots, and a state whose windows read other values gets a
CommittedRun derived from the record: the path's steps, no snapshots of
its own, and only its windows run, each once, listing the slots it reads
as it runs (`wrong_path_events` with a `ReadWalk`). A kept CommittedRun
keeps the raw steps of its windows, so a projection under another
leakage model never runs the state again.

A trace set is the finite language seg0 W0 seg1 W1 ... tail, where each
W is the set of choices at one decision point. `TraceDag.splice` builds
it right to left as a node of a hash-consed minimal acyclic DFA, never
listing the product of choices: two sets built in one table are equal
exactly when their node ids are, so checks compare ids. What the runs of
one committed path share under one view, its committed words and the
node of its tail, is made once (`TraceDag.parts`), so a run's splice
adds only its windows. The traces of a node are walked out only for
output (`contract_trace_set`, `contract_trace`, `modes.hw_trace_set` and
a violation's witness).

`simulate_committed` is the one loop that runs a program to its end,
which its pc reaches at `len(program)` (a state already there gives the
empty run). A path not at its end after FUEL steps raises
`FuelExhausted`; no result rests on a truncated run.

Constants, not parameters, bound every verdict: `FUEL` a committed path,
`SPEC_DEPTH` a wrong-path window (the analyzer's too), and `ENUM_CAP` the
product of a trace set's per-point choice counts, the pieces an NI check
forms (ni._check) and the states of a listed state space.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .asm import BRANCHES, LOAD_SIZES
from .machine import (CONTROL, OTHER, PRIVATE, SETS_BURST_OFF, SETS_BURST_ON,
                      SHARED, ArchState, InvalidPc, MachineError, decode)

# The most instructions a committed path may run.
FUEL = 10_000
# The most instructions a wrong-path window runs.
SPEC_DEPTH = 8
# The most combinations of window choices in a trace set, pieces an NI
# check forms, and states a listed state space holds.
ENUM_CAP = 1 << 16

# Writing the speculation CSR ends every wrong-path window.
_BARRIERS = (SETS_BURST_ON, SETS_BURST_OFF)

LEAK_KINDS = ("ct", "arch", "mem", "shm")
EXEC_KINDS = ("seq", "stl", "spec")


class ContractError(Exception):
    pass


class InconsistentChoice(ContractError):
    pass


class EnumerationCapExceeded(ContractError):
    def __init__(self, needed, unit):
        super().__init__(f"{needed} {unit} exceed the enumeration cap {ENUM_CAP}")
        self.needed = needed


def enforce_enum_cap(needed, unit):
    """Refuse to enumerate more than ENUM_CAP traces or states."""
    if needed > ENUM_CAP:
        raise EnumerationCapExceeded(needed, unit)


class FuelExhausted(ContractError):
    """The committed path did not halt within FUEL steps, so none of its
    traces is complete."""


class SelfContainmentViolation(UserWarning):
    """A burst-region execution escaped its static region at runtime."""


# The two halves of a contract are one-field named tuples, so that a
# Projection, and a check's pair of them, hashes in C.

class LeakageModel(namedtuple("LeakageModel", "kind")):
    __slots__ = ()

    def __new__(cls, kind):
        if kind not in LEAK_KINDS:
            raise ValueError(f"unknown leakage model {kind!r}")
        return super().__new__(cls, kind)


class ExecModel(namedtuple("ExecModel", "kind")):
    __slots__ = ()

    def __new__(cls, kind):
        if kind not in EXEC_KINDS:
            raise ValueError(f"unknown execution model {kind!r}")
        return super().__new__(cls, kind)


CT = LeakageModel("ct")
ARCH = LeakageModel("arch")
MEM = LeakageModel("mem")
SHM = LeakageModel("shm")

SEQ = ExecModel("seq")
STL = ExecModel("stl")
SPEC = ExecModel("spec")

CORRECT = "correct"
ROLLBACK = (("rollback",),)     # the event that closes every window


def mispredict(target):
    return ("mispredict", target)


def _events(steps, kind):
    """Events that (program index, effect, ...) steps contribute under the
    leakage model `kind`."""
    pcs = kind == "ct" or kind == "arch"
    every = kind != "shm"
    values = kind == "arch"
    events = []
    for step in steps:
        if pcs:
            events.append(("pc", step[0]))
        ev = step[1].mem_event
        if ev is not None:
            if every or ev.domain == SHARED:
                events.append(("addr", ev.address, ev.domain))
            if values and ev.kind == "load":
                events.append(("val", ev.value))
    return tuple(events)


def committed_words(steps, kind, options):
    """The events under `kind` of the steps up to each decision point of
    `options` (inclusive) and after the last: what `TraceDag.splice`
    chains around the windows."""
    words, start = [], 0
    for pos, _ in options:
        words.append(_events(steps[start:pos + 1], kind))
        start = pos + 1
    words.append(_events(steps[start:], kind))
    return words


class DecisionPoint(NamedTuple):
    step: int                  # position in the committed step sequence
    index: int                 # program index of the control instruction
    targets: tuple             # admissible mispredict targets
    burst_active: bool


class CommittedRun:
    """The exploration of one (program, state): its committed `steps`
    ((index, effect, burst flag) each), `resume`, from the position of
    each branch and jalr to the committed state after it, its
    `final_state`, and the raw steps of each wrong-path window, run on
    first use (`windows`).

    simulate_committed builds one by running the committed path. The NI
    checks (ni._Path) keep one per committed path with its snapshots,
    and drop its final state (None). For each other state that shares
    the path they build a run with the path's `steps`, no `resume` and
    no final state (None), and fill in `windows` themselves, each run
    from the path's snapshot with the state's own values in the slots
    the path has neither read nor written before it patched in."""
    __slots__ = ("program", "layout", "steps", "resume", "final_state",
                 "windows")

    def __init__(self, program, layout, steps, resume, final_state):
        self.program, self.layout = program, layout
        self.steps, self.resume, self.final_state = steps, resume, final_state
        self.windows = {}

    def decision_points(self, exec_model):
        """The decision points under `exec_model`, in execution order."""
        points = []
        for pos in self.resume:
            index, effect, burst_active = self.steps[pos]
            targets = _mispredict_targets(self.program, index,
                                          effect.next_pc, exec_model)
            if targets:
                points.append(DecisionPoint(pos, index, targets,
                                            burst_active))
        return points

    def window(self, step, target):
        """Raw steps of the wrong-path window at `target` after committed
        step `step`, run on first use."""
        key = (step, target)
        if key not in self.windows:
            self.windows[key] = wrong_path_events(
                self.program, self.resume[step], target, self.layout)
        return self.windows[key]


class Projection(NamedTuple):
    """One view of a committed run: a leakage model, and the decision
    points of an execution model whose windows are spliced in, with
    `burst_only` only those reached with the burst flag on (burst mode).
    A contract (leak, exec) is `Projection(leak, exec)`."""
    leak: LeakageModel
    exec_model: ExecModel
    burst_only: bool = False

    def options(self, run):
        """The run's options for `TraceDag.splice`: each selected decision
        point's step, paired with None and then its mispredict targets.
        Under seq no point has a target."""
        if self.exec_model.kind == "seq":
            return ()
        return tuple((p.step, (None,) + p.targets)
                     for p in run.decision_points(self.exec_model)
                     if p.burst_active or not self.burst_only)

    def __call__(self, dag, run):
        """The node of the run's traces under this view, in `dag`."""
        return dag.splice(run, self.leak.kind, self.options(run))


# The Projection of each contract, made once, so that the checkers key
# their memos by the same objects.
CONTRACT_VIEWS = {(leak, exec_model): Projection(leak, exec_model)
                  for leak in (CT, ARCH, MEM, SHM)
                  for exec_model in (SEQ, STL, SPEC)}


def read_walk(program, registers, cells):
    """The ReadWalk of `program` over `registers` ({register number:
    index}) and `cells` ({address: index})."""
    return ReadWalk(program, registers, cells)


class ReadWalk:
    """Lists the components of an initial state among its `registers` and
    `cells` that the steps of a run of a program may have read, as their
    indices in the order read, with repeats: called on the committed
    steps of a CommittedRun, or, with `target`, on the steps of one of
    its windows, run from `target`; `wrong_path_events` lists them for a
    window while it runs it.

    Listed are the rs1 and rs2 of every step (`sources`, by program
    index), every byte in the span of every load (`loads`: size by
    program index), and for a window, the rs1 and rs2 of the instruction
    at which it stopped short: it faulted, and its operands decided that
    the window ends there. A register counts even where an earlier step
    wrote it, so no write is tracked: a state that agrees with the run's
    initial state on every component listed for its committed steps and
    some of its windows, and on every component outside `registers` and
    `cells`, runs the same committed steps, and the same steps in each of
    those windows.
    """
    __slots__ = ("sources", "loads", "cells")

    def __init__(self, program, registers, cells):
        instructions = program.instructions
        self.sources = [tuple(registers[r] for r in (ins.rs1, ins.rs2)
                              if r in registers) for ins in instructions]
        self.loads = {i: LOAD_SIZES[ins.opcode]
                      for i, ins in enumerate(instructions)
                      if cells and ins.opcode in LOAD_SIZES}
        self.cells = cells

    def __call__(self, steps, target=None):
        sources, loads, cells = self.sources, self.loads, self.cells
        read = []
        for step in steps:
            index = step[0]
            read.extend(sources[index])
            if index in loads:
                address = step[1].mem_event.address
                for x in range(address, address + loads[index]):
                    if x in cells:
                        read.append(cells[x])
        if target is not None:
            stop = steps[-1][1].next_pc if steps else target
            if len(steps) < SPEC_DEPTH and 0 <= stop < len(sources):
                read.extend(sources[stop])
        return read


def relevant_slots(program, registers, cells, kind):
    """The components among `registers` and `cells` (as `read_walk` takes
    them) whose initial values can reach an observation of `program`
    under the leakage model `kind`, as a frozenset of their indices: a
    register whose label `program.observed_labels` holds, and every cell
    when it holds the label of memory.

    Two states that agree on these, and on every component outside
    `registers` and `cells`, run in lockstep: the same instructions, with
    the same addresses, faults and jalr targets, on the committed path
    and in every window, and under arch the same loaded values. So every
    projection under `kind` gives both the same trace set."""
    observed = program.observed_labels[kind == "arch"]
    slots = [i for reg, i in registers.items() if observed >> reg & 1]
    if observed & 1:
        slots += cells.values()
    return frozenset(slots)


def _mispredict_targets(program, index, actual, exec_model):
    ins = program.instructions[index]
    if exec_model.kind == "seq":
        return ()
    fall_through = index + 1
    if ins.opcode in BRANCHES:
        if exec_model.kind == "stl":
            # branches predicted not-taken: a wrong path exists only when
            # the branch is actually taken
            return (fall_through,) if actual != fall_through else ()
        wrong_arm = fall_through if actual != fall_through else ins.target
        return (wrong_arm,)
    if exec_model.kind != "spec":
        return ()
    if ins.opcode == "jalr":
        # target predicted from a poisoned BTB/RSB: any program index
        return tuple(t for t in range(len(program)) if t != actual)
    return ()  # jal: direct target, known at decode


def _snapshot(pc, regs, mems):
    """A frozen ArchState that owns copies of the core's dicts."""
    return ArchState(pc, dict(regs), dict(mems[PRIVATE]), dict(mems[SHARED]))


def simulate_committed(program, state0, layout):
    """Run the non-speculative path once, recording each step's effect and
    the dynamic burst-region flag, the state after each branch and jalr,
    and the final state. Raises FuelExhausted when the path does not halt
    within FUEL steps.

    The path runs on one mutable core, through the program's decoded step
    table (`machine.decode`, fetched once per run), and the kind of each
    instruction decides what a step records beyond its effect: states are
    snapshotted only where a wrong-path window can start (after a branch
    or a jalr: a jal has no wrong path), the final state takes the core's
    dicts, and a csrwi sets the burst flag of the steps after it.
    """
    end = len(program)
    pc = state0.pc
    if pc == end:
        return CommittedRun(program, layout, (), {}, state0)
    if not 0 <= pc < end:
        raise InvalidPc(pc)
    table, kinds = decode(program)
    steps = []
    resume = {}
    regs = dict(state0.regs)
    mems = {PRIVATE: dict(state0.private_mem), SHARED: dict(state0.shared_mem)}
    burst_active = False
    append = steps.append
    for _ in range(FUEL):
        effect = table[pc](layout, regs, mems)
        append((pc, effect, burst_active))
        kind = kinds[pc]
        pc = effect.next_pc
        if kind == CONTROL:
            resume[len(steps) - 1] = _snapshot(pc, regs, mems)
        elif kind != OTHER:
            burst_active = kind == SETS_BURST_ON
        if pc == end:
            break
    else:
        raise FuelExhausted(f"committed path runs past {FUEL} steps")
    return CommittedRun(program, layout, tuple(steps), resume,
                        ArchState(pc, regs, mems[PRIVATE], mems[SHARED]))


def wrong_path_events(program, resume_state, target, layout, regs=None,
                      overlay=None, walk=None):
    """Raw (index, effect) steps of one mispredicted control transfer.

    Executes up to SPEC_DEPTH instructions starting at `target` on a copy
    of the committed post-instruction registers. Loads read the committed
    memories through a store overlay, and stores go into the overlay, so
    they are forwarded to younger loads and never committed. Faults and
    out-of-range fetches squash silently. Writing the speculation CSR acts
    as a barrier in every execution model, so a window never crosses it.

    `regs` ({reg number: value}) and `overlay` ({(domain, address):
    byte}), left unmodified, patch the start (ni._Path.start). With a
    ReadWalk `walk`, the result is the pair of the steps and the slots
    that `walk(steps, target)` lists, collected as each step runs.
    """
    table, kinds = decode(program)
    end = len(table)
    steps = []
    append = steps.append
    overlay = dict(overlay) if overlay else {}
    regs = {**resume_state.regs, **regs} if regs else dict(resume_state.regs)
    mems = {PRIVATE: resume_state.private_mem, SHARED: resume_state.shared_mem}
    if walk is not None:
        read, sources, loads, cells = [], walk.sources, walk.loads, walk.cells
    # a step's next pc is at most `end`, so only the target is range-checked
    pc = target if 0 <= target < end else end
    for _ in range(SPEC_DEPTH):
        if pc == end or kinds[pc] in _BARRIERS:
            break
        try:
            effect = table[pc](layout, regs, mems, overlay)
        except MachineError:
            break
        append((pc, effect))
        if walk is not None:
            read.extend(sources[pc])
            if pc in loads:
                address = effect.mem_event.address
                for x in range(address, address + loads[pc]):
                    if x in cells:
                        read.append(cells[x])
        pc = effect.next_pc
    if walk is None:
        return tuple(steps)
    if len(steps) < SPEC_DEPTH and pc < end:
        read.extend(sources[pc])
    return tuple(steps), read


# The node of {()}, the set holding only the empty trace, in every TraceDag.
EMPTY_TRACE = 0


class TraceDag:
    """One table of hash-consed trace-set nodes: the minimal acyclic DFA of
    each trace set built in it.

    A node is (final, transitions): whether the empty trace is in its set,
    and its (event, child) pairs, sorted by event and at most one per
    event. No node has an empty set, so two nodes of one table have equal
    sets exactly when they are the same node (Revuz, "Minimisation of
    acyclic deterministic automata in linear time", TCS 1992), and a node
    id is a key for its trace set. A check builds every key in one table.
    """

    def __init__(self):
        self.nodes = [(True, ())]          # node id -> (final, transitions)
        self._ids = {(True, ()): EMPTY_TRACE}
        self._chains = {}                  # (word, successor) -> node
        self._unions = {}                  # (smaller, larger node) -> node

    def _node(self, final, transitions):
        key = (final, transitions)
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
        return node

    def chain(self, word, successor):
        """The node of `word` followed by each trace of `successor`."""
        if not word:
            return successor
        key = (word, successor)
        node = self._chains.get(key)
        if node is None:
            node = successor
            for event in reversed(word):
                node = self._node(False, ((event, node),))
            self._chains[key] = node
        return node

    def union(self, a, b):
        """The node of the union of two nodes' sets. Pairs of children on
        a shared event are merged first, from an explicit stack, because a
        shared prefix can be as long as a committed path."""
        if a == b:
            return a
        unions, nodes = self._unions, self.nodes
        top = (a, b) if a < b else (b, a)
        stack = [top]
        while stack:
            pair = stack[-1]
            if pair in unions:
                stack.pop()
                continue
            final_a, moves_a = nodes[pair[0]]
            final_b, moves_b = nodes[pair[1]]
            merged = dict(moves_a)
            pending = []
            for event, child in moves_b:
                other = merged.get(event)
                if other is None:
                    merged[event] = child
                elif other != child:
                    sub = (other, child) if other < child else (child, other)
                    if sub in unions:
                        merged[event] = unions[sub]
                    else:
                        pending.append(sub)
            if pending:
                stack += pending
                continue
            stack.pop()
            unions[pair] = self._node(final_a or final_b,
                                      tuple(sorted(merged.items())))
        return unions[top]

    def parts(self, steps, kind, options):
        """What every splice of a committed path under the leakage model
        `kind` and `options` shares: the path's committed words
        (`committed_words`) and the node of the last, the suffix after
        the last decision point. Refuses options whose product of choice
        counts exceeds ENUM_CAP, reporting the first partial product
        past it."""
        total = 1
        for _, choices in options:
            total *= len(choices)
            if total > ENUM_CAP:
                break
        enforce_enum_cap(total, "traces")
        words = committed_words(steps, kind, options)
        return words, self.chain(words[-1], EMPTY_TRACE)

    def splice(self, run, kind, options, parts=None):
        """The node of the traces of the CommittedRun `run` under the
        leakage model `kind` over every combination of choices.

        `options` pairs each decision point's committed step, in execution
        order, with its choices: None for a correct prediction, or a
        mispredict target whose window is spliced in after that step.
        `parts` are what every run of its committed path shares under this
        view (`parts`, made here when None), so a run adds only its
        windows. From the suffix node, right to left, each point's node is
        the union over its choices of the node after it (None) and of each
        window's events closed by the rollback followed by that node,
        folded as the transitions of one node, behind the committed word
        up to the point.
        """
        words, node = parts or self.parts(run.steps, kind, options)
        nodes, chain, union = self.nodes, self.chain, self.union
        for i in range(len(options) - 1, -1, -1):
            pos, choices = options[i]
            final, moves = False, {}
            for target in choices:
                if target is None:
                    final, pairs = nodes[node]
                else:
                    word = _events(run.window(pos, target), kind) + ROLLBACK
                    pairs = ((word[0], chain(word[1:], node)),)
                for event, child in pairs:
                    other = moves.get(event)
                    moves[event] = child if other is None else union(other,
                                                                      child)
            node = chain(words[i], self._node(final,
                                              tuple(sorted(moves.items()))))
        return node

    def traces(self, node):
        """The trace set of `node`, walked depth-first with one prefix
        stack. Only output needs it: checks compare nodes."""
        return frozenset(self._walk(node))

    def _walk(self, root):
        nodes, prefix = self.nodes, []
        stack = [(0, None, root)]          # (prefix length, event, node)
        while stack:
            depth, event, node = stack.pop()
            del prefix[depth:]
            if event is not None:
                prefix.append(event)
            final, moves = nodes[node]
            if final:
                yield tuple(prefix)
            depth = len(prefix)
            stack += [(depth, e, child) for e, child in moves]


def contract_trace(program, state0, layout, leak, exec_model, choice=()):
    """Trace for one concrete predictor choice.

    `choice` lists one decision per dynamic control-flow instruction with
    an admissible wrong path, in execution order: either "correct" or
    ("mispredict", target). Missing trailing entries default to correct.
    """
    run = simulate_committed(program, state0, layout)
    points = run.decision_points(exec_model)
    choice = tuple(choice)
    if len(choice) > len(points):
        raise InconsistentChoice(
            f"{len(choice)} decisions given but only {len(points)} "
            f"speculation points exist under {exec_model.kind}")
    options = []
    for point, decision in zip(points, choice):
        if decision == CORRECT:
            continue
        if not (isinstance(decision, tuple) and len(decision) == 2
                and decision[0] == "mispredict"):
            raise InconsistentChoice(f"bad decision {decision!r}")
        target = decision[1]
        if target not in point.targets:
            raise InconsistentChoice(
                f"target {target} not admissible at instruction {point.index} "
                f"under {exec_model.kind}")
        options.append((point.step, (target,)))
    dag = TraceDag()
    (trace,) = dag.traces(dag.splice(run, leak.kind, options))
    return trace


def contract_trace_set(program, state0, layout, leak, exec_model):
    """Set of traces over every admissible predictor choice."""
    run = simulate_committed(program, state0, layout)
    dag = TraceDag()
    return dag.traces(Projection(leak, exec_model)(dag, run))


def trace_to_json(trace):
    return [list(event) for event in trace]


def trace_set_to_json(traces):
    return sorted(trace_to_json(t) for t in traces)
