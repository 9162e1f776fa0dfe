"""Static analyzer gating burst regions.

For each burst region the analyzer checks that control flow cannot escape
the region, then runs a backward dependency pass from every potential
transmitter (load, store, branch) inside it. The pass walks predecessor
edges from the transmitter, first through the speculative window
(straight-line continuation past a taken branch or jump), then across
exactly one divergence edge into the architectural prefix, propagating
the set of registers whose initial values could reach the transmitter's
observable operands.

One predecessor table per program serves every region and every walk. A
`jalr` (and `ret`) may jump to any index, so it precedes every position;
a branch or jump target outside the program precedes nothing (inside a
region it is a NotSelfContained violation). Each region adds its own
divergence edges, one per branch or jump in it. The prefix is unwound to
instruction 0, the program's entry, so a verdict covers the runs that
start there; `modes` refuses burst_sta from any other start pc. Leaks are
reported on reaching instruction 0, and the walk goes on through the
edges into it, so a loop back to the entry is unwound like any other.

A program fails when a secret initial register can be leaked on a
speculative-only path, or conservatively whenever a leaked value depends
on another memory value. A report keeps only its violations: its verdict
and its leaked initial registers are derived from them.

The speculative walk spans at most `contracts.SPEC_DEPTH` window slots,
the window the contracts and hardware modes run, so a "pass" covers
every window the relative-NI oracle checks. One analysis pops at most
`NODE_CAP` worklist nodes and raises PathExplosion beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asm import BRANCHES, LOADS, STORES, reg_name
from .contracts import SPEC_DEPTH

# The most worklist nodes one analysis may pop before it gives up.
NODE_CAP = 10_000

# Instructions that transmit: a load or a store its address base (a store's
# data is not observable), a branch both operands.
_TRANSMITTERS = LOADS | STORES | BRANCHES
# Branches and jumps to a static target: in a region, each is a divergence.
_DIRECT = BRANCHES | {"jal"}
# How a taken branch that compares rs1 with x0 reads.
_X0_READING = {"beq": "==", "bne": "!=", "blt": "<", "bgeu": ">="}


class PathExplosion(Exception):
    """The backward walk popped more than NODE_CAP worklist nodes."""


@dataclass(frozen=True)
class Violation:
    kind: str                      # NotSelfContained | SecretLeak | MemoryDependentLeak
    reason: str = ""
    register: int | None = None
    transmitter: int | None = None  # program index of the leaking instruction
    condition: str = ""
    path: tuple = ()               # program indices, divergence first

    def to_json(self):
        out = {"kind": self.kind}
        if self.reason:
            out["reason"] = self.reason
        if self.register is not None:
            out["register"] = reg_name(self.register)
        if self.transmitter is not None:
            out["transmitter"] = self.transmitter
        if self.condition:
            out["condition"] = self.condition
        if self.path:
            out["path"] = list(self.path)
        return out


@dataclass
class AnalysisReport:
    violations: list
    explored_paths: int
    program: object

    @property
    def verdict(self):
        return "fail" if self.violations else "pass"

    @property
    def leaked_initial_registers(self):
        """(register, condition) of every SecretLeak violation."""
        return {(v.register, v.condition) for v in self.violations
                if v.kind == "SecretLeak"}

    def to_json(self):
        return {
            "verdict": self.verdict,
            "violations": [v.to_json() for v in self.violations],
            "leaked_initial_registers": sorted(
                [reg_name(r), cond] for r, cond in self.leaked_initial_registers),
            "explored_paths": self.explored_paths,
        }


def check_self_contained(program, region):
    """Violations that let control leave the region while burst mode is on."""
    if region not in program.burst_regions:
        return [Violation("NotSelfContained", reason="unmatched markers")]
    on, off = region
    violations = []
    for index in range(on + 1, off):
        ins = program.instructions[index]
        if ins.opcode == "jalr":
            violations.append(Violation(
                "NotSelfContained", reason="indirect branch", transmitter=index))
        elif ins.opcode in _DIRECT and not on < ins.target < off:
            violations.append(Violation(
                "NotSelfContained", reason="target outside snippet",
                transmitter=index))
    return violations


def _predecessors(program):
    """preds[i] lists, in program order, the indices whose architectural
    execution can be immediately followed by position i, for every i in
    0..len(program): the next index after a fall-through or a branch's
    not-taken arm, the target of a branch or jal, and every position
    after a jalr, which may jump to any index. A branch whose target is
    its next index is listed there twice, once per arm. A target outside
    the program precedes nothing."""
    preds = {i: [] for i in range(len(program) + 1)}
    for k, ins in enumerate(program.instructions):
        if ins.opcode == "jalr":
            for before in preds.values():
                before.append(k)
            continue
        if ins.opcode != "jal":
            preds[k + 1].append(k)
        if ins.target in preds:
            preds[ins.target].append(k)
    return preds


def _backward_transfer(ins, leaked, speculative):
    """Propagate the leaked set backward across one instruction.

    Returns (new leaked set, memory_dependent flag, dead flag).
    """
    op = ins.opcode
    if op == "csrwi":
        # a speculative window can never cross the mode switch
        return leaked, False, speculative
    if op in LOADS and ins.rd in leaked:
        return leaked, True, False
    if op in LOADS or op in STORES:
        if not speculative and ins.rs1 in leaked:
            # address already observable non-speculatively: declassified
            return leaked - {ins.rs1}, False, False
        return leaked, False, False
    # labels and branches write no register: no declassification there
    if ins.rd not in leaked:
        return leaked, False, False
    if op in ("jal", "jalr"):          # link value is pc-derived, public
        return leaked - {ins.rd}, False, False
    # register-writing arithmetic reads exactly its rs1 and rs2, where set;
    # x0 reads as 0 and carries nothing
    sources = {r for r in (ins.rs1, ins.rs2) if r}
    return (leaked - {ins.rd}) | sources, False, False


def _divergence_condition(program, branch_index):
    ins = program.instructions[branch_index]
    line = ins.source_line
    if ins.opcode == "jal":
        return f"jump at line {line} executed"
    cond = f"branch at line {line} taken"
    if ins.rs2 == 0:
        cond += f" ({reg_name(ins.rs1)} {_X0_READING[ins.opcode]} 0)"
    return cond


def analyze(program, policy, layout=None):
    """Analyze every burst region of `program` under `policy`.

    `layout` is unused by the register-level analysis and accepted for
    interface symmetry with the dynamic checkers.
    """
    preds = _predecessors(program)
    violations = []
    explored = 0
    for region in program.burst_regions:
        violations.extend(check_self_contained(program, region))
        on, off = region
        # position -> (branch or jump, condition) whose straight-line
        # fall-through is that position, though it may go elsewhere
        divergences = {k + 1: (k, _divergence_condition(program, k))
                       for k in range(on + 1, off)
                       if program.instructions[k].opcode in _DIRECT}
        for t_index in range(on + 1, off):
            if program.instructions[t_index].opcode not in _TRANSMITTERS:
                continue
            found, popped = _walk(program, policy.public_regs, preds,
                                  divergences, t_index, NODE_CAP - explored)
            violations.extend(found)
            explored += popped
    return AnalysisReport(violations=violations, explored_paths=explored,
                          program=program)


def _walk(program, public, preds, divergences, t_index, budget):
    """Backward walk from the transmitter at `t_index`: its violations,
    and the number of worklist nodes popped, at most `budget`.

    A node is (position, leaked, steps, condition, path): `leaked` holds
    just before instruction `position` executes; `steps` counts the
    speculative window slots used, the transmitter's included, and is 0
    once the walk has crossed a divergence, whose `condition` the node
    then carries; `path` lists the indices walked, divergence first.
    """
    instructions = program.instructions
    ins = instructions[t_index]
    sources = frozenset(
        {ins.rs1, ins.rs2} if ins.opcode in BRANCHES else {ins.rs1}) - {0}
    stack = [(t_index, sources, 1, None, (t_index,))]
    seen = set()
    violations = []
    leaks = set()                  # (register, condition) already reported
    memory_dependent = False       # reported once per transmitter
    popped = 0
    while stack:
        position, leaked, steps, condition, path = stack.pop()
        popped += 1
        if popped > budget:
            raise PathExplosion(
                f"backward exploration exceeded {NODE_CAP} nodes")
        if not leaked:
            continue   # everything declassified or overwritten: no leak here
        key = (position, leaked, steps)   # steps > 0 exactly when speculative
        if key in seen:
            continue
        seen.add(key)

        if not steps:
            if position == 0:
                # architectural prefix unwound to the entry: what is still in
                # the leaked set is an initial-register leak on a speculative
                # path; a loop back to instruction 0 goes on through preds[0]
                for reg in sorted(leaked - public):
                    if (reg, condition) not in leaks:
                        leaks.add((reg, condition))
                        violations.append(Violation(
                            "SecretLeak", register=reg, transmitter=t_index,
                            condition=condition, path=path))
            arms = [(pred, condition, 0) for pred in preds[position]]
        else:
            arms = ([(pred, None, steps + 1) for pred in preds[position]]
                    if steps < SPEC_DEPTH else [])
            # crossing the divergence is allowed even at the window limit:
            # the window counts instructions after the divergence target
            if position in divergences:
                arms.append((*divergences[position], 0))

        for pred, arm_condition, arm_steps in arms:
            new_leaked, mdl, dead = _backward_transfer(
                instructions[pred], leaked, arm_steps > 0)
            if mdl and not memory_dependent:
                memory_dependent = True
                violations.append(Violation(
                    "MemoryDependentLeak", transmitter=t_index,
                    condition=arm_condition or "", path=(pred,) + path))
            if not (mdl or dead):
                stack.append((pred, new_leaked, arm_steps, arm_condition,
                              (pred,) + path))
    return violations, popped


def explain(report):
    """Human-readable narrative of an analysis report."""
    lines = []
    if report.verdict == "pass":
        return "no violations\n"
    program = report.program
    for v in report.violations:
        if v.kind == "NotSelfContained":
            where = f" at instruction {v.transmitter}" if v.transmitter is not None else ""
            lines.append(f"region is not self-contained ({v.reason}){where}")
        elif v.kind == "MemoryDependentLeak":
            line = program.instructions[v.transmitter].source_line
            lines.append(
                f"value observable at line {line} depends on another memory "
                f"value; verification conservatively fails")
        else:
            line = program.instructions[v.transmitter].source_line
            lines.append(
                f"initial value of {reg_name(v.register)} can be leaked by "
                f"the instruction at line {line} when {v.condition}")
            if v.path:
                steps = ", ".join(
                    str(program.instructions[i].source_line) for i in v.path)
                lines.append(f"  speculative path through lines: {steps}")
    return "\n".join(lines) + "\n"
