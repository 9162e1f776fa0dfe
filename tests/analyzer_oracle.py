"""The burst-region analyzer that rmikit.analyzer's single predecessor
table and walk function replaced, kept as the reference oracle for it: a
predecessor table rebuilt per region, and a walk that threads its
accumulators through `_explore_transmitter`. Its reports are the new
analyzer's on every jalr-free program whose branch and jump targets lie
in the program (it treats `jalr` as falling through, and a target outside
the program raises KeyError).

Two soundness fixes were made here as in rmikit.analyzer, so that the two
still agree: `_backward_transfer` takes only a nonzero rs1 or rs2 as an
arithmetic source (x0 is never a leaked register), and after reporting
the leaks at instruction 0 the walk goes on through the edges into it (a
loop back to instruction 0 is unwound more than once).

The original module docstring follows.

Static analyzer gating burst regions.

For each burst region the analyzer checks that control flow cannot escape
the region, then runs a backward dependency pass from every potential
transmitter (load, store, branch) inside it. The pass walks predecessor
edges from the transmitter, first through the speculative window
(straight-line continuation past a taken branch or jump), then across
exactly one divergence edge into the architectural prefix, propagating
the set of registers whose initial values could reach the transmitter's
observable operands.

A program fails when a secret initial register can be leaked on a
speculative-only path, or conservatively whenever a leaked value depends
on another memory value.

The speculative walk spans at most `contracts.SPEC_DEPTH` window slots,
the window the contracts and hardware modes run, so a "pass" covers
every window the relative-NI oracle checks. One analysis pops at most
`NODE_CAP` worklist nodes and raises PathExplosion beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from rmikit.asm import BRANCHES, LOADS, STORES, reg_name
from rmikit.contracts import SPEC_DEPTH

# The most worklist nodes one analysis may pop before it gives up.
NODE_CAP = 10_000


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
    verdict: str                   # "pass" | "fail"
    violations: list
    leaked_initial_registers: set  # of (register, condition)
    explored_paths: int
    program: object

    def to_json(self):
        return {
            "verdict": self.verdict,
            "violations": [v.to_json() for v in self.violations],
            "leaked_initial_registers": sorted(
                [reg_name(r), cond] for r, cond in self.leaked_initial_registers),
            "explored_paths": self.explored_paths,
        }


def _transmitter_sources(ins):
    """Registers whose values become observable when `ins` transmits."""
    if ins.opcode in LOADS or ins.opcode in STORES:
        return frozenset({ins.rs1})       # the address base; stored data is not observable
    if ins.opcode in BRANCHES:
        return frozenset({ins.rs1, ins.rs2})
    return None


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
        elif ins.opcode in BRANCHES or ins.opcode == "jal":
            if not on < ins.target < off:
                violations.append(Violation(
                    "NotSelfContained", reason="target outside snippet",
                    transmitter=index))
    return violations


def _predecessor_edges(program, region):
    """Backward edges: arch_preds[i] lists indices whose architectural
    execution can be immediately followed by i (over the whole program, so
    the prefix walk can unwind past the region entry); divergences[i]
    lists in-region branch/jump indices whose straight-line fall-through
    continuation is i even though their architectural successor may be
    elsewhere."""
    on, off = region
    n = len(program)
    arch_preds = {i: [] for i in range(n + 1)}
    divergences = {i: [] for i in range(n + 1)}
    for k in range(n):
        ins = program.instructions[k]
        if ins.opcode in BRANCHES:
            arch_preds[k + 1].append(k)           # not-taken arm
            arch_preds[ins.target].append(k)      # taken arm
            if on < k < off:
                divergences[k + 1].append(k)      # speculated past a taken branch
        elif ins.opcode == "jal":
            arch_preds[ins.target].append(k)
            if on < k < off:
                divergences[k + 1].append(k)      # speculated past the jump
        else:
            arch_preds[k + 1].append(k)
    return arch_preds, divergences


def _backward_transfer(ins, leaked, speculative):
    """Propagate the leaked set backward across one instruction.

    Returns (new leaked set, memory_dependent flag, dead flag).
    """
    op = ins.opcode
    if op == "label":
        return leaked, False, False
    if op == "csrwi":
        # a speculative window can never cross the mode switch
        return leaked, False, speculative
    if op in LOADS:
        if ins.rd in leaked:
            return leaked, True, False
        if not speculative and ins.rs1 in leaked:
            # address already observable non-speculatively: declassified
            return leaked - {ins.rs1}, False, False
        return leaked, False, False
    if op in STORES:
        if not speculative and ins.rs1 in leaked:
            return leaked - {ins.rs1}, False, False
        return leaked, False, False
    if op in BRANCHES:
        return leaked, False, False   # no declassification through branches
    if op in ("jal", "jalr"):
        if ins.rd in leaked:          # link value is pc-derived, public
            return leaked - {ins.rd}, False, False
        return leaked, False, False
    # register-writing arithmetic reads exactly its rs1 and rs2, where set
    if ins.rd not in leaked:
        return leaked, False, False
    sources = {r for r in (ins.rs1, ins.rs2) if r}
    return (leaked - {ins.rd}) | sources, False, False


def _divergence_condition(program, branch_index):
    ins = program.instructions[branch_index]
    line = ins.source_line
    if ins.opcode == "jal":
        return f"jump at line {line} executed"
    cond = f"branch at line {line} taken"
    if ins.rs2 == 0:
        cond += f" ({reg_name(ins.rs1)} {_x0_reading(ins.opcode)} 0)"
    return cond


def _x0_reading(opcode):
    return {"beq": "==", "bne": "!=", "blt": "<", "bgeu": ">="}[opcode]


def analyze(program, policy, layout=None):
    """Analyze every burst region of `program` under `policy`.

    `layout` is unused by the register-level analysis and accepted for
    interface symmetry with the dynamic checkers.
    """
    violations = []
    leaked_initial = set()
    explored = 0

    for region in program.burst_regions:
        contained = check_self_contained(program, region)
        violations.extend(contained)
        on, off = region
        arch_preds, divergences = _predecessor_edges(program, region)

        for t_index in range(on + 1, off):
            sources = _transmitter_sources(program.instructions[t_index])
            if sources is None:
                continue
            explored = _explore_transmitter(
                program, policy, region, t_index, sources - {0},
                arch_preds, divergences, violations, leaked_initial, explored)

    verdict = "pass" if not violations else "fail"
    return AnalysisReport(verdict=verdict, violations=violations,
                          leaked_initial_registers=leaked_initial,
                          explored_paths=explored, program=program)


def _explore_transmitter(program, policy, region, t_index, sources,
                         arch_preds, divergences, violations, leaked_initial,
                         explored):
    """Backward walk from one transmitter; mutates the result accumulators."""
    mdl_reported = False
    leak_keys = set()

    # worklist entries: (position, leaked frozenset, window steps used,
    #                    divergence condition or None, path indices)
    # position means "the leaked set holds just before instruction
    # `position` executes"; steps counts speculative window slots used,
    # including the transmitter; condition None means still speculative.
    stack = [(t_index, frozenset(sources), 1, None, (t_index,))]
    seen = set()

    while stack:
        position, leaked, steps, condition, path = stack.pop()
        explored += 1
        if explored > NODE_CAP:
            raise PathExplosion(
                f"backward exploration exceeded {NODE_CAP} nodes")
        speculative = condition is None

        if not leaked:
            continue   # everything declassified or overwritten: no leak here

        key = (position, leaked, speculative, steps if speculative else 0)
        if key in seen:
            continue
        seen.add(key)

        if not speculative and position == 0:
            # architectural prefix unwound to the entry: what is still in
            # the leaked set is an initial-register leak on a speculative
            # path; the walk then goes on through the edges into 0
            for reg in sorted(leaked):
                if reg in policy.public_regs:
                    continue
                leaked_initial.add((reg, condition))
                if (reg, condition) not in leak_keys:
                    leak_keys.add((reg, condition))
                    violations.append(Violation(
                        "SecretLeak", register=reg, transmitter=t_index,
                        condition=condition, path=path))

        def expand(pred, new_condition, new_steps):
            nonlocal mdl_reported
            ins = program.instructions[pred]
            spec_edge = new_condition is None
            new_leaked, mdl, dead = _backward_transfer(ins, leaked, spec_edge)
            if mdl and not mdl_reported:
                violations.append(Violation(
                    "MemoryDependentLeak", transmitter=t_index,
                    condition=new_condition or "", path=(pred,) + path))
                mdl_reported = True
            if mdl or dead:
                return
            stack.append((pred, new_leaked, new_steps, new_condition,
                          (pred,) + path))

        if speculative:
            if steps < SPEC_DEPTH:
                for pred in arch_preds.get(position, ()):
                    expand(pred, None, steps + 1)
            # crossing the divergence is allowed even at the window limit:
            # the window counts instructions after the divergence target
            for branch in divergences.get(position, ()):
                cond = _divergence_condition(program, branch)
                expand(branch, cond, 0)
        else:
            for pred in arch_preds.get(position, ()):
                expand(pred, condition, 0)
    return explored


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
