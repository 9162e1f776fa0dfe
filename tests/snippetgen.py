"""Random burst-region snippet generator for analyzer-vs-oracle testing.

Generated snippets are small straight-line-plus-forward-branch programs
wrapped in burst markers. Two deliberate restrictions keep the oracle
comparison meaningful:

  * branch operands come only from registers holding li'd constants, so
    every branch resolves the same way in every state of the space and
    trace-set differences cannot come from control flow alone;
  * every candidate is validated by running the committed path from every
    state in the space, rejecting any snippet that faults or loops.

Beside generate_batch, `random_flow_source` writes jalr-free programs
for the analyzer alone, with back edges, jumps and several regions, for
comparison with tests/analyzer_oracle.py; `generate_jalr_snippet` puts a
prefix that opens with a `jalr` in front of a `random_snippet_source`
body, for the same relative-NI comparison as the batch above.
"""

import random

from rmikit.asm import BURST_OFF, BURST_ON, parse_program, reg_num
from rmikit.contracts import FuelExhausted, simulate_committed
from rmikit.machine import ArchState, MachineError, MemoryLayout
from rmikit.ni import StateSpace, enumerate_states

LAYOUT = MemoryLayout()

CONST_REGS = ("t0", "t1")          # written once by li, then read-only
VAR_REGS = ("a0", "a1", "a2")      # varied by the state space
TEMP_REGS = ("t2", "t3", "a4")     # scratch destinations

SNIPPET_SPACE = StateSpace(
    base_state=ArchState(regs={reg_num("a0"): 0x1000,
                               reg_num("a1"): 0x1008,
                               reg_num("a2"): 0x8000}),
    varying_registers=((reg_num("a0"), (0x1000, 0x1008)),
                       (reg_num("a1"), (0x1010, 0x8000)),
                       (reg_num("a2"), (0x8000, 0x8008))),
    varying_cells=((0x1001, (0, 8)),))

MAX_INSTRUCTIONS = 12


def _body_instruction(rng):
    roll = rng.random()
    if roll < 0.35:
        dest = rng.choice(TEMP_REGS)
        base = rng.choice(VAR_REGS + ("t2",))
        return f"lbu {dest}, {rng.randrange(8)}({base})"
    if roll < 0.50:
        src = rng.choice(CONST_REGS + TEMP_REGS)
        base = rng.choice(VAR_REGS)
        return f"sb {src}, {rng.randrange(8)}({base})"
    if roll < 0.85:
        dest = rng.choice(TEMP_REGS)
        lhs = rng.choice(VAR_REGS + TEMP_REGS)
        rhs = rng.choice(CONST_REGS + TEMP_REGS)
        op = rng.choice(("add", "xor", "and"))
        return f"{op} {dest}, {lhs}, {rhs}"
    dest = rng.choice(TEMP_REGS)
    value = rng.choice((0, 1, 0x1000, 0x8000))
    return f"li {dest}, {value}"


def random_snippet_source(rng):
    """One candidate snippet; may fault when run, see generate_snippet."""
    lines = [f"li t0, {rng.choice((0, 1, 4))}",
             f"li t1, {rng.choice((0, 1, 4))}",
             "csrwi MSPEC, BURST_ON"]
    budget = MAX_INSTRUCTIONS - 4    # two li, two csrwi
    label_id = 0
    while budget > 0:
        if budget >= 2 and rng.random() < 0.3:
            skipped = rng.randint(1, min(2, budget - 1))
            op = rng.choice(("beq", "bne"))
            lines.append(f"{op} t0, t1, skip{label_id}")
            for _ in range(skipped):
                lines.append(_body_instruction(rng))
            lines.append(f"skip{label_id}:")
            label_id += 1
            budget -= 1 + skipped
        else:
            lines.append(_body_instruction(rng))
            budget -= 1
    lines.append("csrwi MSPEC, BURST_OFF")
    return "\n".join(lines) + "\n"


def committed_paths_ok(program, space=SNIPPET_SPACE, layout=LAYOUT):
    for state in enumerate_states(space, layout):
        try:
            simulate_committed(program, state, layout)
        except (MachineError, FuelExhausted):
            return False
    return True


def generate_snippet(rng, max_attempts=200):
    """A parsed program whose committed path is fault-free in every state
    of SNIPPET_SPACE."""
    for _ in range(max_attempts):
        program = parse_program(random_snippet_source(rng))
        if committed_paths_ok(program):
            return program
    raise RuntimeError("could not generate a valid snippet")


def generate_batch(seed, count):
    rng = random.Random(seed)
    return [generate_snippet(rng) for _ in range(count)]


FLOW_REGS = ("zero", "ra", "a0", "a1", "a2", "t0", "t1", "t2")


def _flow_instruction(rng, labels):
    def reg():
        return rng.choice(FLOW_REGS)
    roll = rng.random()
    if roll < 0.25:
        op = rng.choice(("beq", "bne", "blt", "bgeu"))
        rhs = "zero" if rng.random() < 0.3 else reg()
        return f"{op} {reg()}, {rhs}, L{rng.randrange(labels)}"
    if roll < 0.35:
        return f"jal {rng.choice(('zero', 'ra'))}, L{rng.randrange(labels)}"
    if roll < 0.55:
        return f"{rng.choice(('lbu', 'ld'))} {reg()}, {rng.randrange(8)}({reg()})"
    if roll < 0.65:
        return f"sb {reg()}, {rng.randrange(8)}({reg()})"
    if roll < 0.85:
        return rng.choice((f"add {reg()}, {reg()}, {reg()}",
                           f"xor {reg()}, {reg()}, {reg()}",
                           f"addi {reg()}, {reg()}, 1",
                           f"mv {reg()}, {reg()}"))
    return f"li {reg()}, {rng.choice((0, 1, 0x1000, 0x8000))}"


def random_flow_source(rng, max_instructions=14):
    """A jalr-free program for the analyzer alone (it may fault or loop
    when run): one or two burst regions, and branches and jumps to labels
    anywhere in the program, so back edges, a jal, a compare with x0, an
    edge into instruction 0 and a branch to the very next slot can occur."""
    labels = rng.randint(1, 3)
    items = [_flow_instruction(rng, labels)
             for _ in range(rng.randint(1, max_instructions))]
    for i in range(labels):
        items.insert(rng.randint(0, len(items)), f"L{i}:")
    regions = rng.randint(1, min(2, (len(items) + 1) // 2))
    cuts = sorted(rng.sample(range(len(items) + 1), 2 * regions))
    # insert from the last cut back, so the earlier cuts keep their index
    for i, cut in reversed(list(enumerate(cuts))):
        items.insert(cut, f"csrwi MSPEC, {BURST_OFF if i % 2 else BURST_ON}")
    return "\n".join(items) + "\n"


def _prefix(rng):
    """An overwrite of each varied register, in a random order: once all
    have run, no load of the region reads a varied value."""
    regs = list(VAR_REGS)
    rng.shuffle(regs)
    return [f"li {reg}, {rng.choice((0x1000, 0x1008, 0x8000))}" for reg in regs]


def generate_jalr_snippet(rng, max_attempts=200):
    """(program, space): a random_snippet_source body behind a prefix that
    opens with `jalr x0, 0(a3)`, where the space fixes a3 to an index past
    the jalr and up to the region's entry, so the jump may skip some of
    the prefix's overwrites of the varied registers. The committed path is
    fault-free in every state of the space, SNIPPET_SPACE plus that a3."""
    for _ in range(max_attempts):
        prefix = _prefix(rng)
        program = parse_program("\n".join(["jalr x0, 0(a3)"] + prefix) + "\n"
                                + random_snippet_source(rng))
        regs = dict(SNIPPET_SPACE.base_state.regs)
        regs[reg_num("a3")] = rng.randint(1, len(prefix) + 3)
        space = StateSpace(base_state=ArchState(regs=regs),
                           varying_registers=SNIPPET_SPACE.varying_registers,
                           varying_cells=SNIPPET_SPACE.varying_cells)
        if committed_paths_ok(program, space):
            return program, space
    raise RuntimeError("could not generate a valid snippet")


def generate_jalr_batch(seed, count):
    rng = random.Random(seed)
    return [generate_jalr_snippet(rng) for _ in range(count)]
