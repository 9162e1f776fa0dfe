"""Seeded inputs for every workload.

Pure Python: this module imports nothing from rmikit, so an edit to the
package or to its tests cannot change what the benchmark feeds it. Every
input is plain data (source text, integers, tuples); `workloads.load`
turns it into rmikit objects, and only that step counts as set-up.

Seeds change values, never the amount of work: every workload has the
same programs, trip counts, state counts and stream lengths whatever the
seed, so two seeds are two draws of one workload.
"""

import random

WORKLOADS = ("corpus_sweep", "copy_ladder", "state_ladder", "llc_churn")

MASK64 = (1 << 64) - 1
PRIVATE_RANGE = (0x1000, 0x2000)
SHARED_RANGE = (0x8000, 0x9000)


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------- sweep
#
# The snippet rules follow the criterion-6 generator of the test suite:
# straight-line code plus forward branches inside burst markers, branch
# operands only from li'd constants, every candidate kept only when its
# committed path is fault-free from every state of the space. Validation
# runs on the small interpreter below, not on rmikit.

SWEEP_SNIPPETS = {"full": 200, "quick": 10}
SNIPPET_MAX_INSTRUCTIONS = 12
CONST_REGS = ("t0", "t1")
VAR_REGS = ("a0", "a1", "a2")
TEMP_REGS = ("t2", "t3", "a4")

# 16 states: three varying registers and one private cell, two values each
SWEEP_SPACE = {
    "base_regs": {"a0": 0x1000, "a1": 0x1008, "a2": 0x8000},
    "base_private": {},
    "varying_registers": (("a0", (0x1000, 0x1008)),
                          ("a1", (0x1010, 0x8000)),
                          ("a2", (0x8000, 0x8008))),
    "varying_cells": ((0x1001, (0, 8)),),
}


def _body_instruction(rng):
    roll = rng.random()
    if roll < 0.35:
        return ("lbu", rng.choice(TEMP_REGS), rng.randrange(8),
                rng.choice(VAR_REGS + ("t2",)))
    if roll < 0.50:
        return ("sb", rng.choice(CONST_REGS + TEMP_REGS), rng.randrange(8),
                rng.choice(VAR_REGS))
    if roll < 0.85:
        return (rng.choice(("add", "xor", "and")), rng.choice(TEMP_REGS),
                rng.choice(VAR_REGS + TEMP_REGS),
                rng.choice(CONST_REGS + TEMP_REGS))
    return ("li", rng.choice(TEMP_REGS), rng.choice((0, 1, 0x1000, 0x8000)))


def _candidate(rng):
    code = [("li", "t0", rng.choice((0, 1, 4))),
            ("li", "t1", rng.choice((0, 1, 4))),
            ("csrwi", "BURST_ON")]
    budget = SNIPPET_MAX_INSTRUCTIONS - 4
    label_id = 0
    while budget > 0:
        if budget >= 2 and rng.random() < 0.3:
            skipped = rng.randint(1, min(2, budget - 1))
            label = f"skip{label_id}"
            code.append((rng.choice(("beq", "bne")), "t0", "t1", label))
            code.extend(_body_instruction(rng) for _ in range(skipped))
            code.append(("label", label))
            label_id += 1
            budget -= 1 + skipped
        else:
            code.append(_body_instruction(rng))
            budget -= 1
    code.append(("csrwi", "BURST_OFF"))
    return code


def format_snippet(code):
    lines = []
    for ins in code:
        op = ins[0]
        if op == "label":
            lines.append(f"{ins[1]}:")
        elif op == "csrwi":
            lines.append(f"csrwi MSPEC, {ins[1]}")
        elif op in ("lbu", "sb"):
            lines.append(f"{op} {ins[1]}, {ins[2]}({ins[3]})")
        elif op == "li":
            lines.append(f"li {ins[1]}, {ins[2]}")
        else:
            lines.append(f"{op} {ins[1]}, {ins[2]}, {ins[3]}")
    return "\n".join(lines) + "\n"


def _mapped(address):
    return (PRIVATE_RANGE[0] <= address < PRIVATE_RANGE[1]
            or SHARED_RANGE[0] <= address < SHARED_RANGE[1])


def _runs_clean(code, regs, mem):
    """Committed run of a generated snippet; False on an unmapped access.
    Branches only jump forward, so every run ends."""
    regs, mem = dict(regs), dict(mem)
    labels = {ins[1]: i for i, ins in enumerate(code) if ins[0] == "label"}
    pc = 0
    while pc < len(code):
        ins = code[pc]
        op = ins[0]
        pc += 1
        if op in ("label", "csrwi"):
            continue
        if op == "li":
            regs[ins[1]] = ins[2] & MASK64
        elif op in ("lbu", "sb"):
            address = (regs.get(ins[3], 0) + ins[2]) & MASK64
            if not _mapped(address):
                return False
            if op == "lbu":
                regs[ins[1]] = mem.get(address, 0)
            else:
                mem[address] = regs.get(ins[1], 0) & 0xFF
        elif op in ("beq", "bne"):
            equal = regs.get(ins[1], 0) == regs.get(ins[2], 0)
            if equal == (op == "beq"):
                pc = labels[ins[3]]
        else:
            a, b = regs.get(ins[2], 0), regs.get(ins[3], 0)
            regs[ins[1]] = {"add": a + b, "xor": a ^ b, "and": a & b}[op] & MASK64
    return True


def space_states(space):
    """(regs, private memory) of every state of a space spec, in the
    product order rmikit enumerates: registers first, then cells, the
    last component varying fastest."""
    names = [r for r, _ in space["varying_registers"]]
    cells = [a for a, _ in space["varying_cells"]]
    domains = ([d for _, d in space["varying_registers"]]
               + [d for _, d in space["varying_cells"]])
    states = []

    def rec(i, combo):
        if i == len(domains):
            regs = dict(space["base_regs"], **dict(zip(names, combo)))
            mem = dict(space["base_private"])
            mem.update(zip(cells, combo[len(names):]))
            states.append((regs, mem))
            return
        for value in domains[i]:
            rec(i + 1, combo + (value,))
    rec(0, ())
    return states


def _snippet(rng):
    states = space_states(SWEEP_SPACE)
    for _ in range(200):
        code = _candidate(rng)
        if all(_runs_clean(code, regs, mem) for regs, mem in states):
            return format_snippet(code)
    raise RuntimeError("could not generate a fault-free snippet")


def make_corpus_sweep(rng, size):
    return {"snippets": [_snippet(rng) for _ in range(SWEEP_SNIPPETS[size])],
            "space": SWEEP_SPACE}


# ---------------------------------------------------------- copy ladder
#
# memcpy_right and memcpy_left at trip counts 1..top. Under spec the trace
# set of one state has 2^(n+1) traces, under stl 2^(n-1), so verdict times
# come in classes that double from rung to rung. With one top for both,
# the tail sample (the 11th slowest) falls among verdicts whose times step
# by at most a quarter (spec at top-2, stl at top-1 and top) rather than
# on the edge between two classes, and a pass takes about two seconds
# (the cap of 65 536 traces would allow 15 under spec and 17 under stl).

COPY_TOP = {"full": 12, "quick": 3}


def make_copy_ladder(rng, size):
    rungs = []
    for n in range(1, COPY_TOP[size] + 1):
        d1, d2 = (0x8000 + 64 * k for k in rng.sample(range(56), 2))
        src = 0x1000 + 64 * rng.randrange(4, 60)
        data = [rng.randrange(256) for _ in range(n)]
        secret_at = src + rng.randrange(n)
        secrets = tuple(rng.sample(range(256), 2))
        base = {"a0": d1, "a1": src, "a2": n}
        rungs.append({
            "n": n,
            # two states differing only in one secret source byte
            "data_space": {
                "base_regs": base,
                "base_private": {src + i: b for i, b in enumerate(data)},
                "varying_registers": (),
                "varying_cells": ((secret_at, secrets),)},
            # four states: two shared destinations x length 0 or n
            "dest_space": {
                "base_regs": base,
                "base_private": {src + i: b for i, b in enumerate(data)},
                "varying_registers": (("a0", (d1, d2)), ("a2", (0, n))),
                "varying_cells": ()},
        })
    return {"rungs": rungs}


# --------------------------------------------------------- state ladder
#
# spectre_v1 with a0, the secret byte at 0x1008 and the public cell 0x1002
# widened. Shapes are fixed; the seed draws the values. The a0 domain
# always starts (2, 8): 2 reads the public cell, 8 reads the secret, so
# every verdict and the position of the first violation are the same for
# every seed.

STATE_RUNGS = {
    # (a0 values, secret values, cell values); many small rungs keep the
    # verdict times dense around the median, so it does not jump between
    # two far-apart verdicts from one pass to the next
    "full": ((2, 8, 2), (2, 10, 2), (2, 12, 2), (2, 14, 2), (2, 16, 2),
             (2, 20, 2), (3, 16, 2), (2, 28, 2), (2, 16, 4), (2, 40, 2),
             (3, 16, 4), (4, 32, 2), (2, 256, 2)),
    "quick": ((2, 8, 2),),
}
GADGET_SHARED_RANGE = (0x8000, 0xC000)   # one line per secret byte value
# the third a0 value is in bounds, the fourth out of bounds, so the seed
# never changes which paths run
A0_EXTRAS = ((0, 1, 3), (4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17))


def make_state_ladder(rng, size):
    rungs = []
    for n_a0, n_secret, n_cell in STATE_RUNGS[size]:
        a0 = (2, 8) + tuple(rng.choice(pool) for pool in A0_EXTRAS[:n_a0 - 2])
        secrets = (tuple(range(256)) if n_secret == 256
                   else tuple(rng.sample(range(256), n_secret)))
        cells = tuple(rng.sample(range(256), n_cell))
        rungs.append({
            "states": n_a0 * n_secret * n_cell,
            "space": {"base_regs": {"a0": 8}, "base_private": {},
                      "varying_registers": (("a0", a0),),
                      "varying_cells": ((0x1008, secrets), (0x1002, cells))},
        })
    return {"rungs": rungs, "shared_range": GADGET_SHARED_RANGE}


# ------------------------------------------------------------ llc churn
#
# One pass starts from an empty cache on the reference table and runs a
# fixed schedule: isolation rounds, a flush of a 128-set region after
# every fourth round and of a 1-set region after every eighth, and a
# reconfiguration after every twelfth round (alternate table, then back
# to the reference). Sizes are fixed, so the seed changes which region
# and which lines, never how many accesses. The 24 large flushes are
# mostly the slowest verdicts of a pass, so the tail (10 samples beyond
# it) falls among them rather than on the edge between flushes and rounds.

LLC_ROUNDS = {"full": 96, "quick": 8}
LLC_VICTIM_LINES = 32
LLC_FOREIGN = {"full": 1500, "quick": 200}
LLC_LINES_PER_REGION = 4096
LLC_FLUSH_EVERY = {128: 4, 1: 8}   # region size -> rounds between flushes
LLC_CONFIGURE_EVERY = {"full": 12, "quick": 4}
REGION_SHIFT = 25
LINE_BYTES = 64

# The committed reference layout (corpus_data/reference_layout.json),
# written out here so the cache model does not take it from rmikit.
REFERENCE_TABLE = {0: (0, 16), 1: (16, 256), 2: (272, 128), 3: (400, 128),
                   4: (528, 128), **{r: (651 + r, 1) for r in range(5, 64)}}
REFERENCE_SIZES = {r: size for r, (_, size) in REFERENCE_TABLE.items()}


def _alternate_table(rng):
    """Region 0 (the security monitor's) keeps (0, 16); regions 1..63 get
    the reference sizes under a seeded assignment and base order."""
    others = list(range(1, 64))
    big = rng.sample(others, 4)
    sizes = dict(zip(big, rng.sample([256, 128, 128, 128], 4)))
    rng.shuffle(others)
    entries, base = {0: (0, 16)}, 16
    for region in others:
        size = sizes.get(region, 1)
        entries[region] = (base, size)
        base += size
    return entries


def _line(region, index):
    return (region << REGION_SHIFT) | (index * LINE_BYTES)


def make_llc_churn(rng, size):
    alternates = [_alternate_table(rng), _alternate_table(rng)]
    schedule = []
    sizes = dict(REFERENCE_SIZES)
    n_rounds = LLC_ROUNDS[size]
    configures = 0
    for i in range(n_rounds):
        victim_region = rng.choice([r for r, s in sizes.items() if s >= LLC_VICTIM_LINES])
        start = rng.randrange(LLC_LINES_PER_REGION - LLC_VICTIM_LINES)
        victims = [_line(victim_region, start + k) for k in range(LLC_VICTIM_LINES)]
        # uniform fresh accesses from the other regions, the stream of the
        # test suite's isolation property test
        others = [r for r in sizes if r != victim_region]
        foreign = [_line(rng.choice(others), rng.randrange(LLC_LINES_PER_REGION))
                   for _ in range(LLC_FOREIGN[size])]
        schedule.append(("round", victims, foreign))
        for want, every in LLC_FLUSH_EVERY.items():
            if (i + 1) % every == 0:
                schedule.append(("flush", rng.choice(
                    [r for r, s in sizes.items() if s == want and r != 0])))
        if (i + 1) % LLC_CONFIGURE_EVERY[size] == 0:
            if configures % 2 == 0:
                table = alternates[(configures // 2) % 2]
                schedule.append(("configure", ("alternate", (configures // 2) % 2)))
                sizes = {r: s for r, (_, s) in table.items()}
            else:
                schedule.append(("configure", ("reference", None)))
                sizes = dict(REFERENCE_SIZES)
            configures += 1
    return {"alternates": alternates, "schedule": schedule}


MAKERS = {
    "corpus_sweep": make_corpus_sweep,
    "copy_ladder": make_copy_ladder,
    "state_ladder": make_state_ladder,
    "llc_churn": make_llc_churn,
}


def make(workload, seed, size="full"):
    return MAKERS[workload](rng_for(workload, seed), size)
