"""The opcode chain that rmikit.machine's decoded step table replaced,
kept as the reference oracle for it: one chain of opcode tests per step,
the committed-path and wrong-path loops written over it, the rule for
the slots a run's committed steps and a window read (`Reads`), which
contracts.simulate_committed and contracts.wrong_path_events apply as
they run, and the rule for the windows that read no state
(`state_free`), by which machine.decode marks the windows it holds and
simulate_committed keeps a snapshot only where a window can read it."""

import operator

from rmikit.asm import (BRANCHES, BURST_ON, LOAD_SIZES, LOADS, R_OPS,
                        STORE_SIZES, STORES)
from rmikit.contracts import FUEL, SPEC_DEPTH, FuelExhausted
from rmikit.machine import (MASK64, PRIVATE, SHARED, ArchState, InvalidPc,
                            MachineError, MemEvent, OutOfRangeAccess,
                            StepEffect, to_signed)


def _check_alignment(address, size):
    if size > 1 and address % size != 0:
        raise OutOfRangeAccess(address)


_ALU = {"add": operator.add, "sub": operator.sub, "and": operator.and_,
        "or": operator.or_, "xor": operator.xor}
_TAKEN = {"beq": operator.eq, "bne": operator.ne, "bgeu": operator.ge,
          "blt": lambda a, b: to_signed(a) < to_signed(b)}


def execute(program, layout, pc, regs, mems, overlay=None):
    """Execute the instruction at `pc` on a mutable core; returns its StepEffect.

    `regs` ({reg number: value}) and `mems` ({PRIVATE: {address: byte},
    SHARED: {...}}) are updated in place. With an `overlay`
    ({(domain, address): byte}, a speculative store buffer), loads read
    through it and stores go into it, never into `mems`. Every check
    (pc, alignment, mapping, target range) comes before the first write,
    so an instruction that raises leaves the core unchanged.
    """
    instructions = program.instructions
    if not 0 <= pc < len(instructions):
        raise InvalidPc(pc)
    ins = instructions[pc]
    op = ins.opcode
    a = regs.get(ins.rs1, 0) if ins.rs1 else 0
    b = regs.get(ins.rs2, 0) if ins.rs2 else 0
    target = pc + 1
    value = None                # the value written to rd, if any
    event = None
    if op in R_OPS:
        value = _ALU[op](a, b) & MASK64
    elif op == "addi":
        value = (a + ins.imm) & MASK64
    elif op == "li":
        value = ins.imm & MASK64
    elif op == "mv":
        value = a
    elif op == "slli":
        value = (a << (ins.imm & 63)) & MASK64
    elif op == "srli":
        value = (a & MASK64) >> (ins.imm & 63)
    elif op in LOADS or op in STORES:
        size = LOAD_SIZES.get(op) or STORE_SIZES[op]
        address = (a + ins.imm) & MASK64
        _check_alignment(address, size)
        domain = layout.classify_span(address, size)
        span = range(address, address + size)
        mem = mems[domain]
        if op in STORES:
            data = (b & MASK64).to_bytes(8, "little")[:size]
            event = MemEvent("store", address, domain,
                             int.from_bytes(data, "little"))
            if overlay is None:
                mem.update(zip(span, data))
            else:
                overlay.update(((domain, x), byte) for x, byte in zip(span, data))
        else:
            if overlay:
                raw = bytes(overlay.get((domain, x), mem.get(x, 0)) for x in span)
            else:
                raw = bytes(mem.get(x, 0) for x in span)
            value = int.from_bytes(raw, "little")
            if op == "lw" and value >> 31:
                value = (value - (1 << 32)) & MASK64
            event = MemEvent("load", address, domain, value)
    elif op in BRANCHES:
        if _TAKEN[op](a, b):
            target = ins.target
    elif op == "jal":
        value, target = pc + 1, ins.target
    elif op == "jalr":
        value, target = pc + 1, (a + ins.imm) & MASK64
    elif op not in ("label", "csrwi"):
        raise MachineError(f"unhandled opcode {op}")  # pragma: no cover
    if not 0 <= target <= len(instructions):
        raise InvalidPc(target)
    if value is not None and ins.rd:
        regs[ins.rd] = value & MASK64
    return StepEffect(next_pc=target, mem_event=event)


def _core(regs, mems):
    """A snapshot: copies of the core's dicts, as the step functions take
    them."""
    return dict(regs), {PRIVATE: dict(mems[PRIVATE]),
                        SHARED: dict(mems[SHARED])}


# the instructions that only write rd from their sources and fall through
_REGISTER_OPS = R_OPS | {"addi", "li", "mv", "slli", "srli"}


def state_free(program, target):
    """Whether the window at `target` reads no state: each instruction it
    runs, up to where it stops (a csrwi, the end, or SPEC_DEPTH steps),
    is a label, or a register op with no source register but x0, which
    reads no register and no memory, falls through and never faults, so
    the window is the same from every core. A target outside the program
    starts the empty window."""
    instructions = program.instructions
    pc = target if 0 <= target < len(instructions) else len(instructions)
    for _ in range(SPEC_DEPTH):
        if pc == len(instructions) or instructions[pc].opcode == "csrwi":
            return True
        ins = instructions[pc]
        if ins.opcode != "label" and (ins.opcode not in _REGISTER_OPS
                                      or ins.rs1 or ins.rs2):
            return False
        pc += 1
    return True


def wrong_arms(program, index, actual):
    """Every target a wrong path can take after the branch or jalr at
    `index` whose committed successor is `actual`, under any execution
    model: the other arm of a branch, or its one arm when both arms are
    one target, and every program index but `actual` after a jalr."""
    ins = program.instructions[index]
    if ins.opcode == "jalr":
        return [t for t in range(len(program)) if t != actual]
    return [index + 1 if actual != index + 1 else ins.target]


def committed(program, state0, layout):
    """(steps, resume, final state) of the committed path from `state0`,
    as contracts.simulate_committed records them: after each branch and
    jalr a snapshot, the core `(regs, mems)`, or None where every wrong
    arm's window is state-free, and the final ArchState. A step's
    MachineError propagates, and a path not at its end after FUEL steps
    raises FuelExhausted."""
    end = len(program)
    steps, resume = [], {}
    pc = state0.pc
    regs = dict(state0.regs)
    mems = {PRIVATE: dict(state0.private_mem), SHARED: dict(state0.shared_mem)}
    burst_active = False
    while pc != end:
        if len(steps) == FUEL:
            raise FuelExhausted(f"committed path runs past {FUEL} steps")
        effect = execute(program, layout, pc, regs, mems)
        ins = program.instructions[pc]
        steps.append((pc, effect, burst_active))
        pc = effect.next_pc
        if ins.opcode in BRANCHES or ins.opcode == "jalr":
            resume[len(steps) - 1] = None if all(
                state_free(program, t)
                for t in wrong_arms(program, steps[-1][0], pc)) else _core(
                    regs, mems)
        elif ins.opcode == "csrwi":
            burst_active = ins.csr_value == BURST_ON
    return tuple(steps), resume, ArchState(pc, regs, mems[PRIVATE],
                                           mems[SHARED])


def as_state(start):
    """The state that a committed run starts from, as an ArchState:
    `start` itself, or a copy of a core `(pc, regs, mems)`, which
    contracts.simulate_committed takes over and updates in place (ni
    runs every fresh state from one), so the copy is taken before the
    run."""
    if isinstance(start, ArchState):
        return start
    pc, regs, mems = start
    return ArchState(pc, dict(regs), dict(mems[PRIVATE]), dict(mems[SHARED]))


def window(program, core, target, layout):
    """The (index, effect) steps of the wrong-path window at `target` from
    the snapshot `core`, as contracts.wrong_path_events runs it. A
    state-free window takes no core (None): it runs from an empty one."""
    if core is None:
        assert state_free(program, target), "a window that reads state"
        core = {}, {PRIVATE: {}, SHARED: {}}
    steps, overlay = [], {}
    regs = dict(core[0])
    mems = core[1]
    pc = target
    for _ in range(SPEC_DEPTH):
        if not 0 <= pc < len(program) or program.instructions[pc].opcode == "csrwi":
            break
        try:
            effect = execute(program, layout, pc, regs, mems, overlay)
        except MachineError:
            break
        steps.append((pc, effect))
        pc = effect.next_pc
    return tuple(steps)


class Reads:
    """The slots of a state's tuple of varying values, among `registers`
    ({reg number: slot}) and `cells` ({address: slot}), that steps of a
    run of `program` may have read, in the order read, with repeats: the
    rs1 and rs2 of every step, and every byte in the span of every load.
    Called on a run's committed steps, it lists what
    contracts.simulate_committed lists in `CommittedRun.read`.
    Called with the `target` of a window on its steps, it adds the rs1
    and rs2 of the instruction at which a window shorter than SPEC_DEPTH
    stopped short (a fault, decided by those operands), unless it stopped
    outside the program. Committed steps are (index, effect, burst flag)
    and window steps (index, effect)."""

    def __init__(self, program, registers, cells):
        instructions = program.instructions
        self.sources = [[registers[r] for r in (ins.rs1, ins.rs2)
                         if r in registers] for ins in instructions]
        self.sizes = [LOAD_SIZES.get(ins.opcode) for ins in instructions]
        self.cells = cells

    def __call__(self, steps, target=None):
        read = []
        for index, effect, *_ in steps:
            read += self.sources[index]
            if self.sizes[index] is not None:
                address = effect.mem_event.address
                read += [self.cells[x] for x in range(
                    address, address + self.sizes[index]) if x in self.cells]
        if target is not None:
            stop = steps[-1][1].next_pc if steps else target
            if len(steps) < SPEC_DEPTH and 0 <= stop < len(self.sources):
                read += self.sources[stop]
        return read
