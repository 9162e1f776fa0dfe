"""The opcode chain that rmikit.machine's decoded step table replaced,
kept as the reference oracle for it: one chain of opcode tests per step,
the committed-path and wrong-path loops written over it, and the rule
for the slots a window reads (`Reads`), which
contracts.wrong_path_events applies as it runs."""

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


def committed(program, state0, layout):
    """(steps, resume, final state) of the committed path from `state0`,
    as contracts.simulate_committed records them: a snapshot, the core
    `(regs, mems)`, after each branch and jalr, and the final ArchState.
    A step's MachineError propagates, and a path not at its end after
    FUEL steps raises FuelExhausted."""
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
            resume[len(steps) - 1] = _core(regs, mems)
        elif ins.opcode == "csrwi":
            burst_active = ins.csr_value == BURST_ON
    return tuple(steps), resume, ArchState(pc, regs, mems[PRIVATE],
                                           mems[SHARED])


def window(program, core, target, layout):
    """The (index, effect) steps of the wrong-path window at `target` from
    the snapshot `core`, as contracts.wrong_path_events runs it."""
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
