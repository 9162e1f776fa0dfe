"""Architectural state and the one interpreter core.

`execute` holds the opcode semantics: it runs one instruction on a
mutable core (a register dict and one memory dict per domain), updating
it in place, or reading and writing a store-buffer overlay in place of
memory on a wrong path. `step` is its functional wrapper over frozen
`ArchState`s (copy in, execute, freeze out), and `run_seq` iterates
`step`. This is the non-speculative base semantics every other execution
model is built on: one instruction at a time, in order. `FUEL` bounds
every committed path: `run_seq` flags a path that has not halted after
FUEL steps, and `contracts.simulate_committed` refuses it.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace

from .asm import (BRANCHES, LOAD_SIZES, LOADS, R_OPS, STORE_SIZES, STORES,
                  reg_name, reg_num)

MASK64 = (1 << 64) - 1

PRIVATE = "private"
SHARED = "shared"

# The most instructions a committed path may run.
FUEL = 10_000


class MachineError(Exception):
    pass


class OutOfRangeAccess(MachineError):
    def __init__(self, address):
        super().__init__(f"memory access at {address:#x} falls in no mapped range")
        self.address = address


class InvalidPc(MachineError):
    def __init__(self, pc):
        super().__init__(f"control transfer to invalid instruction index {pc}")
        self.pc = pc


def to_signed(value):
    value &= MASK64
    return value - (1 << 64) if value >> 63 else value


@dataclass(frozen=True)
class MemoryLayout:
    """Disjoint virtual address ranges; domain is decidable from the address."""

    private_range: tuple[int, int] = (0x1000, 0x2000)
    shared_range: tuple[int, int] = (0x8000, 0x9000)

    def __post_init__(self):
        plo, phi = self.private_range
        slo, shi = self.shared_range
        if not (plo < phi and slo < shi):
            raise ValueError("memory ranges must be non-empty")
        if max(plo, slo) < min(phi, shi):
            raise ValueError("private and shared ranges overlap")

    def classify(self, address):
        if self.private_range[0] <= address < self.private_range[1]:
            return PRIVATE
        if self.shared_range[0] <= address < self.shared_range[1]:
            return SHARED
        return None

    def classify_span(self, address, size):
        """Domain of [address, address+size), or raise if it is not fully mapped."""
        domain = self.classify(address)
        if domain is None or self.classify(address + size - 1) != domain:
            raise OutOfRangeAccess(address)
        return domain


@dataclass(frozen=True)
class MemEvent:
    kind: str           # "load" | "store"
    address: int
    domain: str         # "private" | "shared"
    value: int


@dataclass(frozen=True)
class StepEffect:
    next_pc: int
    mem_event: MemEvent | None = None


@dataclass(frozen=True)
class ArchState:
    """Register file plus byte-addressed private/shared memories.

    Memories are total: unset addresses read as 0, which keeps brute-force
    state enumeration finite and reproducible.
    """

    pc: int = 0
    regs: dict = field(default_factory=dict)          # reg number -> 64-bit value
    private_mem: dict = field(default_factory=dict)   # address -> byte
    shared_mem: dict = field(default_factory=dict)
    halted: bool = False

    def reg(self, num):
        return 0 if num == 0 else self.regs.get(num, 0)

    def with_regs(self, writes, pc):
        regs = dict(self.regs)
        for num, value in writes.items():
            if num != 0:
                regs[num] = value & MASK64
        return replace(self, regs=regs, pc=pc)

    def mem(self, domain):
        return self.private_mem if domain == PRIVATE else self.shared_mem

    def with_store(self, domain, address, value, size, pc):
        mem = dict(self.mem(domain))
        for i, b in enumerate(int(value & MASK64).to_bytes(8, "little")[:size]):
            mem[address + i] = b
        if domain == PRIVATE:
            return replace(self, private_mem=mem, pc=pc)
        return replace(self, shared_mem=mem, pc=pc)

    def to_json(self):
        return {
            "pc": self.pc,
            "regs": {reg_name(n): v for n, v in sorted(self.regs.items()) if v},
            "private_mem": {f"{a:#x}": b for a, b in sorted(self.private_mem.items())},
            "shared_mem": {f"{a:#x}": b for a, b in sorted(self.shared_mem.items())},
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            pc=json_int(data.get("pc", 0)),
            regs={reg_num(k): json_int(v) & MASK64
                  for k, v in data.get("regs", {}).items()},
            private_mem={int(a, 0): json_int(b) & 0xFF
                         for a, b in data.get("private_mem", {}).items()},
            shared_mem={int(a, 0): json_int(b) & 0xFF
                        for a, b in data.get("shared_mem", {}).items()},
        )


def json_int(value):
    """An integer read from a JSON document. A float or a boolean is
    refused: int() would truncate 1.9 to 1 and read true as 1."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


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


def step(program, state, layout):
    """Execute one instruction; returns (new ArchState, StepEffect).

    The functional form of `execute`: copy the state in, execute, freeze
    the result out.
    """
    if state.halted:
        raise InvalidPc(state.pc)
    regs = dict(state.regs)
    mems = {PRIVATE: dict(state.private_mem), SHARED: dict(state.shared_mem)}
    effect = execute(program, layout, state.pc, regs, mems)
    return ArchState(effect.next_pc, regs, mems[PRIVATE], mems[SHARED],
                     halted=effect.next_pc == len(program)), effect


@dataclass(frozen=True)
class RunResult:
    state: ArchState
    effects: tuple[StepEffect, ...]
    fuel_exhausted: bool = False


def run_seq(program, state0, layout):
    """Iterate `step` until halt or FUEL steps; fuel exhaustion is an
    explicit outcome flag, not an error."""
    state = state0
    if len(program) == 0:
        return RunResult(replace(state, halted=True), ())
    effects = []
    for _ in range(FUEL):
        if state.halted:
            return RunResult(state, tuple(effects))
        state, effect = step(program, state, layout)
        effects.append(effect)
    return RunResult(state, tuple(effects), fuel_exhausted=not state.halted)
