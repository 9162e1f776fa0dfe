"""Architectural state and the sequential single-instruction step function.

This is the non-speculative base semantics every other execution model is
built on: one instruction at a time, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .asm import (BRANCHES, LOAD_SIZES, LOADS, R_OPS, STORE_SIZES, STORES,
                  reg_name, reg_num)

MASK64 = (1 << 64) - 1

PRIVATE = "private"
SHARED = "shared"


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
    reg_writes: dict = field(default_factory=dict)


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

    def load_bytes(self, domain, address, size):
        mem = self.mem(domain)
        return int.from_bytes(
            bytes(mem.get(address + i, 0) & 0xFF for i in range(size)), "little")

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
            pc=data.get("pc", 0),
            regs={reg_num(k): int(v) & MASK64
                  for k, v in data.get("regs", {}).items()},
            private_mem={int(a, 0): int(b) & 0xFF
                         for a, b in data.get("private_mem", {}).items()},
            shared_mem={int(a, 0): int(b) & 0xFF
                        for a, b in data.get("shared_mem", {}).items()},
        )


def _check_alignment(address, size):
    if size > 1 and address % size != 0:
        raise OutOfRangeAccess(address)


def step(program, state, layout, mem_overlay=None):
    """Execute one instruction; returns (new ArchState, StepEffect).

    `mem_overlay` is an optional {(domain, address): byte} mapping consulted
    before memory on loads; the speculative engine uses it for buffered
    wrong-path stores. Stores do not modify it here.
    """
    if state.halted:
        raise InvalidPc(state.pc)
    if not 0 <= state.pc < len(program):
        raise InvalidPc(state.pc)

    ins = program.instructions[state.pc]
    pc = state.pc
    nxt = pc + 1
    op = ins.opcode

    def finish(writes=None, next_pc=None, event=None):
        writes = writes or {}
        target = nxt if next_pc is None else next_pc
        if not 0 <= target <= len(program):
            raise InvalidPc(target)
        new = state.with_regs(writes, pc=target)
        if target == len(program):
            new = replace(new, halted=True)
        return new, StepEffect(next_pc=target, mem_event=event, reg_writes=writes)

    if op in ("label", "csrwi"):
        return finish()

    if op in R_OPS:
        a, b = state.reg(ins.rs1), state.reg(ins.rs2)
        value = {
            "add": a + b, "sub": a - b,
            "and": a & b, "or": a | b, "xor": a ^ b,
        }[op] & MASK64
        return finish({ins.rd: value})

    if op == "addi":
        return finish({ins.rd: (state.reg(ins.rs1) + ins.imm) & MASK64})
    if op == "slli":
        return finish({ins.rd: (state.reg(ins.rs1) << (ins.imm & 63)) & MASK64})
    if op == "srli":
        return finish({ins.rd: (state.reg(ins.rs1) & MASK64) >> (ins.imm & 63)})
    if op == "li":
        return finish({ins.rd: ins.imm & MASK64})
    if op == "mv":
        return finish({ins.rd: state.reg(ins.rs1)})

    if op in LOADS:
        size = LOAD_SIZES[op]
        address = (state.reg(ins.rs1) + ins.imm) & MASK64
        _check_alignment(address, size)
        domain = layout.classify_span(address, size)
        raw = bytearray(
            state.mem(domain).get(address + i, 0) for i in range(size))
        if mem_overlay:
            for i in range(size):
                key = (domain, address + i)
                if key in mem_overlay:
                    raw[i] = mem_overlay[key]
        value = int.from_bytes(bytes(raw), "little")
        if op == "lw" and value >> 31:
            value = (value - (1 << 32)) & MASK64
        event = MemEvent("load", address, domain, value)
        new, effect = finish({ins.rd: value})
        return new, replace(effect, mem_event=event)

    if op in STORES:
        size = STORE_SIZES[op]
        address = (state.reg(ins.rs1) + ins.imm) & MASK64
        _check_alignment(address, size)
        domain = layout.classify_span(address, size)
        value = state.reg(ins.rs2)
        new = state.with_store(domain, address, value, size, pc=nxt)
        if nxt == len(program):
            new = replace(new, halted=True)
        event = MemEvent("store", address, domain, value & ((1 << (8 * size)) - 1))
        return new, StepEffect(next_pc=nxt, mem_event=event, reg_writes={})

    if op in BRANCHES:
        a, b = state.reg(ins.rs1), state.reg(ins.rs2)
        taken = {
            "beq": a == b, "bne": a != b,
            "blt": to_signed(a) < to_signed(b),
            "bgeu": a >= b,
        }[op]
        return finish(next_pc=ins.target if taken else nxt)

    if op == "jal":
        return finish({ins.rd: nxt}, next_pc=ins.target)

    if op == "jalr":
        target = (state.reg(ins.rs1) + ins.imm) & MASK64
        return finish({ins.rd: nxt}, next_pc=target)

    raise MachineError(f"unhandled opcode {op}")  # pragma: no cover


@dataclass(frozen=True)
class RunResult:
    state: ArchState
    effects: tuple[StepEffect, ...]
    fuel_exhausted: bool = False


DEFAULT_FUEL = 10_000


def run_seq(program, state0, layout, fuel=DEFAULT_FUEL):
    """Iterate `step` until halt or the fuel bound; fuel exhaustion is an
    explicit outcome flag, not an error."""
    state = state0
    if len(program) == 0:
        return RunResult(replace(state, halted=True), ())
    effects = []
    for _ in range(fuel):
        if state.halted:
            return RunResult(state, tuple(effects))
        state, effect = step(program, state, layout)
        effects.append(effect)
    return RunResult(state, tuple(effects), fuel_exhausted=not state.halted)
