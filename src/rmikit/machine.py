"""Architectural state and the one interpreter core.

`decode` turns a program into a table of step functions, one per
instruction, each closed over that instruction's operands: it runs the
instruction on a mutable core (a register dict and one memory dict per
domain), updating it in place, or reading and writing a store-buffer
overlay in place of memory on a wrong path. The table is the one copy of
the opcode semantics, decoded once per program and dispatched once per
step; `lbu` and `sb` classify one address, other widths a span.
`execute` runs one instruction of a program through its table, and
`step` is the functional wrapper over frozen `ArchState`s (copy in,
execute, freeze out). This is the non-speculative base semantics every
other execution model is built on: one instruction at a time, in order.
A program ends when its pc reaches `len(program)`; this module runs no
loop, `contracts.simulate_committed` runs a committed path to its end.

`decode` keeps only the most recently decoded program, compared by
identity: a check runs one program many times, and a cache entry per
program would keep the decoded code of every program ever checked alive
(a corpus sweep checks hundreds), while hashing a `Program` would hash
every instruction on each lookup.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .asm import (BRANCHES, BURST_ON, LOAD_SIZES, STORE_SIZES, reg_name,
                  reg_num)

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


class MemEvent(NamedTuple):
    kind: str           # "load" | "store"
    address: int
    domain: str         # "private" | "shared"
    value: int


class StepEffect(NamedTuple):
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
        """The state a JSON document describes. An x0 that is 0 once masked
        to 64 bits is dropped, as every write to x0 is; any other value for
        x0 raises ValueError."""
        pc = json_int(data.get("pc", 0))
        regs = {reg_num(k): json_int(v) & MASK64
                for k, v in data.get("regs", {}).items()}
        if regs.pop(0, 0):
            raise ValueError("x0 is hard-wired to 0 and cannot hold another value")
        return cls(
            pc=pc,
            regs=regs,
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


_ALU = {"add": operator.add, "sub": operator.sub, "and": operator.and_,
        "or": operator.or_, "xor": operator.xor}
_TAKEN = {"beq": operator.eq, "bne": operator.ne, "bgeu": operator.ge,
          "blt": lambda a, b: to_signed(a) < to_signed(b)}
# the instructions that only write rd: with rd = x0 they do nothing
_REGISTER_OPS = frozenset(_ALU) | {"addi", "li", "mv", "slli", "srli"}

# The kind of each instruction in a decoded table, for the runners in
# contracts: a branch or a jalr (a control transfer whose target is
# predicted, so a wrong path can follow it), a csrwi that turns burst
# mode on or off (a speculation barrier), or any other instruction.
OTHER, CONTROL, SETS_BURST_ON, SETS_BURST_OFF = range(4)


class Decoded(NamedTuple):
    steps: tuple    # pc -> step function (layout, regs, mems, overlay=None)
    kinds: tuple    # pc -> OTHER, CONTROL, SETS_BURST_ON or SETS_BURST_OFF


_last = (None, None)    # (program, Decoded) of the most recent decode


def decode(program):
    """The Decoded table of `program`.

    A step function runs its instruction on a mutable core and returns
    its StepEffect. `regs` ({reg number: value}) and `mems` ({PRIVATE:
    {address: byte}, SHARED: {...}}) are updated in place. With an
    `overlay` ({(domain, address): byte}, a speculative store buffer),
    loads read through it and stores go into it, never into `mems`. Every
    check (alignment, mapping, target range) comes before the first
    write, so an instruction that raises leaves the core unchanged. The
    caller checks the pc's range before it indexes the table.

    Only the most recent program is kept, with its table as one tuple,
    so a concurrent reader never pairs a program with another's table.
    """
    global _last
    cached, decoded = _last
    if cached is program:
        return decoded
    instructions = program.instructions
    end = len(instructions)
    decoded = Decoded(
        tuple(_step_function(ins, pc, end) for pc, ins in enumerate(instructions)),
        tuple(_kind(ins) for ins in instructions))
    _last = (program, decoded)
    return decoded


def _kind(ins):
    if ins.opcode in BRANCHES or ins.opcode == "jalr":
        return CONTROL
    if ins.opcode == "csrwi":
        return SETS_BURST_ON if ins.csr_value == BURST_ON else SETS_BURST_OFF
    return OTHER


def _step_function(ins, pc, end):
    """The step function of `ins` at index `pc` of a program of `end`
    instructions. A register read of x0 looks up None, which no register
    dict holds, and a write to x0 is dropped. The effects of a step
    without a memory event are built here, once."""
    op, rd, imm, target = ins.opcode, ins.rd, ins.imm, ins.target
    rs1, rs2 = ins.rs1 or None, ins.rs2 or None
    proceed = StepEffect(pc + 1)

    if op in ("label", "csrwi") or (op in _REGISTER_OPS and not rd):
        def nop(layout, regs, mems, overlay=None):
            return proceed
        return nop
    if op in _ALU:
        alu = _ALU[op]

        def r_op(layout, regs, mems, overlay=None):
            regs[rd] = alu(regs.get(rs1, 0), regs.get(rs2, 0)) & MASK64
            return proceed
        return r_op
    if op == "addi":
        def addi(layout, regs, mems, overlay=None):
            regs[rd] = (regs.get(rs1, 0) + imm) & MASK64
            return proceed
        return addi
    if op == "li":
        def li(layout, regs, mems, overlay=None):
            regs[rd] = imm & MASK64
            return proceed
        return li
    if op == "mv":
        def mv(layout, regs, mems, overlay=None):
            regs[rd] = regs.get(rs1, 0) & MASK64
            return proceed
        return mv
    if op == "slli":
        def slli(layout, regs, mems, overlay=None):
            regs[rd] = (regs.get(rs1, 0) << (imm & 63)) & MASK64
            return proceed
        return slli
    if op == "srli":
        def srli(layout, regs, mems, overlay=None):
            regs[rd] = (regs.get(rs1, 0) & MASK64) >> (imm & 63)
            return proceed
        return srli
    if op == "lbu":
        def lbu(layout, regs, mems, overlay=None):
            address = (regs.get(rs1, 0) + imm) & MASK64
            domain = layout.classify(address)
            if domain is None:
                raise OutOfRangeAccess(address)
            value = overlay.get((domain, address)) if overlay else None
            if value is None:
                value = mems[domain].get(address, 0)
            if rd:
                regs[rd] = value
            return StepEffect(pc + 1, MemEvent("load", address, domain, value))
        return lbu
    if op == "sb":
        def sb(layout, regs, mems, overlay=None):
            address = (regs.get(rs1, 0) + imm) & MASK64
            domain = layout.classify(address)
            if domain is None:
                raise OutOfRangeAccess(address)
            value = regs.get(rs2, 0) & 0xFF
            if overlay is None:
                mems[domain][address] = value
            else:
                overlay[domain, address] = value
            return StepEffect(pc + 1, MemEvent("store", address, domain, value))
        return sb
    if op in LOAD_SIZES:
        size = LOAD_SIZES[op]
        aligned = size - 1          # the low address bits that must be 0
        signed = op == "lw"

        def load(layout, regs, mems, overlay=None):
            address = (regs.get(rs1, 0) + imm) & MASK64
            if address & aligned:
                raise OutOfRangeAccess(address)
            domain = layout.classify_span(address, size)
            mem = mems[domain]
            span = range(address, address + size)
            if overlay:
                raw = bytes(overlay.get((domain, x), mem.get(x, 0)) for x in span)
            else:
                raw = bytes(mem.get(x, 0) for x in span)
            value = int.from_bytes(raw, "little")
            if signed and value >> 31:
                value = (value - (1 << 32)) & MASK64
            if rd:
                regs[rd] = value
            return StepEffect(pc + 1, MemEvent("load", address, domain, value))
        return load
    if op in STORE_SIZES:
        size = STORE_SIZES[op]
        aligned = size - 1
        width = (1 << 8 * size) - 1

        def store(layout, regs, mems, overlay=None):
            address = (regs.get(rs1, 0) + imm) & MASK64
            if address & aligned:
                raise OutOfRangeAccess(address)
            domain = layout.classify_span(address, size)
            value = regs.get(rs2, 0) & width
            data = zip(range(address, address + size),
                       value.to_bytes(size, "little"))
            if overlay is None:
                mems[domain].update(data)
            else:
                overlay.update(((domain, x), byte) for x, byte in data)
            return StepEffect(pc + 1, MemEvent("store", address, domain, value))
        return store
    if op in BRANCHES:
        taken = _TAKEN[op]
        jump = StepEffect(target)

        def branch(layout, regs, mems, overlay=None):
            if not taken(regs.get(rs1, 0), regs.get(rs2, 0)):
                return proceed
            if not 0 <= target <= end:
                raise InvalidPc(target)
            return jump
        return branch
    if op == "jal":
        jump = StepEffect(target)

        def jal(layout, regs, mems, overlay=None):
            if not 0 <= target <= end:
                raise InvalidPc(target)
            if rd:
                regs[rd] = pc + 1
            return jump
        return jal
    if op == "jalr":
        def jalr(layout, regs, mems, overlay=None):
            to = (regs.get(rs1, 0) + imm) & MASK64
            if to > end:
                raise InvalidPc(to)
            if rd:
                regs[rd] = pc + 1
            return StepEffect(to)
        return jalr

    def unhandled(layout, regs, mems, overlay=None):  # pragma: no cover
        raise MachineError(f"unhandled opcode {op}")
    return unhandled


def execute(program, layout, pc, regs, mems, overlay=None):
    """Execute the instruction at `pc` on a mutable core through the
    program's decoded table (see `decode`); returns its StepEffect."""
    steps = decode(program).steps
    if not 0 <= pc < len(steps):
        raise InvalidPc(pc)
    return steps[pc](layout, regs, mems, overlay)


def step(program, state, layout):
    """Execute one instruction; returns (new ArchState, StepEffect).

    The functional form of `execute`: copy the state in, execute, freeze
    the result out.
    """
    regs = dict(state.regs)
    mems = {PRIVATE: dict(state.private_mem), SHARED: dict(state.shared_mem)}
    effect = execute(program, layout, state.pc, regs, mems)
    return ArchState(effect.next_pc, regs, mems[PRIVATE], mems[SHARED]), effect
