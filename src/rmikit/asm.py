"""Parser and pretty-printer for a small RISC-V assembly dialect.

The dialect covers the handful of integer, memory, and control-flow
mnemonics needed by the security checkers in this package, plus a
`csrwi MSPEC, ...` instruction that toggles burst regions and a
`.symbol name = value` extension for declaring named buffer addresses.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

# Canonical register numbering: x0..x31 plus the usual ABI aliases.
_ABI_ALIASES = {
    "zero": 0, "ra": 1, "sp": 2,
    "s0": 8, "s1": 9,
    **{f"a{i}": 10 + i for i in range(8)},
    "t0": 5, "t1": 6, "t2": 7,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
    **{f"s{i}": 16 + i for i in range(2, 12)},
}
_REG_NAMES = {v: k for k, v in _ABI_ALIASES.items()}

R_OPS = frozenset({"add", "sub", "and", "or", "xor"})
I_OPS = frozenset({"addi", "slli", "srli"})
LOADS = frozenset({"lw", "lbu", "ld"})
STORES = frozenset({"sw", "sb", "sd"})
BRANCHES = frozenset({"beq", "bne", "blt", "bgeu"})
JUMPS = frozenset({"jal", "jalr"})

# "label" is an internal marker opcode: a label-definition line occupies
# one instruction slot so that instruction indices line up with source
# line numbering; it executes as a fall-through no-op.
OPCODES = R_OPS | I_OPS | LOADS | STORES | BRANCHES | JUMPS | {
    "li", "mv", "csrwi", "label",
}

CSR_NAME = "MSPEC"
BURST_ON = "BURST_ON"
BURST_OFF = "BURST_OFF"

LOAD_SIZES = {"lbu": 1, "lw": 4, "ld": 8}
STORE_SIZES = {"sb": 1, "sw": 4, "sd": 8}


class AsmError(Exception):
    """Structured parse error with source position."""

    def __init__(self, message, line=0, column=0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def to_json(self):
        return {"line": self.line, "column": self.column, "message": self.message}


class UnknownMnemonic(AsmError):
    def __init__(self, line, mnemonic=""):
        super().__init__(f"unknown mnemonic '{mnemonic}'", line=line)
        self.mnemonic = mnemonic


class UnresolvedLabel(AsmError):
    def __init__(self, name, line=0):
        super().__init__(f"unresolved label '{name}'", line=line)
        self.name = name


class MalformedOperand(AsmError):
    def __init__(self, line, detail=""):
        super().__init__(f"malformed operand: {detail}", line=line)


class UnmatchedBurstMarker(AsmError):
    def __init__(self, index, line=0):
        super().__init__(f"unmatched burst-mode marker at instruction {index}", line=line)
        self.index = index


class DirectiveWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Instruction:
    opcode: str
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int | None = None
    target: int | None = None        # resolved instruction index for branches/jal
    target_label: str | None = None
    csr_value: str | None = None     # BURST_ON / BURST_OFF
    label_name: str | None = None    # for "label" marker slots
    source_line: int = 0


@dataclass(frozen=True)
class Program:
    instructions: tuple[Instruction, ...]
    labels: dict[str, int] = field(default_factory=dict)
    burst_regions: tuple[tuple[int, int], ...] = ()
    symbols: dict[str, int] = field(default_factory=dict)

    def __len__(self):
        return len(self.instructions)

    def __eq__(self, other):
        if not isinstance(other, Program):
            return NotImplemented
        return (self.instructions == other.instructions
                and self.labels == other.labels
                and self.burst_regions == other.burst_regions
                and self.symbols == other.symbols)

    def __hash__(self):
        return hash((self.instructions, self.burst_regions))


def reg_num(name):
    """Canonical register number for 'x5', 'a0', 'zero', ..."""
    name = name.strip().lower()
    if name in _ABI_ALIASES:
        return _ABI_ALIASES[name]
    m = re.fullmatch(r"x([0-9]|[12][0-9]|3[01])", name)
    if m:
        return int(m.group(1))
    raise KeyError(name)


def reg_name(num):
    return _REG_NAMES.get(num, f"x{num}")


_LABEL_DEF = re.compile(r"^([A-Za-z_.][\w.$]*)\s*:\s*(.*)$")
_SYMBOL_DEF = re.compile(r"^\.symbol\s+([A-Za-z_.][\w.$]*)\s*=\s*(\S+)\s*$")
_MEM_OPERAND = re.compile(r"^(-?[\w.$]*)\s*\(\s*([\w.]+)\s*\)$")


def _parse_int(text, symbols, lineno):
    text = text.strip()
    if text in symbols:
        return symbols[text]
    try:
        return int(text, 0)
    except ValueError:
        raise MalformedOperand(lineno, f"expected integer or symbol, got '{text}'") from None


def _parse_reg(text, lineno):
    try:
        return reg_num(text)
    except KeyError:
        raise MalformedOperand(lineno, f"expected register, got '{text}'") from None


def parse_program(text):
    """Parse assembly source into a Program.

    Raises AsmError subclasses on malformed input; never lets other
    exceptions escape for arbitrary text input.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise AsmError(f"input is not valid UTF-8: {exc}") from None

    # First pass: strip comments, collect .symbol definitions, and flatten
    # the source into (lineno, statement) entries that occupy slots.
    symbols: dict[str, int] = {}
    statements: list[tuple[int, str]] = []  # (source line, text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SYMBOL_DEF.match(line)
        if m:
            symbols[m.group(1)] = _parse_int(m.group(2), {}, lineno)
            continue
        # peel off label definitions (possibly followed by an instruction)
        while True:
            m = _LABEL_DEF.match(line)
            if not m:
                break
            statements.append((lineno, m.group(1) + ":"))
            line = m.group(2).strip()
        if not line:
            continue
        if line.startswith("."):
            warnings.warn(f"line {lineno}: skipping assembler directive '{line}'",
                          DirectiveWarning, stacklevel=2)
            continue
        statements.append((lineno, line))

    # Second pass: assign labels to slot indices.
    labels: dict[str, int] = {}
    for index, (lineno, stmt) in enumerate(statements):
        if stmt.endswith(":"):
            name = stmt[:-1]
            if name in labels:
                raise AsmError(f"duplicate label '{name}'", line=lineno)
            labels[name] = index

    instructions = [
        _parse_statement(index, lineno, stmt, labels, symbols)
        for index, (lineno, stmt) in enumerate(statements)
    ]

    burst_regions = _extract_burst_regions(instructions)
    return Program(
        instructions=tuple(instructions),
        labels=labels,
        burst_regions=burst_regions,
        symbols=symbols,
    )


def _parse_statement(index, lineno, stmt, labels, symbols):
    if stmt.endswith(":"):
        return Instruction(opcode="label", label_name=stmt[:-1], source_line=lineno)

    parts = stmt.split(None, 1)
    mnemonic = parts[0].lower()
    ops = [o.strip() for o in parts[1].split(",")] if len(parts) > 1 else []

    if mnemonic == "ret":
        if ops:
            raise MalformedOperand(lineno, "ret takes no operands")
        return Instruction(opcode="jalr", rd=0, rs1=reg_num("ra"), imm=0,
                           source_line=lineno)

    if mnemonic not in OPCODES or mnemonic == "label":
        raise UnknownMnemonic(lineno, mnemonic)

    def need(n):
        if len(ops) != n:
            raise MalformedOperand(lineno, f"{mnemonic} expects {n} operands, got {len(ops)}")

    def resolve_target(name):
        if name in labels:
            return labels[name], name
        try:
            return int(name, 0), None
        except ValueError:
            raise UnresolvedLabel(name, line=lineno) from None

    if mnemonic in R_OPS:
        need(3)
        rd = _parse_reg(ops[0], lineno)
        rs1 = _parse_reg(ops[1], lineno)
        # GNU as accepts `add rd, rs1, imm` as shorthand for addi
        try:
            rs2 = _parse_reg(ops[2], lineno)
        except MalformedOperand:
            if mnemonic != "add":
                raise
            imm = _parse_int(ops[2], symbols, lineno)
            return Instruction(opcode="addi", rd=rd, rs1=rs1, imm=imm, source_line=lineno)
        return Instruction(opcode=mnemonic, rd=rd, rs1=rs1, rs2=rs2, source_line=lineno)

    if mnemonic in I_OPS:
        need(3)
        return Instruction(opcode=mnemonic, rd=_parse_reg(ops[0], lineno),
                           rs1=_parse_reg(ops[1], lineno),
                           imm=_parse_int(ops[2], symbols, lineno), source_line=lineno)

    if mnemonic == "li":
        need(2)
        return Instruction(opcode="li", rd=_parse_reg(ops[0], lineno),
                           imm=_parse_int(ops[1], symbols, lineno), source_line=lineno)

    if mnemonic == "mv":
        need(2)
        return Instruction(opcode="mv", rd=_parse_reg(ops[0], lineno),
                           rs1=_parse_reg(ops[1], lineno), source_line=lineno)

    if mnemonic in LOADS or mnemonic in STORES:
        need(2)
        m = _MEM_OPERAND.match(ops[1])
        if not m:
            raise MalformedOperand(lineno, f"expected offset(base), got '{ops[1]}'")
        offset = _parse_int(m.group(1), symbols, lineno) if m.group(1) else 0
        base = _parse_reg(m.group(2), lineno)
        data_reg = _parse_reg(ops[0], lineno)
        if mnemonic in LOADS:
            return Instruction(opcode=mnemonic, rd=data_reg, rs1=base, imm=offset,
                               source_line=lineno)
        return Instruction(opcode=mnemonic, rs2=data_reg, rs1=base, imm=offset,
                           source_line=lineno)

    if mnemonic in BRANCHES:
        need(3)
        target, label = resolve_target(ops[2])
        return Instruction(opcode=mnemonic, rs1=_parse_reg(ops[0], lineno),
                           rs2=_parse_reg(ops[1], lineno), target=target,
                           target_label=label, source_line=lineno)

    if mnemonic == "jal":
        if len(ops) == 1:
            rd = reg_num("ra")
            target, label = resolve_target(ops[0])
        elif len(ops) == 2:
            rd = _parse_reg(ops[0], lineno)
            target, label = resolve_target(ops[1])
        else:
            raise MalformedOperand(lineno, "jal expects 1 or 2 operands")
        return Instruction(opcode="jal", rd=rd, target=target, target_label=label,
                           source_line=lineno)

    if mnemonic == "jalr":
        if len(ops) == 1:
            return Instruction(opcode="jalr", rd=reg_num("ra"),
                               rs1=_parse_reg(ops[0], lineno), imm=0, source_line=lineno)
        need(2)
        m = _MEM_OPERAND.match(ops[1])
        if not m:
            raise MalformedOperand(lineno, f"expected offset(base), got '{ops[1]}'")
        offset = _parse_int(m.group(1), symbols, lineno) if m.group(1) else 0
        return Instruction(opcode="jalr", rd=_parse_reg(ops[0], lineno),
                           rs1=_parse_reg(m.group(2), lineno), imm=offset,
                           source_line=lineno)

    if mnemonic == "csrwi":
        need(2)
        if ops[0].upper() != CSR_NAME:
            raise MalformedOperand(lineno, f"csrwi only supports the {CSR_NAME} CSR")
        value = ops[1].upper()
        if value not in (BURST_ON, BURST_OFF):
            raise MalformedOperand(
                lineno, f"csrwi {CSR_NAME} immediate must be {BURST_ON} or {BURST_OFF}")
        return Instruction(opcode="csrwi", csr_value=value, source_line=lineno)

    raise UnknownMnemonic(lineno, mnemonic)  # pragma: no cover


def _extract_burst_regions(instructions):
    regions = []
    open_index = None
    for index, ins in enumerate(instructions):
        if ins.opcode != "csrwi":
            continue
        if ins.csr_value == BURST_ON:
            if open_index is not None:
                raise UnmatchedBurstMarker(index, line=ins.source_line)
            open_index = index
        else:
            if open_index is None:
                raise UnmatchedBurstMarker(index, line=ins.source_line)
            regions.append((open_index, index))
            open_index = None
    if open_index is not None:
        raise UnmatchedBurstMarker(open_index,
                                   line=instructions[open_index].source_line)
    return tuple(regions)


def format_instruction(ins):
    """Single-statement text form; parse(format(...)) is stable."""
    op = ins.opcode
    if op == "label":
        return f"{ins.label_name}:"
    if op in R_OPS:
        return f"{op} {reg_name(ins.rd)}, {reg_name(ins.rs1)}, {reg_name(ins.rs2)}"
    if op in I_OPS:
        return f"{op} {reg_name(ins.rd)}, {reg_name(ins.rs1)}, {ins.imm}"
    if op == "li":
        return f"li {reg_name(ins.rd)}, {ins.imm}"
    if op == "mv":
        return f"mv {reg_name(ins.rd)}, {reg_name(ins.rs1)}"
    if op in LOADS:
        return f"{op} {reg_name(ins.rd)}, {ins.imm}({reg_name(ins.rs1)})"
    if op in STORES:
        return f"{op} {reg_name(ins.rs2)}, {ins.imm}({reg_name(ins.rs1)})"
    if op in BRANCHES:
        dest = ins.target_label or str(ins.target)
        return f"{op} {reg_name(ins.rs1)}, {reg_name(ins.rs2)}, {dest}"
    if op == "jal":
        dest = ins.target_label or str(ins.target)
        return f"jal {reg_name(ins.rd)}, {dest}"
    if op == "jalr":
        return f"jalr {reg_name(ins.rd)}, {ins.imm}({reg_name(ins.rs1)})"
    if op == "csrwi":
        return f"csrwi {CSR_NAME}, {ins.csr_value}"
    raise ValueError(f"unknown opcode {op}")  # pragma: no cover


def format_program(program):
    lines = []
    for name, value in sorted(program.symbols.items()):
        lines.append(f".symbol {name} = {value:#x}")
    for ins in program.instructions:
        text = format_instruction(ins)
        lines.append(text if text.endswith(":") else "  " + text)
    return "\n".join(lines) + "\n"
