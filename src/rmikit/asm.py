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
from functools import cached_property

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

# The dialect's one operand-syntax table: for each mnemonic, what each
# operand fills, in operand order. "rd", "rs1", "rs2" and "imm" fill that
# Instruction field; "mem" is `offset(base)` and fills imm and rs1;
# "target" is a label or a numeric instruction index; "csr" is the CSR
# name and "csr_value" the BURST_ON/BURST_OFF value of csrwi.
SYNTAX = {
    **dict.fromkeys(R_OPS, ("rd", "rs1", "rs2")),
    **dict.fromkeys(I_OPS, ("rd", "rs1", "imm")),
    **dict.fromkeys(LOADS, ("rd", "mem")),
    **dict.fromkeys(STORES, ("rs2", "mem")),
    **dict.fromkeys(BRANCHES, ("rs1", "rs2", "target")),
    "li": ("rd", "imm"),
    "mv": ("rd", "rs1"),
    "jal": ("rd", "target"),
    "jalr": ("rd", "mem"),
    "csrwi": ("csr", "csr_value"),
}
_REG_SLOTS = frozenset({"rd", "rs1", "rs2"})
_RA = _ABI_ALIASES["ra"]

# The one-operand link forms, `jal label` and `jalr rs`, link through ra:
# (slots, the fields they leave fixed).
_LINK_FORMS = {
    "jal": (("target",), {"rd": _RA}),
    "jalr": (("rs1",), {"rd": _RA, "imm": 0}),
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

    @cached_property
    def burst_indices(self):
        """The instruction indices inside some static burst region."""
        return frozenset(index for on, off in self.burst_regions
                         for index in range(on, off + 1))


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

    instructions = [_parse_statement(lineno, stmt, labels, symbols)
                    for lineno, stmt in statements]

    burst_regions = _extract_burst_regions(instructions)
    return Program(
        instructions=tuple(instructions),
        labels=labels,
        burst_regions=burst_regions,
        symbols=symbols,
    )


def _parse_statement(lineno, stmt, labels, symbols):
    """One statement as an Instruction. Operands are read in order, so
    the first faulty operand is the one reported."""
    if stmt.endswith(":"):
        # "label" is an internal marker opcode: a label-definition line
        # occupies one instruction slot so that instruction indices line up
        # with source line numbering; it executes as a fall-through no-op.
        return Instruction(opcode="label", label_name=stmt[:-1], source_line=lineno)

    parts = stmt.split(None, 1)
    mnemonic = parts[0].lower()
    ops = [o.strip() for o in parts[1].split(",")] if len(parts) > 1 else []

    if mnemonic == "ret":
        if ops:
            raise MalformedOperand(lineno, "ret takes no operands")
        return Instruction(opcode="jalr", rd=0, rs1=_RA, imm=0, source_line=lineno)
    if mnemonic not in SYNTAX:
        raise UnknownMnemonic(lineno, mnemonic)

    fields = {"opcode": mnemonic, "source_line": lineno}
    slots = SYNTAX[mnemonic]
    if len(ops) == 1 and mnemonic in _LINK_FORMS:
        slots, linked = _LINK_FORMS[mnemonic]
        fields.update(linked)
    elif len(ops) != len(slots):
        expected = "1 or 2" if mnemonic in _LINK_FORMS else len(slots)
        raise MalformedOperand(
            lineno, f"{mnemonic} expects {expected} operands, got {len(ops)}")

    for slot, text in zip(slots, ops):
        if slot in _REG_SLOTS:
            try:
                fields[slot] = _parse_reg(text, lineno)
            except MalformedOperand:
                # GNU as accepts `add rd, rs1, imm` as shorthand for addi
                if (mnemonic, slot) != ("add", "rs2"):
                    raise
                fields.update(opcode="addi", imm=_parse_int(text, symbols, lineno))
        elif slot == "imm":
            fields["imm"] = _parse_int(text, symbols, lineno)
        elif slot == "mem":
            m = _MEM_OPERAND.match(text)
            if not m:
                raise MalformedOperand(lineno, f"expected offset(base), got '{text}'")
            fields["imm"] = _parse_int(m.group(1), symbols, lineno) if m.group(1) else 0
            fields["rs1"] = _parse_reg(m.group(2), lineno)
        elif slot == "target" and text in labels:
            fields.update(target=labels[text], target_label=text)
        elif slot == "target":
            try:
                fields["target"] = int(text, 0)
            except ValueError:
                raise UnresolvedLabel(text, line=lineno) from None
        elif slot == "csr":
            if text.upper() != CSR_NAME:
                raise MalformedOperand(lineno, f"csrwi only supports the {CSR_NAME} CSR")
        else:
            value = text.upper()
            if value not in (BURST_ON, BURST_OFF):
                raise MalformedOperand(
                    lineno, f"csrwi {CSR_NAME} immediate must be {BURST_ON} or {BURST_OFF}")
            fields["csr_value"] = value
    return Instruction(**fields)


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
    if ins.opcode == "label":
        return f"{ins.label_name}:"
    return f"{ins.opcode} " + ", ".join(_slot_text(ins, slot)
                                        for slot in SYNTAX[ins.opcode])


def _slot_text(ins, slot):
    if slot == "mem":
        return f"{ins.imm}({reg_name(ins.rs1)})"
    if slot == "target":
        return ins.target_label or str(ins.target)
    if slot == "csr":
        return CSR_NAME
    value = getattr(ins, slot)
    return reg_name(value) if slot in _REG_SLOTS else str(value)


def format_program(program):
    lines = []
    for name, value in sorted(program.symbols.items()):
        lines.append(f".symbol {name} = {value:#x}")
    for ins in program.instructions:
        text = format_instruction(ins)
        lines.append(text if text.endswith(":") else "  " + text)
    return "\n".join(lines) + "\n"
