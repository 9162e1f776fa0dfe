"""Parser and pretty-printer tests."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit.asm import (BURST_OFF, BURST_ON, SYNTAX, AsmError, Instruction,
                        MalformedOperand, Program, UnknownMnemonic,
                        UnmatchedBurstMarker, UnresolvedLabel,
                        format_instruction, format_program, parse_program,
                        reg_name, reg_num)

MEMCPY_LEFT = """\
csrwi MSPEC, BURST_ON
add a2, a0, a2
bgeu a0, a2, .end
.loop:
lbu a4, 0(a1)
add a1, a1, 1
add a0, a0, 1
sb a4, -1(a0)
bne a0, a2, .loop
.end:
csrwi MSPEC, BURST_OFF
"""


def test_memcpy_left_shape():
    program = parse_program(MEMCPY_LEFT)
    assert len(program) == 11
    assert program.labels == {".loop": 3, ".end": 9}
    assert program.burst_regions == ((0, 10),)


def test_empty_program():
    program = parse_program("")
    assert len(program) == 0
    assert program.labels == {}
    assert program.burst_regions == ()


def test_unknown_mnemonic():
    with pytest.raises(UnknownMnemonic) as err:
        parse_program("vadd.vv v0, v1, v2")
    assert err.value.line == 1


def test_add_immediate_shorthand():
    program = parse_program("add a1, a1, 1")
    ins = program.instructions[0]
    assert ins.opcode == "addi" and ins.imm == 1


def test_ret_canonicalized():
    ins = parse_program("ret").instructions[0]
    assert ins.opcode == "jalr"
    assert ins.rd == 0 and ins.rs1 == reg_num("ra") and ins.imm == 0


def test_symbol_extension():
    program = parse_program(".symbol buf = 0x8000\nli t0, buf\n")
    assert program.symbols == {"buf": 0x8000}
    assert program.instructions[0].imm == 0x8000


def test_unresolved_label():
    with pytest.raises(UnresolvedLabel):
        parse_program("jal ra, nowhere")


def test_unmatched_burst_marker():
    with pytest.raises(UnmatchedBurstMarker):
        parse_program("csrwi MSPEC, BURST_ON")
    with pytest.raises(UnmatchedBurstMarker):
        parse_program("csrwi MSPEC, BURST_OFF")


def test_csrwi_rejects_other_csrs():
    with pytest.raises(MalformedOperand):
        parse_program("csrwi MCAUSE, BURST_ON")
    with pytest.raises(MalformedOperand):
        parse_program("csrwi MSPEC, 7")


def test_directive_skipped_with_warning():
    with pytest.warns(UserWarning):
        program = parse_program(".text\nli a0, 1\n")
    assert len(program) == 1


def test_comments_and_blank_lines():
    program = parse_program("# header\n\nli a0, 1  # trailing\n")
    assert len(program) == 1


def test_branch_targets_in_range():
    program = parse_program(MEMCPY_LEFT)
    for ins in program.instructions:
        if ins.target is not None:
            assert 0 <= ins.target < len(program)


def test_abi_alias_round_trip():
    for name in ["zero", "ra", "sp", "a0", "a7", "t0", "t6", "s0", "s11"]:
        assert reg_name(reg_num(name)) == name
    assert reg_num("x13") == reg_num("a3")


def test_roundtrip_fixpoint_on_corpus_style_source():
    program = parse_program(MEMCPY_LEFT)
    printed = format_program(program)
    again = parse_program(printed)
    assert format_program(again) == printed
    assert [i.opcode for i in again.instructions] == \
        [i.opcode for i in program.instructions]


_SNIPPET_LINES = st.lists(
    st.sampled_from([
        "li a0, 7",
        "add a1, a0, a0",
        "addi a2, a1, -3",
        "lbu a4, 0(a1)",
        "sb a4, 4(a2)",
        "mv t0, a0",
        "beq a0, a1, 0",
        "jal x0, 0",
        "x:",
        "jalr ra, 8(t0)",
        "slli a3, a0, 2",
    ]),
    min_size=0, max_size=8)


@settings(max_examples=200)
@given(_SNIPPET_LINES)
def test_roundtrip_fixpoint_property(lines):
    source = "\n".join(dict.fromkeys(lines))  # dedupe to keep labels unique
    program = parse_program(source)
    printed = format_program(program)
    assert format_program(parse_program(printed)) == printed


# The fields each mnemonic's Instruction carries (csrwi carries csr_value).
_FIELDS = {
    ("add", "sub", "and", "or", "xor"): ("rd", "rs1", "rs2"),
    ("addi", "slli", "srli"): ("rd", "rs1", "imm"),
    ("lw", "lbu", "ld", "jalr"): ("rd", "rs1", "imm"),
    ("sw", "sb", "sd"): ("rs1", "rs2", "imm"),
    ("beq", "bne", "blt", "bgeu"): ("rs1", "rs2", "target"),
    ("jal",): ("rd", "target"),
    ("li",): ("rd", "imm"),
    ("mv",): ("rd", "rs1"),
}
_MNEMONIC_FIELDS = {m: fields for ms, fields in _FIELDS.items() for m in ms}
_LABELS = {"L0": 0, ".loop": 1, "end": 2}
_PRELUDE = "".join(f"{name}:\n" for name in _LABELS)
_REGS = st.integers(0, 31)
_IMMS = st.integers(-2**63, 2**64)
_TARGETS = st.sampled_from(sorted(_LABELS)) | st.integers(0, 40)
_FORMS = sorted(SYNTAX) + ["ret", "jal label", "jalr rs", "add imm"]


def _target(name):
    if isinstance(name, str):
        return {"target": _LABELS[name], "target_label": name}
    return {"target": name}


@st.composite
def _statement(draw, form):
    """[(source text, the Instruction it parses to)] for one form: a
    SYNTAX row, printed by format_instruction, or a shorthand the printer
    never emits. csrwi comes as a matched BURST_ON/BURST_OFF pair."""
    if form == "csrwi":
        return [(format_instruction(ins), ins)
                for ins in (Instruction("csrwi", csr_value=BURST_ON),
                            Instruction("csrwi", csr_value=BURST_OFF))]
    if form == "ret":
        return [("ret", Instruction("jalr", rd=0, rs1=1, imm=0))]
    if form == "jal label":
        target = draw(_TARGETS)
        return [(f"jal {target}", Instruction("jal", rd=1, **_target(target)))]
    if form == "jalr rs":
        rs = draw(_REGS)
        return [(f"jalr x{rs}", Instruction("jalr", rd=1, rs1=rs, imm=0))]
    if form == "add imm":
        rd, rs1, imm = draw(_REGS), draw(_REGS), draw(_IMMS)
        return [(f"add {reg_name(rd)}, {reg_name(rs1)}, {imm}",
                 Instruction("addi", rd=rd, rs1=rs1, imm=imm))]
    fields = {}
    for name in _MNEMONIC_FIELDS[form]:
        if name == "target":
            fields.update(_target(draw(_TARGETS)))
        else:
            fields[name] = draw(_IMMS if name == "imm" else _REGS)
    ins = Instruction(form, **fields)
    return [(format_instruction(ins), ins)]


def test_round_trip_forms_cover_every_syntax_row():
    assert set(_MNEMONIC_FIELDS) | {"csrwi"} == set(SYNTAX)


@settings(max_examples=150)
@given(st.tuples(*map(_statement, _FORMS)))
def test_every_statement_form_round_trips(statements):
    """parse(text) is the drawn Instruction, and so is
    parse(format(parse(text))), in every field but source_line."""
    pairs = [pair for statement in statements for pair in statement]

    def parse(lines):
        program = parse_program(_PRELUDE + "\n".join(lines))
        return [dataclasses.replace(ins, source_line=0)
                for ins in program.instructions[len(_LABELS):]]

    expected = [ins for _, ins in pairs]
    parsed = parse(text for text, _ in pairs)
    assert parsed == expected
    assert parse(map(format_instruction, parsed)) == expected


@pytest.mark.parametrize("statement, error, fault", [
    ("beq q1, a0, nowhere", MalformedOperand, "'q1'"),
    ("beq a0, a1, nowhere", UnresolvedLabel, "'nowhere'"),
    ("sw q1, 4(q2)", MalformedOperand, "'q1'"),
    ("lw a0, x(q2)", MalformedOperand, "'x'"),
    ("jalr q1, x(q2)", MalformedOperand, "'q1'"),
    ("add q1, a0, q2", MalformedOperand, "'q1'"),
    ("csrwi MCAUSE, 7", MalformedOperand, "CSR")])
def test_first_faulty_operand_is_reported(statement, error, fault):
    """Operands are read in order, so with several faulty operands the
    first is the one reported."""
    with pytest.raises(error) as err:
        parse_program(statement)
    assert fault in str(err.value)


@settings(max_examples=300)
@given(st.binary(max_size=200))
def test_never_panics_on_arbitrary_bytes(data):
    try:
        result = parse_program(data)
    except AsmError:
        return
    assert isinstance(result, Program)


@settings(max_examples=200)
@given(st.text(max_size=200))
def test_never_panics_on_arbitrary_text(text):
    try:
        result = parse_program(text)
    except AsmError:
        return
    assert isinstance(result, Program)
