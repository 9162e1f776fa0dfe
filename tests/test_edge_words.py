"""Conformance of the committed-path runner against RV64I machine words.

`instructions_edge.txt` holds 31 big-endian RV64I words, one byte per
line (addi, add, sub, and, or, xor, beq, sd, ld); `expected_edge.txt`
holds the register file x0..x31 after running them from the all-zero
state, then the index of the last instruction executed.
"""

from pathlib import Path

from rmikit.asm import Instruction, Program
from rmikit.contracts import simulate_committed
from rmikit.machine import ArchState, MemoryLayout

HERE = Path(__file__).parent
# the memory words use base register x20 = 0, so address 0 must be mapped
LAYOUT = MemoryLayout(private_range=(0, 0x1000))

R_TYPE = {(0, 0): "add", (0, 0x20): "sub", (4, 0): "xor", (6, 0): "or",
          (7, 0): "and"}


def _signed(value, bits):
    return value - (1 << bits) if value >> (bits - 1) else value


def decode(word, index):
    """One RV64I word as an Instruction at program index `index`."""
    opcode, funct3 = word & 0x7F, (word >> 12) & 7
    rd, rs1, rs2 = (word >> 7) & 31, (word >> 15) & 31, (word >> 20) & 31
    if opcode == 0x13 and funct3 == 0:
        return Instruction("addi", rd=rd, rs1=rs1, imm=_signed(word >> 20, 12))
    if opcode == 0x33:
        return Instruction(R_TYPE[funct3, word >> 25], rd=rd, rs1=rs1, rs2=rs2)
    if opcode == 0x03 and funct3 == 3:
        return Instruction("ld", rd=rd, rs1=rs1, imm=_signed(word >> 20, 12))
    if opcode == 0x23 and funct3 == 3:
        imm = ((word >> 25) << 5) | ((word >> 7) & 31)
        return Instruction("sd", rs1=rs1, rs2=rs2, imm=_signed(imm, 12))
    if opcode == 0x63 and funct3 == 0:
        imm = (((word >> 31) & 1) << 12 | ((word >> 7) & 1) << 11
               | ((word >> 25) & 0x3F) << 5 | ((word >> 8) & 0xF) << 1)
        return Instruction("beq", rs1=rs1, rs2=rs2,
                           target=index + _signed(imm, 13) // 4)
    raise ValueError(f"word {index} ({word:#010x}) is outside the decoder")


def test_edge_words_match_expected_registers():
    data = bytes(int(line, 16) for line in
                 (HERE / "instructions_edge.txt").read_text().split())
    words = [int.from_bytes(data[i:i + 4], "big") for i in range(0, len(data), 4)]
    program = Program(tuple(decode(w, i) for i, w in enumerate(words)))
    *registers, last = (HERE / "expected_edge.txt").read_text().split()

    run = simulate_committed(program, ArchState(), LAYOUT)

    assert len(words) == 31 and run.final_state.pc == len(program)
    assert [run.final_state.reg(n) for n in range(32)] == [int(r, 16) for r in registers]
    # words 21 and 29 are branched over, so 29 of the 31 retire
    assert len(run.steps) == 29
    # the file's last line is the index of the last instruction executed
    last_index, _, _ = run.steps[-1]
    assert last_index == int(last) == 30
