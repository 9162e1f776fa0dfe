"""Static analyzer tests: containment, backward leakage pass, narratives,
and the comparison with the analyzer it replaced (analyzer_oracle.py)."""

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import analyzer_oracle
from rmikit import analyzer
from rmikit.analyzer import (NODE_CAP, PathExplosion, Violation, analyze,
                             check_self_contained, explain)
from rmikit.asm import parse_program, reg_num
from rmikit.contracts import SEQ, SHM, SPEC_DEPTH, STL
from rmikit.machine import ArchState, MemoryLayout
from rmikit.ni import Policy, StateSpace, check_relative_ni
from snippetgen import FLOW_REGS, generate_jalr_batch, random_flow_source

LAYOUT = MemoryLayout()
ALL_SECRET = Policy()
A0, A1, A2 = reg_num("a0"), reg_num("a1"), reg_num("a2")

MEMCPY_LEFT = parse_program("""\
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
""")

MEMCPY_RIGHT = parse_program("""\
add a2, a0, a2
bgeu a0, a2, .end
csrwi MSPEC, BURST_ON
.loop:
lbu a4, 0(a1)
add a1, a1, 1
add a0, a0, 1
sb a4, -1(a0)
bne a0, a2, .loop
csrwi MSPEC, BURST_OFF
.end:
""")


def test_memcpy_left_region_is_self_contained():
    assert check_self_contained(MEMCPY_LEFT, (0, 10)) == []


def test_jal_outside_region_rejected():
    program = parse_program(
        "csrwi MSPEC, BURST_ON\njal ra, out\ncsrwi MSPEC, BURST_OFF\nout:\nli a0, 1")
    violations = check_self_contained(program, program.burst_regions[0])
    assert [v.reason for v in violations] == ["target outside snippet"]


def test_ret_inside_region_rejected():
    program = parse_program("csrwi MSPEC, BURST_ON\nret\ncsrwi MSPEC, BURST_OFF")
    violations = check_self_contained(program, program.burst_regions[0])
    assert [v.reason for v in violations] == ["indirect branch"]


def test_bogus_region_reports_unmatched():
    violations = check_self_contained(MEMCPY_LEFT, (1, 5))
    assert [v.reason for v in violations] == ["unmatched markers"]


def test_memcpy_left_fails_with_expected_leaks():
    report = analyze(MEMCPY_LEFT, ALL_SECRET, LAYOUT)
    assert report.verdict == "fail"
    leaked = {reg for reg, _ in report.leaked_initial_registers}
    assert {A0, A1, A2} <= leaked
    # every leak cites the guard branch as the divergence
    divergence_line = MEMCPY_LEFT.instructions[2].source_line
    assert all(f"line {divergence_line}" in cond
               for _, cond in report.leaked_initial_registers)


def test_memcpy_left_violations_cite_transmitters():
    report = analyze(MEMCPY_LEFT, ALL_SECRET, LAYOUT)
    transmitters = {v.transmitter for v in report.violations
                    if v.kind == "SecretLeak"}
    assert 4 in transmitters        # the byte load leaks src
    assert 8 in transmitters        # the loop-exit compare leaks len


def test_memcpy_right_passes():
    report = analyze(MEMCPY_RIGHT, ALL_SECRET, LAYOUT)
    assert report.verdict == "pass"
    assert report.violations == []
    assert report.leaked_initial_registers == set()


def test_no_transmitters_passes():
    program = parse_program(
        "csrwi MSPEC, BURST_ON\nli t0, 3\nadd t1, a0, t0\ncsrwi MSPEC, BURST_OFF")
    report = analyze(program, ALL_SECRET, LAYOUT)
    assert report.verdict == "pass" and report.leaked_initial_registers == set()


def test_memory_dependent_leak_on_double_dereference():
    program = parse_program(
        "csrwi MSPEC, BURST_ON\nld t1, 0(t0)\nlbu t2, 0(t1)\ncsrwi MSPEC, BURST_OFF")
    report = analyze(program, ALL_SECRET, LAYOUT)
    assert report.verdict == "fail"
    assert any(v.kind == "MemoryDependentLeak" for v in report.violations)


def test_declassification_through_nonspeculative_load():
    # the prefix load of 0(a1) already reveals a1 before the divergence,
    # so the speculative load of the same base is not a new leak
    program = parse_program("""\
csrwi MSPEC, BURST_ON
lbu t0, 0(a1)
beq a0, a0, done
lbu t1, 1(a1)
done:
csrwi MSPEC, BURST_OFF
""")
    report = analyze(program, ALL_SECRET, LAYOUT)
    leaked = {reg for reg, _ in report.leaked_initial_registers}
    assert A1 not in leaked
    # the divergence branch itself runs architecturally, so nothing else
    # is speculative-only here and the region is accepted
    assert report.verdict == "pass"


def test_li_overwrite_clears_dependency():
    program = parse_program("""\
csrwi MSPEC, BURST_ON
li a1, 0x8000
beq a0, a0, done
lbu t1, 0(a1)
done:
csrwi MSPEC, BURST_OFF
""")
    report = analyze(program, ALL_SECRET, LAYOUT)
    leaked = {reg for reg, _ in report.leaked_initial_registers}
    assert A1 not in leaked


def test_public_policy_suppresses_violation():
    program = parse_program("""\
csrwi MSPEC, BURST_ON
beq a0, a0, done
lbu t1, 0(a1)
done:
csrwi MSPEC, BURST_OFF
""")
    secret = analyze(program, ALL_SECRET, LAYOUT)
    public = analyze(program, Policy(public_regs=frozenset({A0, A1})), LAYOUT)
    assert secret.verdict == "fail"
    assert public.verdict == "pass"


def test_architectural_only_paths_do_not_fail():
    # transmitter reachable only non-speculatively: no divergence, no leak
    program = parse_program(
        "csrwi MSPEC, BURST_ON\nlbu t0, 0(a1)\ncsrwi MSPEC, BURST_OFF")
    report = analyze(program, ALL_SECRET, LAYOUT)
    assert report.verdict == "pass"


def _far_transmitter(fillers):
    """A burst region whose always-taken branch is followed by `fillers`
    additions and a load through a1: the load sits in window slot
    fillers + 1."""
    filler = "\n".join(["add t1, t1, t0"] * fillers)
    return parse_program(f"""\
csrwi MSPEC, BURST_ON
beq a0, a0, done
{filler}
lbu t2, 0(a1)
done:
csrwi MSPEC, BURST_OFF
""")


def _leaked(report):
    return {reg for reg, _ in report.leaked_initial_registers}


def test_window_bound_prunes_far_transmitters():
    assert SPEC_DEPTH == 8
    assert A1 in _leaked(analyze(_far_transmitter(7), ALL_SECRET, LAYOUT))
    # nine window slots needed, only eight fit
    assert A1 not in _leaked(analyze(_far_transmitter(8), ALL_SECRET, LAYOUT))


def test_window_bound_matches_relative_ni_oracle():
    """At the window boundary the analyzer and the seq -> stl oracle agree:
    a load in the last slot fails the analysis and leaks, one past it
    passes and does not."""
    space = StateSpace(ArchState(), varying_registers=((A1, (0x8000, 0x8040)),))
    verdicts = []
    for fillers in (SPEC_DEPTH - 1, SPEC_DEPTH):
        program = _far_transmitter(fillers)
        oracle = check_relative_ni(program, (SHM, SEQ), (SHM, STL), space, LAYOUT)
        verdicts.append((analyze(program, ALL_SECRET, LAYOUT).verdict,
                         oracle.holds))
    assert verdicts == [("fail", False), ("pass", True)]


def test_x0_comparison_gets_value_reading():
    program = parse_program("""\
csrwi MSPEC, BURST_ON
beq a2, x0, done
lbu t1, 0(a1)
done:
csrwi MSPEC, BURST_OFF
""")
    report = analyze(program, ALL_SECRET, LAYOUT)
    # branch taken means a2 == 0; speculation runs the load anyway
    conds = {cond for _, cond in report.leaked_initial_registers}
    assert any("a2 == 0" in c for c in conds)


def test_path_explosion_cap():
    # 14 diamonds, each arm adding its own register into t3: every one of
    # the 2^14 paths to the load leaks a different register set, so no
    # two walks merge and the walk passes NODE_CAP nodes
    addends = [f"x{i}" for i in range(1, 32) if i not in (A0, A1, reg_num("t3"))]
    lines = ["csrwi MSPEC, BURST_ON"]
    for i in range(14):
        lines += [f"beq a0, a1, t{i}", f"add t3, t3, {addends[2 * i]}",
                  f"jal x0, j{i}", f"t{i}:", f"add t3, t3, {addends[2 * i + 1]}",
                  f"j{i}:"]
    lines += ["lbu t0, 0(t3)", "csrwi MSPEC, BURST_OFF"]
    program = parse_program("\n".join(lines))
    with pytest.raises(PathExplosion, match=f"exceeded {NODE_CAP} nodes"):
        analyze(program, ALL_SECRET, LAYOUT)


def test_explain_narratives():
    report = analyze(MEMCPY_LEFT, ALL_SECRET, LAYOUT)
    text = explain(report)
    assert "can be leaked" in text and "taken" in text
    ok = analyze(MEMCPY_RIGHT, ALL_SECRET, LAYOUT)
    assert explain(ok) == "no violations\n"
    mdl = analyze(parse_program(
        "csrwi MSPEC, BURST_ON\nld t1, 0(t0)\nlbu t2, 0(t1)\ncsrwi MSPEC, BURST_OFF"),
        ALL_SECRET, LAYOUT)
    assert "depends on another memory value" in explain(mdl)


def test_report_json_is_serializable():
    report = analyze(MEMCPY_LEFT, ALL_SECRET, LAYOUT)
    payload = json.dumps(report.to_json(), sort_keys=True)
    assert '"fail"' in payload


# The jalr repro: a3 = 2 jumps over `li a1, 0x8000`, so the speculative
# load reads the initial a1.
JALR_PREFIX = parse_program("""\
jalr x0, 0(a3)
li a1, 0x8000
csrwi MSPEC, BURST_ON
beq a0, a0, done
lbu t1, 0(a1)
done:
csrwi MSPEC, BURST_OFF
""")
A3 = reg_num("a3")
JALR_SPACE = StateSpace(ArchState(regs={A3: 2}),
                        varying_registers=((A1, (0x8000, 0x8040)),))


def test_jalr_in_prefix_precedes_every_position():
    report = analyze(JALR_PREFIX, Policy(public_regs=frozenset({A3})), LAYOUT)
    assert report.verdict == "fail"
    assert _leaked(report) == {A1}
    assert not check_relative_ni(JALR_PREFIX, (SHM, SEQ), (SHM, STL),
                                 JALR_SPACE, LAYOUT).holds


@pytest.mark.parametrize("target", [100, 5, -3])
def test_target_outside_program_in_region_is_not_self_contained(target):
    program = parse_program(f"csrwi MSPEC, BURST_ON\nbeq a0, a1, {target}\n"
                            f"lbu t0, 0(a1)\ncsrwi MSPEC, BURST_OFF\n")
    report = analyze(program, ALL_SECRET, LAYOUT)
    assert report.violations[0] == Violation(
        "NotSelfContained", reason="target outside snippet", transmitter=1)


@pytest.mark.parametrize("target", [100, -3])
def test_target_outside_program_before_region_precedes_nothing(target):
    program = parse_program(f"beq a0, a1, {target}\ncsrwi MSPEC, BURST_ON\n"
                            f"beq a0, a0, done\nlbu t0, 0(a2)\ndone:\n"
                            f"csrwi MSPEC, BURST_OFF\n")
    report = analyze(program, ALL_SECRET, LAYOUT)
    assert report.leaked_initial_registers == {
        (A2, "branch at line 3 taken")}


# A loop back to instruction 0: after two iterations a1 holds the
# initial a4, which only a walk that unwinds the loop twice finds.
LOOP_TO_ENTRY = parse_program("""\
top:
mv a1, a2
mv a2, a4
addi a3, a3, -1
bne a3, zero, top
csrwi MSPEC, BURST_ON
beq a0, a0, done
lbu t1, 0(a1)
done:
csrwi MSPEC, BURST_OFF
""")
A4 = reg_num("a4")


def test_walk_goes_on_through_an_edge_into_instruction_0():
    public = Policy(public_regs=frozenset({A2, A3}))
    report = analyze(LOOP_TO_ENTRY, public, LAYOUT)
    assert report.leaked_initial_registers == {(A4, "branch at line 7 taken")}
    assert "initial value of a4 can be leaked by the instruction at line 8 " \
        "when branch at line 7 taken" in explain(report)
    space = StateSpace(ArchState(regs={A2: 0x8000, A3: 2}),
                       varying_registers=((A4, (0x8000, 0x8040)),))
    assert not check_relative_ni(LOOP_TO_ENTRY, (SHM, SEQ), (SHM, STL),
                                 space, LAYOUT).holds


X0_SOURCE = parse_program("""\
csrwi MSPEC, BURST_ON
beq a0, a0, done
add t1, zero, a2
lbu t0, 0(t1)
done:
csrwi MSPEC, BURST_OFF
""")


def test_x0_arithmetic_source_is_not_a_leaked_register():
    assert _leaked(analyze(X0_SOURCE, ALL_SECRET, LAYOUT)) == {A2}
    report = analyze(X0_SOURCE, Policy(public_regs=frozenset({A2})), LAYOUT)
    assert report.verdict == "pass" and report.violations == []


def test_report_verdict_and_leaks_follow_violations():
    report = analyze(MEMCPY_LEFT, ALL_SECRET, LAYOUT)
    assert report.leaked_initial_registers == {
        (v.register, v.condition) for v in report.violations
        if v.kind == "SecretLeak"}
    report.violations.clear()
    assert report.verdict == "pass" and report.leaked_initial_registers == set()


def _outcome(module, program, policy):
    try:
        report = module.analyze(program, policy, LAYOUT)
    except module.PathExplosion as exc:
        return "PathExplosion", str(exc)
    return (json.dumps(report.to_json(), sort_keys=True),
            report.leaked_initial_registers, module.explain(report))


@settings(deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_analyzer_matches_oracle_on_jalr_free_programs(rng):
    """On jalr-free programs whose targets lie in the program, the report
    (paths and explored_paths included), its leaks, its narrative and a
    PathExplosion are those of the analyzer it replaced."""
    program = parse_program(random_flow_source(rng))
    policy = Policy(public_regs=frozenset(
        reg_num(r) for r in FLOW_REGS[1:] if rng.random() < 0.3))
    assert (_outcome(analyzer, program, policy)
            == _outcome(analyzer_oracle, program, policy))


def test_no_pass_is_unsound_on_jalr_prefixed_snippets():
    """Each snippet's prefix opens with a jalr that skips some of its
    overwrites: no analyzer pass may meet a violated (shm,seq) -> (shm,stl)
    check, which the analyzer that let jalr fall through met."""
    unsound = {"new": 0, "oracle": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for program, space in generate_jalr_batch(20261019, 100):
            if check_relative_ni(program, (SHM, SEQ), (SHM, STL), space,
                                 LAYOUT).holds:
                continue
            for name, module in (("new", analyzer), ("oracle", analyzer_oracle)):
                if module.analyze(program, ALL_SECRET, LAYOUT).verdict == "pass":
                    unsound[name] += 1
    assert unsound["new"] == 0 and unsound["oracle"] > 0
