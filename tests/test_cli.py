"""Command-line interface tests: exit codes, JSON output, determinism."""

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmikit.asm import AsmError, parse_program, reg_num
from rmikit.cli import main

CORPUS = "src/rmikit/corpus_data"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_sta_fail_exit_and_narrative(capsys):
    code, out = run_cli(["sta", f"{CORPUS}/memcpy_left.s"], capsys)
    assert code == 2
    assert "can be leaked" in out


def test_sta_pass_exit(capsys):
    code, out = run_cli(["sta", f"{CORPUS}/memcpy_right.s"], capsys)
    assert code == 0
    assert "no violations" in out


def test_sta_json_report(capsys):
    code, out = run_cli(["sta", f"{CORPUS}/memcpy_left.s", "--json"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    leaked = {reg for reg, _ in payload["leaked_initial_registers"]}
    assert {"a0", "a1", "a2"} <= leaked


def test_trace_command(capsys, tmp_path):
    snippet = tmp_path / "s.s"
    snippet.write_text("li a1, 0x8000\nlbu a4, 0(a1)\n")
    code, out = run_cli(["trace", str(snippet), "--contract", "shm:seq",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out) == [[["addr", 0x8000, "shared"]]]


def test_trace_state_at_program_end(capsys, tmp_path):
    """A state whose pc is len(program) gives the one empty trace; a pc
    past it faults."""
    snippet = tmp_path / "two.s"
    snippet.write_text("li a0, 1\nli a0, 2\n")
    state = tmp_path / "state.json"
    argv = ["trace", str(snippet), "--state", str(state)]
    state.write_text(json.dumps({"pc": 2}))
    assert run_cli(argv, capsys) == (0, "(empty)\n")
    state.write_text(json.dumps({"pc": 3}))
    assert run_cli(argv, capsys) == (4, "")


def test_ni_command_violated_exit(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "base_state": {"pc": 0, "regs": {"a0": 8}},
        "varying_registers": [["a0", [2, 8]]],
        "varying_cells": [["0x1008", [0, 1]], ["0x1002", [0, 1]]],
    }))
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({
        "public_regs": ["a0"], "public_private_cells": ["0x1002"]}))
    args = ["ni", f"{CORPUS}/spectre_v1.s", "--space", str(space),
            "--policy", str(policy)]
    code, out = run_cli(args + ["--direct", "shm:spec"], capsys)
    assert code == 1 and "violated" in out
    code, out = run_cli(args + ["--direct", "shm:seq"], capsys)
    assert code == 0 and "holds" in out


def test_ni_command_past_the_state_cap(capsys, tmp_path):
    """spectre_v1 over 2^20 states, a0 over 16 values and a full byte at
    0x1008 and at 0x1002, is decided: it holds under (shm, seq)."""
    space, policy, layout = (tmp_path / name for name in
                             ("space.json", "policy.json", "layout.json"))
    space.write_text(json.dumps({
        "base_state": {"pc": 0, "regs": {"a0": 8}},
        "varying_registers": [["a0", list(range(16))]],
        "varying_cells": [["0x1008", list(range(256))],
                          ["0x1002", list(range(256))]]}))
    policy.write_text(json.dumps({
        "public_regs": ["a0"], "public_private_cells": ["0x1002"]}))
    layout.write_text(json.dumps({"private": ["0x1000", "0x2000"],
                                  "shared": ["0x8000", "0xC000"]}))
    code, out = run_cli(["ni", f"{CORPUS}/spectre_v1.s", "--space", str(space),
                         "--policy", str(policy), "--layout", str(layout),
                         "--direct", "shm:seq", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"verdict": "holds",
                               "pairs_checked": (1 << 20) - 16 * 256}


def test_ni_witness_stays_in_the_space(capsys, tmp_path):
    """The witness shrink resets a slot to its base value only when that
    value is in the slot's domain. a2's base, 0, is not: resetting it
    would load from the unmapped 0x0, where every state of the space
    loads from shared memory."""
    snippet, space, policy = (tmp_path / name for name in
                              ("w.s", "space.json", "policy.json"))
    snippet.write_text("lbu t1, 0(a2)\nli a1, 0x8000\nadd a1, a1, a0\n"
                       "lbu t0, 0(a1)\n")
    space.write_text(json.dumps({
        "base_state": {"pc": 0, "regs": {}},
        "varying_registers": [["a0", [2, 8]], ["a2", [32768, 32769]]]}))
    policy.write_text(json.dumps({"public_regs": ["a2"]}))
    code, out = run_cli(["ni", str(snippet), "--space", str(space),
                         "--policy", str(policy), "--direct", "shm:spec",
                         "--json"], capsys)
    assert code == 1
    witness = json.loads(out)["witness"]
    for state in witness.values():
        assert state["regs"]["a0"] in (2, 8)
        assert state["regs"]["a2"] in (32768, 32769)


def test_zero_x0_in_documents_is_dropped(capsys, tmp_path):
    """An x0 of 0 in a --state or a base_state is accepted and changes
    nothing; a nonzero one is a usage error (see the malformed inputs)."""
    snippet = tmp_path / "s.s"
    snippet.write_text("li a1, 0x8000\nlbu a2, 0(a1)\n")
    outputs = []
    for regs in ({"a0": 8}, {"a0": 8, "zero": 0}):
        state, space = tmp_path / "state.json", tmp_path / "space.json"
        state.write_text(json.dumps({"regs": regs}))
        space.write_text(json.dumps({"base_state": {"regs": regs},
                                     "varying_registers": [["a2", [0, 1]]]}))
        outputs.append([
            run_cli(["trace", str(snippet), "--state", str(state), "--json"],
                    capsys),
            run_cli(["ni", str(snippet), "--space", str(space),
                     "--direct", "shm:seq", "--json"], capsys)])
    assert outputs[0] == outputs[1]
    assert [code for code, _ in outputs[1]] == [0, 0]


def test_hw_check_command(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "base_state": {"pc": 0, "regs": {"a0": 8}},
        "varying_registers": [["a0", [2, 8]]],
        "varying_cells": [["0x1008", [0, 1]]],
    }))
    code, out = run_cli(["hw-check", f"{CORPUS}/spectre_v1.s", "--space",
                         str(space), "--mode", "safe",
                         "--contract", "shm:seq"], capsys)
    assert code == 0 and "holds" in out
    code, out = run_cli(["hw-check", f"{CORPUS}/spectre_v1.s", "--space",
                         str(space), "--mode", "insecure",
                         "--contract", "shm:seq"], capsys)
    assert code == 1 and "violated" in out


def test_cache_flush_costs(capsys):
    code, out = run_cli(["cache", "--show-flush-cost", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["flush_cost"]["1"] == 4096    # 256 sets x 16 ways
    assert payload["flush_cost"]["5"] == 16      # one set x 16 ways


def test_cache_rejects_overlap(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"0": {"base": 0, "size": 16},
                               "1": {"base": 12, "size": 8}}))
    code, _ = run_cli(["cache", "--table", str(bad)], capsys)
    assert code == 1
    code, out = run_cli(["cache", "--table", str(bad), "--json"], capsys)
    assert code == 1 and "share sets" in json.loads(out)["error"]


def test_cache_rejects_region_named_twice(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"1": {"base": 16, "size": 8},
                                 "01": {"base": 100, "size": 4},
                                 "0": {"base": 0, "size": 16}}))
    code, _ = run_cli(["cache", "--table", str(table)], capsys)
    assert code == 64
    code, out = run_cli(["cache", "--table", str(table), "--json"], capsys)
    assert code == 64
    assert json.loads(out)["error"] == \
        f"--table {table}: region 1 is listed twice"


JALR_PREFIX = """\
jalr x0, 0(a3)
li a1, 0x8000
csrwi MSPEC, BURST_ON
beq a0, a0, done
lbu t1, 0(a1)
done:
csrwi MSPEC, BURST_OFF
"""


def test_jalr_in_prefix_fails_sta_and_burst_sta_holds(capsys, tmp_path):
    """a3 = 2 jumps over the li: sta reports the leak of a1, so burst_sta
    refuses the program and holds."""
    paths = {"s": JALR_PREFIX,
             "policy.json": json.dumps({"public_regs": ["a3"]}),
             "space.json": json.dumps({
                 "base_state": {"regs": {"a3": 2}},
                 "varying_registers": [["a1", [32768, 32832]]]})}
    for name, text in paths.items():
        (tmp_path / name).write_text(text)
    snippet, policy = str(tmp_path / "s"), str(tmp_path / "policy.json")
    code, out = run_cli(["sta", snippet, "--policy", policy, "--json"], capsys)
    assert code == 2
    assert json.loads(out)["leaked_initial_registers"] == [
        ["a1", "branch at line 4 taken"]]
    code, out = run_cli(["hw-check", snippet, "--mode", "burst_sta",
                         "--policy", policy, "--space",
                         str(tmp_path / "space.json")], capsys)
    assert code == 0 and out == "holds\n"


LOOP_TO_ENTRY = """\
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
"""


def test_loop_to_entry_fails_sta_and_burst_sta_holds(capsys, tmp_path):
    """a3 = 2 runs the loop twice, so a1 holds the initial a4: sta unwinds
    the loop through its edge into instruction 0 and reports a4, so
    burst_sta refuses the program and holds."""
    paths = {"s": LOOP_TO_ENTRY,
             "policy.json": json.dumps({"public_regs": ["a2", "a3"]}),
             "space.json": json.dumps({
                 "base_state": {"pc": 0, "regs": {"a2": 32768, "a3": 2}},
                 "varying_registers": [["a4", [32768, 32832]]]})}
    for name, text in paths.items():
        (tmp_path / name).write_text(text)
    snippet, policy = str(tmp_path / "s"), str(tmp_path / "policy.json")
    code, out = run_cli(["sta", snippet, "--policy", policy], capsys)
    assert code == 2
    assert out.startswith("initial value of a4 can be leaked by the "
                          "instruction at line 8 when branch at line 7 taken\n")
    code, out = run_cli(["hw-check", snippet, "--mode", "burst_sta",
                         "--contract", "shm:seq", "--policy", policy,
                         "--space", str(tmp_path / "space.json")], capsys)
    assert code == 0 and out == "holds\n"


def test_sta_x0_source_is_not_reported(capsys, tmp_path):
    snippet = tmp_path / "s.s"
    snippet.write_text("csrwi MSPEC, BURST_ON\nbeq a0, a0, done\n"
                       "add t1, zero, a2\nlbu t0, 0(t1)\ndone:\n"
                       "csrwi MSPEC, BURST_OFF\n")
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"public_regs": ["a2"]}))
    code, out = run_cli(["sta", str(snippet), "--policy", str(policy),
                         "--json"], capsys)
    assert code == 0 and json.loads(out)["violations"] == []
    code, out = run_cli(["sta", str(snippet), "--json"], capsys)
    assert code == 2
    assert json.loads(out)["leaked_initial_registers"] == [
        ["a2", "branch at line 2 taken"]]


@pytest.mark.parametrize("target", ["100", "-3"])
def test_sta_branch_outside_program(target, capsys, tmp_path):
    """In a region the branch leaves it (exit 2); before the region it
    precedes nothing and the analysis runs as without it."""
    snippet = tmp_path / "s.s"
    region = "csrwi MSPEC, BURST_ON\nlbu t0, 0(a1)\ncsrwi MSPEC, BURST_OFF\n"
    snippet.write_text(region.replace(
        "\n", f"\nbeq a0, a1, {target}\n", 1))
    code, out = run_cli(["sta", str(snippet)], capsys)
    assert code == 2
    assert "not self-contained (target outside snippet) at instruction 1" in out
    snippet.write_text(f"beq a0, a1, {target}\n" + region)
    code, out = run_cli(["sta", str(snippet)], capsys)
    assert code == 0 and out == "no violations\n"


def test_burst_sta_from_another_start_pc_is_usage_error(capsys, tmp_path):
    """The analysis starts at instruction 0; a start pc of 1 skips the li
    it relies on, so burst_sta refuses it, while burst takes it."""
    snippet = tmp_path / "s.s"
    snippet.write_text(JALR_PREFIX.split("\n", 1)[1])
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "base_state": {"pc": 1},
        "varying_registers": [["a1", [32768, 32832]]]}))
    argv = ["hw-check", str(snippet), "--space", str(space), "--mode"]
    assert run_cli(["sta", str(snippet)], capsys)[0] == 0
    code, out = run_cli(argv + ["burst_sta", "--json"], capsys)
    assert code == 64
    assert "start at instruction 0" in json.loads(out)["error"]
    assert run_cli(argv + ["burst"], capsys) == (1, "violated\n")


def test_corpus_verify_ok(capsys):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out = run_cli(["corpus-verify"], capsys)
    assert code == 0
    assert "all verdicts reproduced" in out


def test_usage_error_exit_64(capsys):
    assert main(["bogus-command"]) == 64
    assert main([]) == 64
    assert main(["ni", "x.s"]) == 64    # missing required --space/--direct


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.s"
    bad.write_text("vadd.vv v0, v1, v2\n")
    code, _ = run_cli(["sta", str(bad)], capsys)
    assert code == 1


def test_corpus_verify_json_deterministic():
    runs = [
        subprocess.run([sys.executable, "-m", "rmikit.cli", "corpus-verify",
                        "--json"],
                       capture_output=True, text=True, check=False)
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["ok"] is True


FAULTING = "li a1, 0x4000\nlbu a2, 0(a1)\n"
TWENTY_TAKEN_BRANCHES = "\n".join(
    f"beq a0, a0, l{i}\nli a1, {i}\nl{i}:" for i in range(20)) + "\n"
NON_HALTING = ("li t0, 20000\nloop:\naddi t0, t0, -1\nbne t0, x0, loop\n"
               "li a1, 0x8000\nadd a1, a1, a2\nlbu a3, 0(a1)\n")


# 14 diamonds whose 2^14 paths each add a different register set into t3
# (tests/test_analyzer.py::test_path_explosion_cap): the analysis passes
# NODE_CAP nodes
_ADDENDS = [f"x{i}" for i in range(1, 32)
            if i not in {reg_num(r) for r in ("a0", "a1", "t3")}]
DIAMONDS = "\n".join(
    ["csrwi MSPEC, BURST_ON"]
    + [f"beq a0, a1, t{i}\nadd t3, t3, {_ADDENDS[2 * i]}\njal x0, j{i}\n"
       f"t{i}:\nadd t3, t3, {_ADDENDS[2 * i + 1]}\nj{i}:" for i in range(14)]
    + ["lbu t0, 0(t3)", "csrwi MSPEC, BURST_OFF"]) + "\n"

LIBRARY_ERRORS = {
    f"{command[0]}-{name}": (source, code, command)
    for command in (["trace", "--contract", "shm:stl"],
                    ["ni", "--direct", "shm:stl"],
                    ["hw-check", "--mode", "safe", "--contract", "shm:stl"])
    for name, source, code in (("fault", FAULTING, 4),
                               ("trace-cap", TWENTY_TAKEN_BRANCHES, 3),
                               ("fuel", NON_HALTING, 3))}
LIBRARY_ERRORS["sta-path-explosion"] = (DIAMONDS, 3, ["sta"])
LIBRARY_ERRORS["hw-check-burst-sta-path-explosion"] = (
    DIAMONDS, 3, ["hw-check", "--mode", "burst_sta"])


@pytest.mark.parametrize("source, code, command", list(LIBRARY_ERRORS.values()),
                         ids=list(LIBRARY_ERRORS))
def test_library_errors_exit_without_traceback(source, code, command, capsys,
                                              tmp_path):
    snippet = tmp_path / "s.s"
    snippet.write_text(source)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"base_state": {"pc": 0}}))
    argv = [command[0], str(snippet), *command[1:]]
    if command[0] in ("ni", "hw-check"):
        argv += ["--space", str(space)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert main(argv + ["--json"]) == code
    assert set(json.loads(capsys.readouterr().out)) == {"error"}


@pytest.mark.parametrize("missing", ["snippet", "space", "table", "policy",
                                     "layout", "state"])
def test_missing_file_is_usage_error(missing, capsys, tmp_path):
    """A missing input file exits 64, not 1, which `ni` uses for
    "violated"; a missing input document's error names its option."""
    snippet = tmp_path / "s.s"
    snippet.write_text("li a1, 0x8000\nlbu a2, 0(a1)\n")
    space = tmp_path / "space.json"
    space.write_text(json.dumps(GOOD_SPACE))
    paths = {"snippet": snippet, "space": space, missing: tmp_path / "gone"}
    if missing == "table":
        argv = ["cache", "--table", str(paths["table"])]
    elif missing == "state":
        argv = ["trace", str(snippet), "--state", str(paths["state"])]
    else:
        argv = ["ni", str(paths["snippet"]), "--space", str(paths["space"]),
                "--direct", "shm:seq"]
        if missing in ("policy", "layout"):
            argv += [f"--{missing}", str(paths[missing])]
    named = "gone" if missing == "snippet" else f"--{missing} {paths[missing]}"
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert not captured.out
    assert main(argv + ["--json"]) == 64
    assert named in json.loads(capsys.readouterr().out)["error"]


def test_closed_stdout_exits_without_traceback():
    """A broken pipe is an OSError but no usage error, and under --json
    its error cannot be printed on stdout."""
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with contextlib.redirect_stdout(ClosedPipe()):
        assert main(["cache", "--json"]) == 1


@pytest.mark.parametrize("space, message", [
    ({"base_state": {"pc": 0}, "varying_cells": [["0x4000", [0, 1]]]},
     "varying cell 0x4000 is in no mapped range"),
    ({"varying_registers": [["a0", [0, 1]]]}, "'base_state'"),
    ({"base_state": {"pc": 0}, "varying_registers": [["a2", []]]},
     "empty value domain"),
    ({"base_state": {"pc": 0},
      "varying_registers": [["a2", [5, 6]], ["a2", [1]]]},
     "listed twice"),
    ({"base_state": {"pc": 0},
      "varying_cells": [["0x8000", [0, 1]], ["0x8000", [2]]]},
     "listed twice"),
    ({"base_state": {"pc": 0}, "varying_registers": [["zero", [0, 1, 2]]]},
     "x0 is hard-wired to 0"),
    ({"base_state": {"pc": 0}, "varying_cells": [["0x8000", [0, 256]]]},
     "lists one value twice")],
    ids=["unmapped-cell", "no-base-state", "empty-domain", "register-twice",
         "cell-twice", "x0", "value-collides-after-masking"])
def test_unusable_space_is_usage_error(space, message, capsys, tmp_path):
    snippet = tmp_path / "s.s"
    snippet.write_text("li a1, 0x8000\nlbu a2, 0(a1)\n")
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(space))
    argv = ["ni", str(snippet), "--space", str(space_file), "--direct", "shm:seq"]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert not captured.out
    assert main(argv + ["--json"]) == 64
    assert message in json.loads(capsys.readouterr().out)["error"]


GOOD_SPACE = {"base_state": {"pc": 0}, "varying_registers": [["a2", [0, 1]]]}


@pytest.mark.parametrize("option, document, message", [
    ("space", {"base_state": {"regs": {"q9": 1}}}, "'q9'"),
    ("space", {"base_state": {}, "varying_registers": [["q9", [0, 1]]]},
     "'q9'"),
    ("space", {"base_state": {}, "varying_registers": [["a0", ["x"]]]},
     "'x'"),
    ("policy", {"public_regs": ["q9"]}, "'q9'"),
    ("state", {"regs": {"q9": 1}}, "'q9'"),
    ("state", {"pc": [1]}, "list"),
    ("layout", {"private": ["0x1000", "0x9000"],
                "shared": ["0x8000", "0x9000"]}, "overlap"),
    ("layout", {"private": ["0x2000", "0x1000"],
                "shared": ["0x8000", "0x9000"]}, "non-empty"),
    ("layout", {"private": "19", "shared": ["0x8000", "0x9000"]},
     "two-item list"),
    ("layout", {"private": ["0x1000", "0x2000", "0x3000"],
                "shared": ["0x8000", "0x9000"]}, "two-item list"),
    ("policy", '{"public_regs": ', "Expecting value"),
    ("table", {"0": {"base": 0}}, "'size'"),
    ("table", {"0": {"base": "x", "size": 16}}, "'x'"),
    ("table", [{"base": 0, "size": 16}], "items"),
    ("state", {"regs": {"a2": 1.9}}, "got 1.9"),
    ("state", {"pc": True}, "got true"),
    ("table", {"0": {"base": 1.9, "size": 16.7}}, "got 1.9"),
    ("table", {"0": {"base": 0, "size": True}}, "got true"),
    ("space", {"base_state": {}, "varying_registers": [["a2", [0.5, True]]]},
     "got 0.5"),
    ("space", {"base_state": {}, "varying_cells": [["0x1008", [0, True]]]},
     "got true"),
    ("space", {"base_state": {"private_mem": {"0x1008": 2.0}}}, "got 2.0"),
    ("state", {"regs": {"zero": 5}}, "x0 is hard-wired to 0"),
    ("space", {"base_state": {"regs": {"x0": 1}}}, "x0 is hard-wired to 0")],
    ids=["space-base-register", "space-varying-register", "space-value",
         "policy-register", "state-register", "state-pc", "layout-overlap",
         "layout-empty", "layout-string", "layout-three-items",
         "policy-not-json", "table-no-size", "table-base", "table-list",
         "state-float", "state-boolean", "table-float", "table-boolean",
         "space-float", "space-boolean", "space-base-float", "state-x0",
         "space-base-x0"])
def test_malformed_input_is_usage_error(option, document, message, capsys,
                                        tmp_path):
    snippet = tmp_path / "s.s"
    snippet.write_text("li a1, 0x8000\nlbu a2, 0(a1)\n")
    paths = {}
    for name, content in {"space": GOOD_SPACE, option: document}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(
            content if isinstance(content, str) else json.dumps(content))
    if option == "state":
        argv = ["trace", str(snippet), "--state", str(paths["state"])]
    elif option == "table":
        argv = ["cache", "--table", str(paths["table"])]
    else:
        argv = ["ni", str(snippet), "--direct", "shm:seq",
                "--space", str(paths["space"])]
        if option != "space":
            argv += [f"--{option}", str(paths[option])]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --{option} ")
    assert message in captured.err and not captured.out
    assert main(argv + ["--json"]) == 64
    assert message in json.loads(capsys.readouterr().out)["error"]


# Input documents for the no-traceback property: a near-valid document
# (it may name an unknown register or an unmapped cell), the same with one
# integer replaced by a float or a boolean, or with a single node replaced
# by arbitrary JSON.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_NOT_INT = st.floats() | st.booleans()
_REG = st.sampled_from(["a0", "a1", "a2", "t0", "x0", "zero", "q9"])
_ADDR = st.sampled_from(["0x1000", "0x1008", "0x8000", "0x8008", "0x4000"])
_MEM = st.dictionaries(_ADDR, st.integers(0, 255), max_size=2)
_STATE = st.fixed_dictionaries({}, optional={
    "pc": st.integers(-1, 8),
    "regs": st.dictionaries(_REG, st.integers(0, 2**64), max_size=3),
    "private_mem": _MEM, "shared_mem": _MEM})
_DOMAIN = st.lists(st.integers(0, 0x8010), max_size=3)
_SPACE = st.fixed_dictionaries({"base_state": _STATE}, optional={
    "varying_registers": st.lists(st.tuples(_REG, _DOMAIN).map(list),
                                  max_size=2),
    "varying_cells": st.lists(st.tuples(_ADDR, _DOMAIN).map(list),
                              max_size=2)})
_POLICY = st.fixed_dictionaries({}, optional={
    "public_regs": st.lists(_REG, max_size=3),
    "public_private_cells": st.lists(_ADDR, max_size=2)})
_RANGE = st.sampled_from([["0x1000", "0x2000"], ["0x8000", "0x9000"],
                          ["0x0", "0x1000"], ["0x1800", "0x8800"],
                          ["0x2000", "0x1000"]])
_LAYOUT = st.fixed_dictionaries({"private": _RANGE, "shared": _RANGE})
_TABLE = st.dictionaries(
    st.sampled_from(["0", "1", "5", "8"]),
    st.fixed_dictionaries({"base": st.integers(-1, 1100),
                           "size": st.integers(0, 300)}),
    max_size=3)


def _nodes(doc, path=()):
    """The path (keys and indices) of every node of a JSON document."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def _malformed(draw, documents):
    """A document, and whether the CLI must refuse it as a usage error: it
    must when a float or a boolean stands where an integer is expected."""
    doc = draw(documents)
    how = draw(st.sampled_from(["near-valid", "not-int", "junk"]))
    paths = list(_nodes(doc))
    if how == "not-int":
        paths = [path for path in paths if type(_node_at(doc, path)) is int]
    if how == "near-valid" or not paths:
        return doc, False
    path = draw(st.sampled_from(paths))
    junk = draw(_NOT_INT if how == "not-int" else _JSON)
    if not path:
        return junk, False
    doc = copy.deepcopy(doc)
    parent = _node_at(doc, path[:-1])
    parent[path[-1]] = junk
    return doc, how == "not-int"


def _node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_PROBE = ("li a1, 0x8000\nadd a1, a1, a2\nbeq a0, a0, l\nlbu a3, 0(a1)\n"
          "l:\nlbu a4, 0(a1)\n")


@settings(max_examples=150, deadline=None)
@given(space=_malformed(_SPACE), policy=_malformed(_POLICY),
       layout=_malformed(_LAYOUT), state=_malformed(_STATE),
       table=_malformed(_TABLE))
def test_malformed_documents_never_end_in_traceback(space, policy, layout,
                                                     state, table):
    """Each document alone, the others well formed: the CLI ends in a
    documented exit code, never a traceback, and in 64 when a float or a
    boolean stands for an integer."""
    with tempfile.TemporaryDirectory() as tmp:
        paths, usage_error = {}, {}
        for name, (document, refused) in (
                ("good_space", (GOOD_SPACE, False)), ("space", space),
                ("policy", policy), ("layout", layout), ("state", state),
                ("table", table)):
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(document))
            usage_error[name] = refused
        snippet = str(Path(tmp) / "s.s")
        Path(snippet).write_text(_PROBE)
        ni = ["ni", snippet, "--direct", "shm:stl", "--space"]
        commands = {
            "space": ni + [paths["space"]],
            "policy": ni + [paths["good_space"], "--policy", paths["policy"]],
            "layout": ni + [paths["good_space"], "--layout", paths["layout"]],
            "state": ["trace", snippet, "--contract", "shm:stl", "--state",
                      paths["state"]],
            "table": ["cache", "--show-flush-cost", "--table", paths["table"]]}
        for name, argv in commands.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 3, 4, 64)
            if code == 64:
                assert err.getvalue().startswith("error: ")
            if usage_error[name]:
                assert code == 64, argv


_ASM_WORDS = st.sampled_from([
    "li", "lbu", "sb", "ld", "beq", "bne", "bgeu", "jal", "jalr", "add",
    "addi", "csrwi", "MSPEC,", "BURST_ON", "BURST_OFF", "a0", "a1,", "t0,",
    "zero,", "0x8000", "0(a1)", "-1", "8", "l:", "l", ",", ".symbol", "=",
    "#", "\n", "\n", "\n"])
_ASM_LINES = st.sampled_from([
    "li a1, 0x8000", "lbu a2, 0(a1)", "sb a2, 1(a1)", "beq a0, a2, l",
    "bne a0, zero, l", "bgeu a2, a0, l", "jal zero, l",
    "jalr zero, 0(a0)", "add a1, a1, a2", "addi a0, a0, -1",
    "csrwi MSPEC, BURST_ON", "csrwi MSPEC, BURST_OFF"])
_SNIPPETS = (st.text(max_size=40)
             | st.lists(_ASM_WORDS, max_size=24).map(" ".join)
             | st.lists(_ASM_LINES, max_size=8).map(
                 lambda lines: "\n".join(lines + ["l:"]))
             | st.lists(_ASM_LINES
                        | st.lists(_ASM_WORDS, max_size=4).map(" ".join),
                        max_size=8).map("\n".join))


@pytest.mark.filterwarnings("ignore::rmikit.asm.DirectiveWarning")
@pytest.mark.filterwarnings("ignore::rmikit.contracts.SelfContainmentViolation")
@settings(max_examples=100, deadline=None)
@given(text=_SNIPPETS)
def test_arbitrary_snippet_never_ends_in_traceback(text):
    """Any text as the snippet: a parse error exits 1 with `parse error:`
    on stderr, or {"error": ...} with --json; a snippet that parses ends
    in a documented exit code."""
    source = text.encode("utf-8", "surrogatepass")
    try:
        parse_program(source)
        parses = True
    except AsmError:
        parses = False
    with tempfile.TemporaryDirectory() as tmp:
        snippet = Path(tmp) / "s.s"
        snippet.write_bytes(source)
        space = Path(tmp) / "space.json"
        space.write_text(json.dumps(GOOD_SPACE))
        commands = [
            ["sta", str(snippet)],
            ["trace", str(snippet), "--contract", "shm:spec"],
            ["ni", str(snippet), "--direct", "shm:spec", "--space", str(space)],
            ["hw-check", str(snippet), "--mode", "burst_sta", "--space",
             str(space)]]
        for argv in commands:
            for as_json in (False, True):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(argv + ["--json"] * as_json)
                assert code in (0, 1, 2, 3, 4)
                if parses:
                    continue
                assert code == 1
                if as_json:
                    assert set(json.loads(out.getvalue())) == {"error"}
                else:
                    assert err.getvalue().startswith("parse error:")
