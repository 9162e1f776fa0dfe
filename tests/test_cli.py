"""Command-line interface tests: exit codes, JSON output, determinism."""

import json
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("source, code", [
    (FAULTING, 4), (TWENTY_TAKEN_BRANCHES, 3), (NON_HALTING, 3)],
    ids=["fault", "trace-cap", "fuel"])
@pytest.mark.parametrize("command", [
    ["trace", "--contract", "shm:stl"],
    ["ni", "--direct", "shm:stl"],
    ["hw-check", "--mode", "safe", "--contract", "shm:stl"]],
    ids=["trace", "ni", "hw-check"])
def test_library_errors_exit_without_traceback(source, code, command, capsys,
                                              tmp_path):
    snippet = tmp_path / "s.s"
    snippet.write_text(source)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"base_state": {"pc": 0}}))
    argv = [command[0], str(snippet), *command[1:]]
    if command[0] != "trace":
        argv += ["--space", str(space)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert main(argv + ["--json"]) == code
    assert set(json.loads(capsys.readouterr().out)) == {"error"}


@pytest.mark.parametrize("space, message", [
    ({"base_state": {"pc": 0}, "varying_cells": [["0x4000", [0, 1]]]},
     "varying cell 0x4000 is in no mapped range"),
    ({"varying_registers": [["a0", [0, 1]]]}, "'base_state'")],
    ids=["unmapped-cell", "no-base-state"])
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
