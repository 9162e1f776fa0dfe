"""Command-line front end exposing every check for batch and CI use.

Commands:

    trace          print the contract trace set of a snippet
    ni             direct or relative non-interference check
    hw-check       hardware-mode satisfaction check
    sta            static analysis of burst regions
    cache          partition-table inspection and flush costs
    corpus-verify  re-run every golden corpus verdict

Exit codes: 0 success / verdict reproduced, 1 check violated (or a
parse error, or a well-formed --table the cache refuses), 2 analysis
failed, 3 path explosion (the analyzer's path bound, the enumeration cap,
or a committed path out of fuel), 4 the committed path faults, 64 usage
error (a missing or unreadable snippet or input file, a --layout,
--policy, --space, --state or --table file that is not JSON or not such a
document, or a state space that cannot be enumerated, such as one with an
empty value domain). Every error prints {"error": ...} on stdout with
--json, and its message on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analyzer import PathExplosion, analyze, explain
from .asm import AsmError, parse_program
from .contracts import (EXEC_KINDS, LEAK_KINDS, EnumerationCapExceeded,
                        ExecModel, FuelExhausted, LeakageModel,
                        contract_trace_set, trace_set_to_json)
from .corpus import (_parse_layout, _parse_policy, _parse_space, load_corpus,
                     load_reference_table, verify_corpus)
from .llc import LlcError, PartitionTable, PartitionedCache
from .machine import ArchState, MachineError, MemoryLayout
from .modes import HwMode, MODE_KINDS
from .ni import (InvalidSpace, Policy, check_direct_ni, check_hw_satisfies_one,
                 check_relative_ni)

USAGE_EXIT = 64


class InvalidInput(ValueError):
    """An input document that does not describe a layout, policy, state
    space, state or partition table."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _emit(payload, as_json, render=None):
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(render if render is not None else payload)


def _load_program(path):
    with open(path, "rb") as handle:
        return parse_program(handle.read())


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _contract(text):
    try:
        leak, exec_kind = text.split(":")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LEAK:EXEC (e.g. shm:seq), got {text!r}") from None
    if leak not in LEAK_KINDS or exec_kind not in EXEC_KINDS:
        raise argparse.ArgumentTypeError(f"unknown contract {text!r}")
    return LeakageModel(leak), ExecModel(exec_kind)


def _input(args, option, parse, default=None):
    """The document named by --option, parsed, or `default` without one.
    A file that cannot be read, and what a parser raises on a malformed
    document, become InvalidInput naming the option."""
    path = getattr(args, option, None)
    if not path:
        return default
    try:
        return parse(_load_json(path))
    except OSError as exc:
        raise InvalidInput(f"--{option} {path}: {exc.strerror or exc}") from None
    except (AttributeError, LookupError, OverflowError, TypeError,
            ValueError) as exc:
        reason = (f"unknown or missing name {exc}" if isinstance(exc, KeyError)
                  else exc)
        raise InvalidInput(f"--{option} {path}: {reason}") from None


def _setup(args):
    """Common inputs: program, layout, policy, space."""
    return (_load_program(args.file),
            _input(args, "layout", _parse_layout, MemoryLayout()),
            _input(args, "policy", _parse_policy, Policy()),
            _input(args, "space", _parse_space))


def build_parser():
    parser = _Parser(prog="rmikit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, space_required=False):
        p.add_argument("file", help="assembly snippet (.s)")
        p.add_argument("--layout", help="memory layout JSON")
        p.add_argument("--policy", help="secrecy policy JSON")
        if space_required:
            p.add_argument("--space", required=True, help="state space JSON")
        p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("trace", help="contract trace set of one snippet")
    common(p)
    p.add_argument("--contract", type=_contract, default=_contract("shm:seq"))
    p.add_argument("--state", help="initial state JSON (default: all zeros)")

    p = sub.add_parser("ni", help="non-interference check")
    common(p, space_required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--direct", type=_contract, metavar="LEAK:EXEC")
    group.add_argument("--relative", type=_contract, nargs=2,
                       metavar=("LEAK:EXEC", "LEAK:EXEC"))

    p = sub.add_parser("hw-check", help="hardware-mode satisfaction check")
    common(p, space_required=True)
    p.add_argument("--mode", choices=MODE_KINDS, required=True)
    p.add_argument("--contract", type=_contract, default=_contract("shm:seq"))

    p = sub.add_parser("sta", help="static analysis of burst regions")
    common(p)

    p = sub.add_parser("cache", help="partition-table inspection")
    p.add_argument("--table", help="partition table JSON (default: reference layout)")
    p.add_argument("--show-flush-cost", action="store_true")
    p.add_argument("--show-map", action="store_true")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("corpus-verify", help="re-run every golden verdict")
    p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _cmd_trace(args):
    program, layout, _, _ = _setup(args)
    state = _input(args, "state", ArchState.from_json, ArchState())
    leak, exec_model = args.contract
    traces = contract_trace_set(program, state, layout, leak, exec_model)
    payload = trace_set_to_json(traces)
    _emit(payload, args.as_json,
          "\n".join(" ".join(str(e) for e in t) or "(empty)" for t in payload))
    return 0


def _cmd_ni(args):
    program, layout, policy, space = _setup(args)
    if args.direct:
        verdict = check_direct_ni(program, args.direct, policy, space, layout)
    else:
        verdict = check_relative_ni(program, args.relative[0], args.relative[1],
                                    space, layout)
    _emit(verdict.to_json(), args.as_json,
          "holds" if verdict.holds else "violated")
    return 0 if verdict.holds else 1


def _cmd_hw_check(args):
    program, layout, policy, space = _setup(args)
    mode = HwMode(args.mode)
    report = analyze(program, policy, layout) if mode.kind == "burst_sta" else None
    verdict = check_hw_satisfies_one(program, mode, args.contract, space,
                                     layout, sta_report=report)
    _emit(verdict.to_json(), args.as_json,
          "holds" if verdict.holds else "violated")
    return 0 if verdict.holds else 1


def _cmd_sta(args):
    program, layout, policy, _ = _setup(args)
    report = analyze(program, policy, layout)
    _emit(report.to_json(), args.as_json, explain(report).rstrip("\n"))
    return 0 if report.verdict == "pass" else 2


def _cmd_cache(args):
    table = _input(args, "table", PartitionTable.from_json, load_reference_table())
    cache = PartitionedCache(table)
    payload = {"regions": table.to_json()}
    lines = []
    if args.show_map or not args.show_flush_cost:
        for region, spec in sorted(table.to_json().items(), key=lambda kv: int(kv[0])):
            lines.append(f"region {region}: sets [{spec['base']}, "
                         f"{spec['base'] + spec['size']})")
    if args.show_flush_cost:
        costs = cache.flush_costs()
        payload["flush_cost"] = {str(r): c for r, c in costs.items()}
        for region, cost in sorted(costs.items()):
            lines.append(f"region {region}: flush cost {cost} accesses")
    _emit(payload, args.as_json, "\n".join(lines))
    return 0


def _cmd_corpus_verify(args):
    matrix = verify_corpus()
    if args.as_json:
        print(json.dumps(matrix, sort_keys=True, indent=2))
    else:
        for name, row in sorted(matrix["entries"].items()):
            for check, cell in sorted(row.items()):
                flag = "ok" if cell["ok"] else f"MISMATCH (got {cell['actual']})"
                print(f"{name:22s} {check:28s} {cell['expected']:10s} {flag}")
        print("all verdicts reproduced" if matrix["ok"] else "verdict mismatches")
    return 0 if matrix["ok"] else 1


_DISPATCH = {
    "trace": _cmd_trace,
    "ni": _cmd_ni,
    "hw-check": _cmd_hw_check,
    "sta": _cmd_sta,
    "cache": _cmd_cache,
    "corpus-verify": _cmd_corpus_verify,
}

# The exit code of each library error, found by the error's class or its
# nearest base class listed here.
_EXIT_CODES = {
    AsmError: 1, LlcError: 1,
    PathExplosion: 3, EnumerationCapExceeded: 3, FuelExhausted: 3,
    MachineError: 4,
    InvalidInput: USAGE_EXIT, InvalidSpace: USAGE_EXIT, OSError: USAGE_EXIT,
}


def _report_error(exc, as_json):
    parse = isinstance(exc, AsmError)
    if as_json:
        detail = exc.to_json() if parse else str(exc)
        print(json.dumps({"error": detail}, sort_keys=True))
    else:
        print(f"{'parse error' if parse else 'error'}: {exc}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    as_json = getattr(args, "as_json", False)
    try:
        return _DISPATCH[args.command](args)
    except BrokenPipeError:
        return 1    # the reader closed stdout: no error can be printed there
    except tuple(_EXIT_CODES) as exc:
        _report_error(exc, as_json)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in _EXIT_CODES)


if __name__ == "__main__":
    raise SystemExit(main())
