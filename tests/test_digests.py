"""Pinned outputs: every corpus state's trace set under all 12 contracts
and all 5 hardware modes, every corpus NI verdict's JSON, and the output
of `rmikit corpus-verify --json`, each as a sha256 digest.

The digests in digests.json were taken from a known-good build; any change
to a trace, a verdict, a witness or the CLI matrix shows up here. After an
intended change of output, regenerate them with

    PYTHONPATH=src python tests/test_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

from rmikit.cli import main
from rmikit.contracts import (EXEC_KINDS, LEAK_KINDS, SEQ, SHM, SPEC, STL,
                              ContractError, ExecModel, LeakageModel,
                              contract_trace_set, trace_set_to_json)
from rmikit.corpus import load_corpus
from rmikit.machine import MachineError
from rmikit.modes import BURST, BURST_STA, MI6, MODE_KINDS, SAFE, HwMode, hw_trace_set
from rmikit.ni import (check_direct_ni, check_hw_satisfies_one,
                       check_relative_ni, enumerate_states)

DIGESTS = Path(__file__).with_name("digests.json")

# the corpus checks of rmikit.corpus.CHECKS, as verdict objects
NI_CHECKS = {
    "direct_ni_shm_spec": lambda e: check_direct_ni(
        e.program, (SHM, SPEC), e.policy, e.space, e.layout),
    "direct_ni_shm_seq": lambda e: check_direct_ni(
        e.program, (SHM, SEQ), e.policy, e.space, e.layout),
    "relative_ni_seq_stl": lambda e: check_relative_ni(
        e.program, (SHM, SEQ), (SHM, STL), e.space, e.layout),
    "hw_safe_satisfies": lambda e: check_hw_satisfies_one(
        e.program, SAFE, (SHM, SEQ), e.space, e.layout, sta_report=e.sta_report),
    "hw_burst_satisfies": lambda e: check_hw_satisfies_one(
        e.program, BURST, (SHM, STL), e.space, e.layout, sta_report=e.sta_report),
    "hw_burst_sta_satisfies": lambda e: check_hw_satisfies_one(
        e.program, BURST_STA, (SHM, SEQ), e.space, e.layout,
        sta_report=e.sta_report),
    "hw_mi6_satisfies": lambda e: check_hw_satisfies_one(
        e.program, MI6, (SHM, SEQ), e.space, e.layout, sta_report=e.sta_report),
}


def _sha(payload):
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _traces_digest(compute):
    try:
        return _sha(trace_set_to_json(compute()))
    except (ContractError, MachineError) as exc:
        return f"error: {type(exc).__name__}"


def compute_digests():
    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for entry in load_corpus():
            for i, state in enumerate(enumerate_states(entry.space, entry.layout)):
                for leak in LEAK_KINDS:
                    for kind in EXEC_KINDS:
                        digests[f"{entry.name}/{i}/{leak}:{kind}"] = _traces_digest(
                            lambda: contract_trace_set(
                                entry.program, state, entry.layout,
                                LeakageModel(leak), ExecModel(kind)))
                for mode in MODE_KINDS:
                    digests[f"{entry.name}/{i}/{mode}"] = _traces_digest(
                        lambda: hw_trace_set(entry.program, state, entry.layout,
                                             HwMode(mode),
                                             sta_report=entry.sta_report))
            for check in sorted(entry.expected):
                if check in NI_CHECKS:
                    digests[f"{entry.name}/{check}"] = _sha(
                        NI_CHECKS[check](entry).to_json())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["corpus-verify", "--json"])
    digests["corpus-verify --json"] = _sha(f"{code}\n{out.getvalue()}")
    return digests


def test_outputs_match_pinned_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = sorted(k for k in expected if actual[k] != expected[k])
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
