"""The benchmark's tracer (perfbench/tracer.py) against the package.

The tracer wraps each function named in its LAYERS table by module and
attribute name, so a renamed or removed function breaks every traced
benchmark run. This test installs it in-process, checks that every entry
resolves and is wrapped, that a verdict is counted through the wrappers,
and that uninstalling puts every original back.
"""

import importlib
import importlib.util
from pathlib import Path

from rmikit import ni
from rmikit.contracts import SEQ, SHM, STL
from rmikit.corpus import load_entry

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, attr):
    owner = importlib.import_module(f"rmikit.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_layers_resolve_install_and_uninstall():
    tracing = _load_tracer()
    originals = {(module, attr): _resolve(module, attr)
                 for _, module, attr, _, _ in tracing.LAYERS}
    assert all(callable(fn) for fn in originals.values())
    entry = load_entry("spectre_v1")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), fn in originals.items():
            assert _resolve(module, attr) is not fn, f"{module}.{attr} not wrapped"
        # through the module, whose attribute the tracer replaces
        verdict = ni.check_relative_ni(entry.program, (SHM, SEQ), (SHM, STL),
                                       entry.space, entry.layout)
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert _resolve(module, attr) is fn, f"{module}.{attr} not restored"
    counted = tracer.snapshot()
    assert not verdict.holds
    assert counted["ni.check.calls"] == 1
    # the checkers walk tuples of values and never list the states
    assert counted["ni.enumerate_states.calls"] == 0
    assert counted["ni.states"] == 0
    # one state served per class of states that agree on what a run
    # read: a0 = 2 reads the public cell 0x1002, a0 = 8 the secret 0x1008
    # in the stl window; the witness is shrunk through the same classes.
    # A committed run per committed path: a0 = 2 makes two, a0 = 8 one,
    # and its second class runs only its window
    assert counted["contracts.simulate_committed.calls"] == 3
    assert counted["contracts.wrong_path_events.calls"] > 0
