"""Per-layer counts and self time, recorded from outside the program.

`Tracer.install` replaces each public function named in LAYERS, in every
rmikit module that holds it, with a wrapper that counts calls and
measures self time: the call's duration minus the time of the traced
calls it made. Calls inside a module go through its globals, so they are
seen too. `uninstall` puts the originals back; rmikit itself carries no
tracing code.
"""

import sys
from time import perf_counter

# (layer, module, attribute, extra counter, how to count it from the result)
LAYERS = (
    ("asm.parse_program", "asm", "parse_program", None, None),
    ("machine.step", "machine", "step", None, None),
    ("contracts.simulate_committed", "contracts", "simulate_committed", None, None),
    ("contracts.wrong_path_events", "contracts", "wrong_path_events", None, None),
    ("contracts.contract_trace_set", "contracts", "contract_trace_set",
     "contracts.traces", len),
    ("contracts.contract_trace", "contracts", "contract_trace", None, None),
    ("modes.hw_trace_set", "modes", "hw_trace_set", None, None),
    ("ni.enumerate_states", "ni", "enumerate_states", "ni.states", len),
    ("ni.check", "ni", "check_direct_ni", "ni.pairs_checked",
     lambda v: v.pairs_checked),
    ("ni.check", "ni", "check_relative_ni", "ni.pairs_checked",
     lambda v: v.pairs_checked),
    ("ni.check", "ni", "check_hw_satisfies_one", "ni.pairs_checked",
     lambda v: v.pairs_checked),
    ("analyzer.analyze", "analyzer", "analyze", "analyzer.explored_paths",
     lambda r: r.explored_paths),
    ("llc.access", "llc", "PartitionedCache.access", "llc.hits", int),
    ("llc.flush_region", "llc", "PartitionedCache.flush_region", None, None),
    ("llc.configure", "llc", "PartitionedCache.configure", None, None),
    ("corpus.verify_corpus", "corpus", "verify_corpus", None, None),
)


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._stack = []
        self._patches = []
        for layer, _, _, counter, _ in LAYERS:
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
            if counter:
                self.counts[counter] = 0

    def _wrap(self, layer, fn, counter, count):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if counter:
                counts[counter] += count(result)
            return result
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "rmikit" or name.startswith("rmikit.")]
        for layer, module, attr, counter, count in LAYERS:
            owner = sys.modules[f"rmikit.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, method)
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(layer, original, counter, count))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(layer, original, counter, count)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, name, original))
                        setattr(m, name, traced)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self):
        flat = {f"{layer}.calls": n for layer, n in self.calls.items()}
        flat.update({f"{layer}.self_s": t for layer, t in self.self_s.items()})
        flat.update(self.counts)
        return flat


def delta(after, before):
    return {key: after[key] - before[key] for key in after}
