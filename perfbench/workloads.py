"""The four workloads: set-up, the fixed verdict list of one pass, and
the checks of every verdict against the reference models.

`load` is the set-up the benchmark times: it parses or loads the
workload's programs, corpus entries and partition tables into rmikit
objects. Everything after it is a `Workload`, whose `steps` are run in
order once per pass. Steps call rmikit through module attributes at call
time, so the per-layer tracer sees every call.
"""

import json
import warnings
from pathlib import Path
from time import process_time

import rmikit
from rmikit import analyzer, asm, contracts, corpus, llc, machine, modes, ni
from rmikit.contracts import SEQ, SHM, SPEC, STL

import gen
import models

EXEC = {"seq": SEQ, "stl": STL, "spec": SPEC}


class Step:
    """One timed call. `run` returns a small summary: it must not hold the
    call's large results, so they are freed inside the step's timing.
    `after`, if given, runs untimed right after and may add to the
    summary. A step that decides several verdicts reports their own
    timings through `inner`."""

    def __init__(self, label, run, verdicts=1, after=None, inner=None):
        self.label = label
        self.run = run
        self.verdicts = verdicts
        self.after = after
        self.inner = inner


def build_space(spec):
    base = machine.ArchState(
        regs={asm.reg_num(r): v for r, v in spec["base_regs"].items()},
        private_mem=dict(spec["base_private"]))
    return ni.StateSpace(
        base_state=base,
        varying_registers=tuple((asm.reg_num(r), tuple(d))
                                for r, d in spec["varying_registers"]),
        varying_cells=tuple((a, tuple(d)) for a, d in spec["varying_cells"]))


def ni_summary(verdict):
    return (verdict.holds, verdict.witness)


def regs_mem(state):
    return {asm.reg_name(r): v for r, v in state.regs.items()}, state.private_mem


def check_ni(results, expect, check_witness):
    """Each NI verdict against its derived answer; each violation's
    witness through `check_witness(label, witness, context)`."""
    errors = []
    for step, (holds, witness) in results:
        want, context = expect[step.label]
        if holds != want:
            errors.append(f"{step.label}: expected {'holds' if want else 'violated'}")
        elif not holds:
            errors.extend(check_witness(step.label, witness, context))
    return errors


# ---------------------------------------------------------------- sweep

class CorpusSweep:
    """verify_corpus() over the seven golden entries, then the criterion-6
    verdict on every seeded snippet: analyze, and the relative-NI oracle
    (shm,seq) -> (shm,stl), whose violation no analyzer pass may meet."""

    def __init__(self, loaded, inputs):
        self.entries, self.snippets, self.space, self.layout = loaded
        self.check_times = []
        for name, run in list(corpus.CHECKS.items()):
            corpus.CHECKS[name] = self._timed(name, run)
        self.expected = self._sidecar_verdicts()
        self.policy = ni.Policy()
        self.steps = [Step("verify_corpus", self._verify,
                           verdicts=len(self.expected), inner=self._inner)]
        # one verdict per snippet: the analyzer's against the oracle's
        self.steps += [Step(f"sweep:{i}", self._sweep(program))
                       for i, program in enumerate(self.snippets)]
        self.precision = None

    def _timed(self, name, run):
        times = self.check_times

        def timed(entry):
            start = process_time()   # the clock run.py times verdicts with
            verdict = run(entry)
            times.append((f"{entry.name}:{name}", process_time() - start))
            return verdict
        return timed

    def _inner(self):
        times = list(self.check_times)
        self.check_times.clear()
        return times

    def _sidecar_verdicts(self):
        data = Path(rmikit.__file__).parent / "corpus_data"
        expected = {}
        for entry in self.entries:
            sidecar = json.loads((data / f"{entry.name}.json").read_text())
            for check, verdict in sidecar["expected"].items():
                expected[(entry.name, check)] = verdict
        return expected

    def _verify(self):
        result = corpus.verify_corpus(self.entries)
        return {(name, check): cell["actual"]
                for name, row in result["entries"].items()
                for check, cell in row.items()}, result["ok"]

    def _sweep(self, program):
        def run():
            verdict = analyzer.analyze(program, self.policy, self.layout).verdict
            return verdict, ni.check_relative_ni(
                program, (SHM, SEQ), (SHM, STL), self.space, self.layout).holds
        return run

    def begin_pass(self):
        self.check_times.clear()

    def check(self, results):
        errors = []
        by_label = {step.label: summary for step, summary in results}
        if "verify_corpus" in by_label:
            actual, ok = by_label["verify_corpus"]
            if actual != self.expected:
                wrong = sorted(k for k in self.expected
                               if actual.get(k) != self.expected[k])
                errors.append(f"corpus verdicts differ from the sidecars: {wrong}")
            if not ok:
                errors.append("verify_corpus reported ok=false")
        fails = conservative = 0
        for i in range(len(self.snippets)):
            if f"sweep:{i}" not in by_label:
                continue
            verdict, holds = by_label[f"sweep:{i}"]
            if verdict == "pass" and not holds:
                errors.append(f"snippet {i}: analyzer passes, oracle finds a violation")
            if verdict == "fail":
                fails += 1
                conservative += holds
        self.precision = {"analyzer_fails": fails, "conservative": conservative}
        return errors

    def validate(self):
        return []


# ---------------------------------------------------------- copy ladder

class CopyLadder:
    """Per rung n and program: direct NI under spec and under stl,
    relative NI seq -> stl and burst-mode satisfaction."""

    PROGRAMS = ("memcpy_right", "memcpy_left")

    def __init__(self, loaded, inputs):
        self.programs, self.rungs, self.layout = loaded
        self.policy = ni.Policy(public_regs=frozenset(
            asm.reg_num(r) for r in ("a0", "a1", "a2")))
        self.steps, self.expect = [], {}
        for rung, (data_space, dest_space) in zip(inputs["rungs"], self.rungs):
            n = rung["n"]
            for name in self.PROGRAMS:
                program = self.programs[name]
                self._add(f"{name}:{n}:direct_spec", True, name, self._direct(
                    program, SPEC, data_space))
                self._add(f"{name}:{n}:direct_stl", True, name, self._direct(
                    program, STL, data_space))
                self._add(f"{name}:{n}:relative_seq_stl",
                          name == "memcpy_right", name,
                          self._relative(program, dest_space))
                self._add(f"{name}:{n}:burst_satisfies", True, name,
                          self._burst(program, dest_space))
        self.meta = inputs["rungs"]

    def _add(self, label, holds, name, run):
        self.steps.append(Step(label, run))
        self.expect[label] = (holds, name)

    def _direct(self, program, exec_model, space):
        def run():
            return ni_summary(ni.check_direct_ni(
                program, (SHM, exec_model), self.policy, space, self.layout))
        return run

    def _relative(self, program, space):
        def run():
            return ni_summary(ni.check_relative_ni(
                program, (SHM, SEQ), (SHM, STL), space, self.layout))
        return run

    def _burst(self, program, space):
        def run():
            return ni_summary(ni.check_hw_satisfies_one(
                program, modes.BURST, (SHM, STL), space, self.layout))
        return run

    def begin_pass(self):
        pass

    def check(self, results):
        return check_ni(results, self.expect, self._check_witness)

    def _check_witness(self, label, witness, name):
        """A relative-NI witness has equal seq and unequal stl trace sets;
        for the copy loop it is two length-0 states with different
        destinations, whose sets have a closed form."""
        program = self.programs[name]
        errors = []
        sets = []
        for state in witness:
            regs, _ = regs_mem(state)
            if regs.get("a2", 0) != 0:
                return [f"{label}: witness state has length {regs.get('a2')}"]
            sets.append({})
            for kind in ("seq", "stl"):
                got = contracts.contract_trace_set(
                    program, state, self.layout, SHM, EXEC[kind])
                want = models.copy_traces_len0(name, regs["a0"], kind)
                if got != want:
                    errors.append(f"{label}: {kind} traces of the witness differ from the model")
                sets[-1][kind] = want
        a, b = sets
        if a["seq"] != b["seq"] or a["stl"] == b["stl"]:
            errors.append(f"{label}: witness lacks the defining property")
        return errors

    def validate(self):
        """Trace-set size of one length-n state per rung and program,
        against 2^(n+1) under spec and 2^(n-1) under stl."""
        errors = []
        for rung, (data_space, _) in zip(self.meta, self.rungs):
            n = rung["n"]
            for name in self.PROGRAMS:
                for kind in ("spec", "stl"):
                    size = len(contracts.contract_trace_set(
                        self.programs[name], data_space.base_state, self.layout,
                        SHM, EXEC[kind]))
                    if size != models.copy_trace_count(n, kind):
                        errors.append(f"{name}:{n}:{kind}: {size} traces, "
                                      f"expected {models.copy_trace_count(n, kind)}")
        return errors


# --------------------------------------------------------- state ladder

class StateLadder:
    """Five checks per rung of the read gadget: direct shm:seq holds,
    direct shm:spec violated, relative seq -> stl violated, Safe mode and
    Burst mode satisfy their contracts."""

    CHECKS = (("direct_seq", True), ("direct_spec", False),
              ("relative_seq_stl", False), ("safe_satisfies", True),
              ("burst_satisfies", True))

    def __init__(self, loaded, inputs):
        self.entry, self.spaces, self.layout = loaded
        program, policy = self.entry.program, self.entry.policy
        runs = {
            "direct_seq": lambda s: ni.check_direct_ni(
                program, (SHM, SEQ), policy, s, self.layout),
            "direct_spec": lambda s: ni.check_direct_ni(
                program, (SHM, SPEC), policy, s, self.layout),
            "relative_seq_stl": lambda s: ni.check_relative_ni(
                program, (SHM, SEQ), (SHM, STL), s, self.layout),
            "safe_satisfies": lambda s: ni.check_hw_satisfies_one(
                program, modes.SAFE, (SHM, SEQ), s, self.layout),
            "burst_satisfies": lambda s: ni.check_hw_satisfies_one(
                program, modes.BURST, (SHM, STL), s, self.layout),
        }
        self.steps, self.expect = [], {}
        self.states = [rung["states"] for rung in inputs["rungs"]]
        for rung, space in zip(inputs["rungs"], self.spaces):
            for check, holds in self.CHECKS:
                label = f"{rung['states']}:{check}"
                self.steps.append(Step(label, self._run(runs[check], space)))
                self.expect[label] = (holds, check)

    @staticmethod
    def _run(check, space):
        def run():
            return ni_summary(check(space))
        return run

    def begin_pass(self):
        pass

    def check(self, results):
        return check_ni(results, self.expect, self._check_witness)

    def _check_witness(self, label, witness, check):
        """direct: equal public projection, unequal spec traces; relative:
        equal seq traces, unequal stl traces. The program's trace sets of
        both witness states must also equal the model's."""
        program = self.entry.program
        kinds = ("spec",) if check == "direct_spec" else ("seq", "stl")
        model = []
        errors = []
        for state in witness:
            regs, mem = regs_mem(state)
            model.append({"public": models.gadget_public(regs.get("a0", 0), mem)})
            for kind in kinds:
                want = models.gadget_traces(regs.get("a0", 0), mem, kind)
                got = contracts.contract_trace_set(
                    program, state, self.layout, SHM, EXEC[kind])
                if got != want:
                    errors.append(f"{label}: {kind} traces of the witness differ from the model")
                model[-1][kind] = want
        a, b = model
        if check == "direct_spec":
            ok = a["public"] == b["public"] and a["spec"] != b["spec"]
        else:
            ok = a["seq"] == b["seq"] and a["stl"] != b["stl"]
        if not ok:
            errors.append(f"{label}: witness lacks the defining property")
        return errors

    def validate(self):
        """Every rung enumerates the number of states its shape gives."""
        errors = []
        for states, space in zip(self.states, self.spaces):
            found = len(ni.enumerate_states(space, self.layout))
            if found != states:
                errors.append(f"rung of {states} states enumerates {found}")
        return errors


# ------------------------------------------------------------ llc churn

class LlcChurn:
    """Isolation rounds, region flushes and reconfigurations on one cache
    per pass, every hit and miss compared with the LRU model."""

    def __init__(self, loaded, inputs):
        self.reference, self.alternates = loaded
        self.cache = None
        self.steps, self.expect = [], []
        model = models.LruCache(gen.REFERENCE_TABLE)
        for i, item in enumerate(inputs["schedule"]):
            kind = item[0]
            if kind == "round":
                _, victims, foreign = item
                stream = victims + foreign + victims
                self.steps.append(Step(f"round:{i}", self._round(stream)))
                self.expect.append([model.access(a) for a in stream])
            elif kind == "flush":
                region = item[1]
                self.steps.append(Step(f"flush:{i}", self._flush(region),
                                       after=self._flush_after(region)))
                self.expect.append(model.flush(region))
            else:
                which, index = item[1]
                table = (self.reference if which == "reference"
                         else self.alternates[index])
                self.steps.append(Step(f"configure:{i}", self._configure(table)))
                self.expect.append(table)
                model.configure(table.entries)
        self.n_victims = gen.LLC_VICTIM_LINES

    def _round(self, stream):
        def run():
            access = self.cache.access
            return [access(a) for a in stream]
        return run

    def _flush(self, region):
        def run():
            before = self.cache.accesses
            cost = self.cache.flush_region(region)
            return [cost, self.cache.accesses - before]
        return run

    def _flush_after(self, region):
        def after(summary):
            summary.append(len(self.cache.lines_of_region(region)))
        return after

    def _configure(self, table):
        def run():
            return self.cache.configure(table, running_enclaves=0)
        return run

    def begin_pass(self):
        self.cache = llc.PartitionedCache(self.reference)

    def check(self, results):
        errors = []
        index = {step.label: i for i, step in enumerate(self.steps)}
        for step, summary in results:
            want = self.expect[index[step.label]]
            if step.label.startswith("round"):
                if summary != want:
                    errors.append(f"{step.label}: hits differ from the LRU model")
                if not all(summary[-self.n_victims:]):
                    errors.append(f"{step.label}: a victim line was evicted")
            elif step.label.startswith("flush"):
                cost, accesses, left = summary
                if cost != want or accesses != want or left:
                    errors.append(f"{step.label}: flush cost {cost}/{accesses} "
                                  f"(expected {want}), {left} lines left")
            elif summary is not want:
                errors.append(f"{step.label}: configure did not switch the table")
        return errors

    def validate(self):
        if self.reference.entries != gen.REFERENCE_TABLE:
            return ["reference table differs from the committed layout"]
        return []


# ----------------------------------------------------------------- load

def load(workload, inputs):
    """The timed set-up: rmikit objects for the workload's inputs."""
    if workload == "corpus_sweep":
        entries = corpus.load_corpus()
        # analyzed lazily on first use; built here so set-up counts it
        for entry in entries:
            entry.sta_report
        snippets = [asm.parse_program(src) for src in inputs["snippets"]]
        return entries, snippets, build_space(inputs["space"]), machine.MemoryLayout()
    if workload == "copy_ladder":
        programs = {name: corpus.load_entry(name).program
                    for name in CopyLadder.PROGRAMS}
        rungs = [(build_space(r["data_space"]), build_space(r["dest_space"]))
                 for r in inputs["rungs"]]
        return programs, rungs, machine.MemoryLayout()
    if workload == "state_ladder":
        entry = corpus.load_entry("spectre_v1")
        spaces = [build_space(r["space"]) for r in inputs["rungs"]]
        return entry, spaces, machine.MemoryLayout(
            shared_range=inputs["shared_range"])
    if workload == "llc_churn":
        reference = corpus.load_reference_table()
        alternates = [llc.PartitionTable(entries=entries, geometry=reference.geometry)
                      for entries in inputs["alternates"]]
        return reference, alternates
    raise ValueError(f"unknown workload {workload!r}")


CLASSES = {"corpus_sweep": CorpusSweep, "copy_ladder": CopyLadder,
           "state_ladder": StateLadder, "llc_churn": LlcChurn}


def prepare(workload, loaded, inputs):
    # burst-mode runs warn when execution leaves a static region
    # (jal_far_away does, by design); the warning text is not a result
    warnings.simplefilter("ignore", contracts.SelfContainmentViolation)
    return CLASSES[workload](loaded, inputs)
