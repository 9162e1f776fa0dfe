"""Benchmark of rmikit's verdicts, one workload per process.

    python3 perfbench/run.py --workload corpus_sweep --seed 1 --seconds 20 --trace 0

With --trace 0 it times set-up in fresh interpreters, runs one checked
warm-up pass, then whole passes of the workload's fixed verdict list for
about --seconds, and prints the end-to-end metrics, scaled to the
reference speed of the machine (see speed.py). With --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics
and the tracing overhead. Every verdict is checked against the reference
models; the last line of output is one JSON object. Details of the run go
to perfbench/results/BENCH_<workload>_seed<seed>[_quick][_traced].json.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import speed

# Verdicts and set-up are timed in CPU time of the measuring process.
# Steal time on a shared virtual machine stretches wall time alone: on a
# 2-vCPU VM one pass took 2.78 s of wall time against 1.46 s of CPU time.
# Wall time per pass is kept beside CPU time in the BENCH file. CPU time
# still moves with the speed of the shared machine; the end-to-end times
# are scaled to a reference speed by readings of speed.gauge (speed.py).
clock = process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_PROBES = 15       # fresh interpreters per run; the median is reported
MIN_PASSES = 3
TAIL_BEYOND = 10        # samples beyond the tail percentile
MIN_SAMPLES = 40        # no percentile over fewer samples than this
GAUGE_EVERY_S = 0.3     # CPU seconds of verdicts between speed readings


class Pass:
    def __init__(self):
        self.samples = []       # CPU seconds per verdict
        self.errors = []        # outputs that the checks rejected
        self.failures = []      # (label, error) of steps that raised
        self.verdicts = 0
        self.failed = 0
        self.verdict_s = 0.0    # sum of the timed steps, CPU seconds
        self.wall = 0.0
        self.cpu = 0.0
        self.groups = {}        # traced passes: per-layer delta per label group
        # Gauged passes: the readings of speed.gauge, and `samples` and
        # `verdict_s` scaled to the reference speed segment by segment, a
        # segment's times by REFERENCE_S over the mean of the readings at
        # its two ends.
        self.readings = []
        self.scaled = []
        self.scaled_verdict_s = 0.0
        self.segment_start = (0, 0.0)  # len(samples), verdict_s at its start

    def read_speed(self):
        """Reads the speed and closes the segment that the reading ends."""
        reading = speed.gauge()
        if self.readings:
            scale = speed.REFERENCE_S / ((self.readings[-1] + reading) / 2)
            first, verdict_s = self.segment_start
            self.scaled.extend(scale * t for t in self.samples[first:])
            self.scaled_verdict_s += scale * (self.verdict_s - verdict_s)
        self.readings.append(reading)
        self.segment_start = (len(self.samples), self.verdict_s)


def run_pass(workload, tracer=None, gauged=False):
    """One pass of the verdict list, checked at its end. Only `step.run`
    is timed; the summary it returns is small, so the call's results are
    freed inside its own timing. A gauged pass reads the machine's speed
    before its first step, between steps every GAUGE_EVERY_S of verdict
    time, and after its last step."""
    result = Pass()
    summaries = []
    workload.begin_pass()
    gc.collect()
    group, mark = None, None
    wall, cpu = perf_counter(), process_time()
    if gauged:
        result.read_speed()
    for step in workload.steps:
        if gauged and result.verdict_s - result.segment_start[1] >= GAUGE_EVERY_S:
            result.read_speed()
        if tracer is not None and step.label.split(":")[0] != group:
            mark = _close_group(result, tracer, group, mark)
            group = step.label.split(":")[0]
        error = None
        start = clock()
        try:
            summary = step.run()
        except Exception as exc:  # a verdict that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        result.verdicts += step.verdicts
        if error is not None:
            result.failed += step.verdicts
            result.failures.append((step.label, error))
            if step.inner:
                step.inner()
            continue
        if step.after:
            step.after(summary)
        result.verdict_s += elapsed
        if step.inner:
            result.samples.extend(t for _, t in step.inner())
        else:
            result.samples.append(elapsed)
        summaries.append((step, summary))
    if gauged:
        result.read_speed()
    result.wall = perf_counter() - wall
    result.cpu = process_time() - cpu
    if tracer is not None:
        _close_group(result, tracer, group, mark)
    result.errors = workload.check(summaries)
    return result


def _close_group(result, tracer, group, mark):
    now = tracer.snapshot()
    if group is not None:
        acc = result.groups.setdefault(group, dict.fromkeys(now, 0))
        for key, value in now.items():
            acc[key] += value - mark[key]
    return now


def tail_index(n):
    """Index of the highest sample with TAIL_BEYOND samples above it (the
    largest sample when there are fewer, as in a quick run)."""
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1


def pass_figures(samples, verdict_s):
    ordered = sorted(samples)
    return {"verdicts_per_s": len(samples) / verdict_s,
            "verdict_ms_p50": 1000 * statistics.median(ordered),
            "verdict_ms_tail": 1000 * ordered[tail_index(len(ordered))]}


def setup_probe(workload, seed, size):
    """Set-up time of the workload in one fresh interpreter, scaled to the
    reference speed by the gauge readings taken around it there."""
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), size],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return probe["setup_s"] * speed.REFERENCE_S / probe["gauge_s"]


def commit_id():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def timed_passes(workload, seconds, tracer=None, probe=None):
    """Whole rounds until the next one would end after `seconds`. A round
    is an untraced pass, then a traced one when there is a tracer. With a
    probe, set-up samples are taken between rounds, spread evenly over
    the run, so that they meet the same load on the machine as the
    passes do."""
    untraced, traced, setup = [], [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        untraced.append(run_pass(workload, gauged=tracer is None))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(workload, tracer))
            finally:
                tracer.uninstall()
        share = min(1, (perf_counter() - start) / seconds) if seconds > 0 else 1
        while probe and len(setup) < SETUP_PROBES * share:
            setup.append(probe())
        spent = perf_counter() - round_start
        if (len(untraced) >= MIN_PASSES
                and perf_counter() - start + spent > seconds):
            while probe and len(setup) < SETUP_PROBES:
                setup.append(probe())
            return untraced, traced, setup


def end_to_end(setup, peak_rss_mb, passes):
    if not all(p.samples for p in passes):
        raise RuntimeError("a pass completed no verdict")
    figures = [pass_figures(p.scaled, p.scaled_verdict_s) for p in passes]
    out = {"setup_s": (statistics.median(setup), "s")}
    for name, unit in (("verdicts_per_s", "1/s"), ("verdict_ms_p50", "ms"),
                       ("verdict_ms_tail", "ms")):
        out[name] = (statistics.median(f[name] for f in figures), unit)
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def per_layer(load_part, traced, untraced):
    """Traced load plus one traced pass: counts from a pass (they must
    repeat exactly), self time as the median over traced passes."""
    errors = []
    deltas = []
    for p in traced:
        total = {}
        for acc in p.groups.values():
            for key, value in acc.items():
                total[key] = total.get(key, 0) + value
        deltas.append(total)
    out = {}
    for name in load_part:
        if name.endswith("self_s"):
            value = load_part[name] + statistics.median(d[name] for d in deltas)
            out[name] = (value, "s")
        else:
            values = {d[name] for d in deltas}
            if len(values) != 1:
                errors.append(f"{name} differs between traced passes: {sorted(values)}")
            out[name] = (load_part[name] + deltas[0][name], "count")
    overhead = (statistics.median(p.cpu for p in traced)
                / statistics.median(p.cpu for p in untraced) - 1)
    out["tracing.overhead_pct"] = (100 * overhead, "%")
    return out, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full",
                        help="quick: each workload at its smallest size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rmikit" / "__init__.py").is_file():
        print(f"rmikit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gen
    if args.workload not in gen.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {gen.WORKLOADS}",
              file=sys.stderr)
        return 2

    record = run(args, gen)
    RESULTS.mkdir(exist_ok=True)
    suffix = ("_quick" if args.size == "quick" else "") + ("_traced" if args.trace else "")
    path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for error in record["errors"][:20]:
        print(f"CHECK FAILED: {error}")
    for label, error in record["failures"][:20]:
        print(f"VERDICT FAILED: {label}: {error}")
    for name, metric in record["metrics"].items():
        print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not record["errors"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


def run(args, gen):
    inputs = gen.make(args.workload, args.seed, args.size)
    probe = None
    if not args.trace:
        def probe():
            return setup_probe(args.workload, args.seed, args.size)
        probe()   # writes the bytecode caches; not a sample

    import rmikit
    import tracer as tracing
    import workloads
    if Path(rmikit.__file__).resolve().parent != ROOT / "src" / "rmikit":
        raise RuntimeError(f"imported rmikit from {rmikit.__file__}")
    tracer = tracing.Tracer() if args.trace else None
    load_part = None
    if tracer is not None:
        tracer.install()
        before = tracer.snapshot()
    loaded = workloads.load(args.workload, inputs)
    if tracer is not None:
        load_part = tracing.delta(tracer.snapshot(), before)
        tracer.uninstall()
    workload = workloads.prepare(args.workload, loaded, inputs)

    errors = workload.validate()
    warmup = run_pass(workload)
    untraced, traced, setup = timed_passes(workload, args.seconds, tracer, probe)
    everything = [warmup] + untraced + traced
    errors += [e for p in everything for e in p.errors]
    samples = len(warmup.samples)
    if samples < MIN_SAMPLES and args.size == "full":
        errors.append(f"{samples} verdict timings per pass; a percentile "
                      f"needs at least {MIN_SAMPLES}")

    if tracer is None:
        metrics = end_to_end(
            setup,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            untraced)
    else:
        metrics, trace_errors = per_layer(load_part, traced, untraced)
        errors += trace_errors
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit_id(), "python": platform.python_version(),
        "cores": os.cpu_count(), "machine": platform.machine(),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "attempted": sum(p.verdicts for p in everything),
        "failed": sum(p.failed for p in everything),
        "errors": errors,
        "failures": [f for p in everything for f in p.failures],
        "verdicts_per_pass": warmup.verdicts,
        "samples_per_pass": samples,
        "tail_percentile": 100 * (tail_index(samples) + 1) / samples,
        "setup_samples_s": setup or None,
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "verdict_s": p.verdict_s,
                    "gauge_readings_s": p.readings,
                    **({"unscaled": pass_figures(p.samples, p.verdict_s)}
                       if p.samples else {}),
                    **({"scaled": pass_figures(p.scaled, p.scaled_verdict_s)}
                       if p.scaled else {})}
                   for p in untraced],
        "traced_passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "groups": p.groups}
                          for p in traced],
        "load_trace": load_part,
        "detail": getattr(workload, "precision", None),
    }


if __name__ == "__main__":
    sys.exit(main())
