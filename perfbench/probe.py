"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed> <size>

Generates the workload's inputs (not counted), then times, in CPU time
of the process, importing rmikit and loading the workload's programs,
corpus entries and partition tables, and prints {"setup_s": seconds,
"gauge_s": seconds}, the second the mean of the speed gauge (speed.py)
read right before and right after the set-up. Interpreter start-up and
the import of the benchmark's own modules are not counted.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import speed  # noqa: E402


def main():
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    inputs = gen.make(workload, seed, size)
    before = speed.gauge()
    start = time.process_time()
    import rmikit  # noqa: F401
    imported = time.process_time()
    import workloads
    load_start = time.process_time()
    workloads.load(workload, inputs)
    end = time.process_time()
    gauge_s = (before + speed.gauge()) / 2
    print(json.dumps({"setup_s": (imported - start) + (end - load_start),
                      "gauge_s": gauge_s}))


if __name__ == "__main__":
    main()
