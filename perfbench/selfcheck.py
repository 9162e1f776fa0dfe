"""Quick self-check of the benchmark: every workload at its smallest size,
untraced and traced, with every check on. Takes about 20 seconds.

    python3 perfbench/selfcheck.py

Exits 0 when every run reports correct results and no failed verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import WORKLOADS  # noqa: E402


def main():
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", trace,
                 "--size", "quick"],
                capture_output=True, text=True, timeout=170, cwd=HERE.parent,
                check=False)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            good = bool(result and result["correct"] and not result["failed"])
            ok &= good
            detail = (f"{result['attempted']} verdicts, {result['failed']} failed"
                      if result else out.stderr.strip()[-300:])
            print(f"{workload} trace={trace}: {'ok' if good else 'FAILED'} ({detail})")
            if not good:
                print("\n".join(lines[:-1][-10:]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
