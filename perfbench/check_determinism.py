"""Run the traced benchmark twice with one seed and compare the counts.

    python3 perfbench/check_determinism.py <workload> <seed> [seconds]

Every `*.calls` count and every `repeat_share` must be identical between the
two runs; any difference is a defect of the benchmark (its work would then
depend on timing) and makes this script exit 1.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced(workload: str, seed: str, seconds: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", "1"],
        capture_output=True, text=True, check=True,
        cwd=os.path.dirname(HERE))
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    workload, seed = sys.argv[1], sys.argv[2]
    seconds = sys.argv[3] if len(sys.argv) > 3 else "15"
    first, second = (traced(workload, seed, seconds) for _ in range(2))
    keys = [k for k in first
            if k.endswith(".calls") or k.endswith("repeat_share")]
    diff = [k for k in keys if first[k]["value"] != second[k]["value"]]
    for k in diff:
        print(f"DEFECT {k}: {first[k]['value']} != {second[k]['value']}")
    print(f"{workload} seed={seed}: {len(keys) - len(diff)} of {len(keys)}"
          " counts identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
