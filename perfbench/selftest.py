"""Self-test of the benchmark: each workload at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Exits 1 unless every run passes its output checks and reports exactly the
metrics BENCHMARK.json names, with their units, and unless every per-layer
metric is at home on some workload and its span fired there. A rename in
`src/` that drops a traced function or layer therefore fails here loudly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import WORKLOAD_NAMES
    from spans import per_layer_metrics

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    problems = []
    homeless = [m.name for m in per_layer_metrics() if not m.homes]
    if homeless:
        problems.append(f"per-layer metrics at home on no workload: {homeless}")
    declared = {m.name: m.unit for m in per_layer_metrics()}
    if declared != expected[1]:
        problems.append("BENCHMARK.json per_layer differs from spans.per_layer_metrics()")
    if {w["name"] for w in manifest["workloads"]} != set(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")

    for workload in WORKLOAD_NAMES:
        for traced in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", "1", "--trace", str(traced), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            label = f"{workload} trace={traced}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: checks did not pass: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[traced]:
                missing = sorted(set(expected[traced]) - set(got))
                extra = sorted(set(got) - set(expected[traced]))
                problems.append(f"{label}: metrics differ; missing {missing}, extra {extra}")
            print(f"ok   {label}: {result['attempted']} checks, {len(got)} metrics")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
