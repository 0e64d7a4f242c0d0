"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced at the "tiny" sizes in
workload.py, and asserts that:

- each run prints every metric BENCHMARK.json names, with its unit, and
  no other;
- every operation passes its checks and the published counts exist;
- the traced run yields a span for every layer boundary layers.json
  lists for that workload;
- run.py exits non-zero, without a result line, in a copy that holds
  only BENCHMARK.json and the benchmark's own files.

Tiny sizes exercise the harness, not the program: the oracle run shrinks
validate's kernel TV checks and does not judge their verdict.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run


def expect(ok: bool, message) -> None:
    if not ok:
        raise AssertionError(message)


def check_workload(name: str, spec: dict, layers: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run.run_workload(name, seed=1, seconds=0.1, trace=trace, size="tiny")
        expected = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {k: m["unit"] for k, m in result["metrics"].items()}
        expect(emitted == expected, f"{name} trace {trace}: metrics {emitted} != {expected}")
        for k, m in result["metrics"].items():
            expect(isinstance(m["value"], (int, float)), f"{name}: {k} is not a number")
        expect(result["attempted"] >= 1 + trace and result["failed"] == 0, (name, trace, result["errors"]))
        expect(result["counts"], f"{name}: no published counts")
        if trace:
            spans = result["span_counts"]
            missing = [b for b in layers["workloads"][name]["boundaries"] if not spans.get(b)]
            expect(not missing, f"{name}: no span for {missing}")
        print(f"ok  {name} trace {trace}: {len(emitted)} metrics, {result['attempted']} operations")


def check_bare_copy() -> None:
    bare = run.OUT_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "study",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print(f"ok  bare copy exits {proc.returncode} without a result")


def main() -> int:
    started = time.monotonic()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads differ from run.WORKLOADS")
    expect(set(layers["metrics"]) == {m["name"] for m in spec["per_layer"]}, "layers.json and BENCHMARK.json disagree")
    for name in run.WORKLOADS:
        check_workload(name, spec, layers)
    check_bare_copy()
    print(f"self-check passed in {time.monotonic() - started:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
