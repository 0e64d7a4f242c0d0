"""Benchmark of deepibp: the recovery study, depth-2 inference and the oracle suite.

    python3 perfbench/run.py --workload study|layerwise|oracle|all \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload runs in its own single-threaded process (BLAS
and OpenMP pinned to one thread) that imports deepibp, writes its inputs
from the seed and then times whole operations for about ``--seconds``
(see workload.py).  With ``--trace 0`` it prints the end-to-end metrics:

- ``setup_s``: process start to the first timed call, the median of
  three processes (two that stop there and the measuring one);
- ``wall_s``: median wall time of one operation, tracing off;
- ``entry_visits_per_s``: weight- plus factor-entry visits per second
  of an operation, median over operations;
- ``peak_rss_mb``: peak resident memory of the measuring process.

With ``--trace 1`` it alternates untraced and traced operations and
prints the per-layer metrics of the traced ones (tracer.py) plus the
tracing overhead.  Every operation's outputs are checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Counts that must repeat exactly for a seed
are compared across the run's operations; a mismatch is a harness fault
(exit 3, no result line).  Artifacts of the latest run of each workload
stay in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import OPS, THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOADS = tuple(OPS)
SETUP_PROBES = 2
RUN_LIMIT_S = 175.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "entry_visits_per_s": "1/s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The harness could not produce a trustworthy result."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(workload: str, seed: int, budget: float, trace: int, role: str, size: str,
          out: Path, deadline: float) -> dict:
    """Run one workload process to completion and return its result."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
           "--budget", str(budget), "--trace", str(trace), "--role", role, "--size", size,
           "--out", str(out)]
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} {role} process overran the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{workload} {role} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_end_wall"] - spawned
    return result


def _repeating(layers: dict) -> dict:
    """The per-layer values that must repeat exactly: counts and ratios of counts.

    Times vary, and so does dataio.bytes_written, because the study's
    manifest.json records wall times.
    """
    return {k: v for k, v in layers.items()
            if not k.endswith("_s") and "_us_" not in k and k != "dataio.bytes_written"}


def _same(values: list, what: str) -> None:
    if any(v != values[0] for v in values[1:]):
        raise HarnessError(f"harness fault: {what} differ between operations of one seed", code=3)


def summarize(trace: int, measured: dict, setup_samples: list[float]) -> dict:
    """Check the run's operations against each other and reduce them to metrics."""
    ops = measured["ops"]
    good = [op for op in ops if op["ok"]]
    _same([op["counts"] for op in good], "published counts")
    result = {
        "correct": len(good) == len(ops),
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {},
        "counts": good[0]["counts"] if good else None,
        "recovery": good[0]["recovery"] if good else None,
        "span_counts": None,
        "errors": [op["error"] for op in ops if not op["ok"]],
        "op_wall_s": [op["wall_s"] for op in ops],
        "setup_samples_s": setup_samples,
        "env": measured["env"],
    }
    if not trace:
        timed = good or ops
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(op["wall_s"] for op in timed),
            "entry_visits_per_s": statistics.median(
                (op["counts"]["weight_visits"] + op["counts"]["factor_visits"]) / op["wall_s"]
                for op in good) if good else 0.0,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    else:
        traced = [op for op in good if op["traced"]]
        untraced = [op for op in ops if not op["traced"]]
        units = per_layer_units()
        values = dict.fromkeys(units, 0.0)
        if traced:
            _same([op["span_counts"] for op in traced], "span counts")
            _same([_repeating(op["layers"]) for op in traced], "per-layer counts")
            counts, layers = traced[0]["counts"], traced[0]["layers"]
            result["span_counts"] = traced[0]["span_counts"]
            entries = layers["inference.weight_calls"] + layers["inference.factor_entries"]
            if entries != counts["weight_visits"] + counts["factor_visits"]:
                raise HarnessError(
                    f"harness fault: traced kernels visited {entries} entries, outputs imply "
                    f"{counts['weight_visits'] + counts['factor_visits']}", code=3)
            for name in layers:
                values[name] = statistics.median(op["layers"][name] for op in traced)
            values.update(_repeating(layers))
            values["harness.trace_overhead_s"] = (
                statistics.median(op["wall_s"] for op in traced)
                - statistics.median(op["wall_s"] for op in untraced))
    missing = set(values) - set(units)
    if missing:
        raise HarnessError(f"metrics without a unit: {sorted(missing)}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    out = OUT_ROOT / f"{workload}-trace{trace}" if size == "full" else OUT_ROOT / f"{size}-{workload}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    setup_samples = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = spawn(workload, seed, seconds, trace, "setup", size, out / f"probe{i}", deadline)
            setup_samples.append(probe["setup_s"])
    measured = spawn(workload, seed, seconds, trace, "measure", size, out / "measure", deadline)
    setup_samples.append(measured["setup_s"])
    result = summarize(trace, measured, setup_samples)
    (out / "summary.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result


def report(workload: str, seed: int, trace: int, result: dict) -> None:
    print(f"== {workload}  seed {seed}  trace {trace}  "
          f"operations {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  per-operation wall_s: {[round(t, 4) for t in result['op_wall_s']]}; "
          f"set-up samples: {[round(t, 4) for t in result['setup_samples_s']]}")
    print(f"  counts (repeat exactly for this seed): {json.dumps(result['counts'], sort_keys=True)}")
    if result["recovery"]:
        print(f"  recovery (criterion 6 band, not counted as a failure): {json.dumps(result['recovery'])}")
    for err in result["errors"]:
        print(f"  FAILED: {err.strip()}")
    print(f"  env: {json.dumps(result['env'], sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="deepibp benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not (SRC / "deepibp" / "__init__.py").is_file():
        print(f"error: deepibp sources not found under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            report(workload, args.seed, args.trace, results[workload])
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
