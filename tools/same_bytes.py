#!/usr/bin/env python3
"""Check that the working tree writes the same bytes as an earlier revision.

    python3 tools/same_bytes.py REV

Exports REV with ``git archive`` into a temporary directory and runs one
fixed-seed command set on that tree and on the working tree:

- ``generate`` with layer widths [6, 3] at 16 x 200, seeds 3 and 8;
- ``infer --depth 1, 2, 3`` on each of those datasets;
- ``experiment`` with K_true 3 and 8, 2 replicates and 20 iterations,
  seeds 17 and 23;
- ``validate`` (its printed report).

Then it compares every output file byte for byte.  Only the
``wall_seconds`` timings in ``manifest.json`` may differ.  Exits 0 when
nothing else differs and 1 otherwise, listing each differing file.
Each command runs single-threaded (BLAS and OpenMP pinned to one
thread), as the benchmark does, so rounding does not depend on the
machine's thread count.  A refactor that keeps the RNG stream must pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

GENERATE = {"model": {"layer_widths": [6, 3]}, "experiment": {"n_dims": 16, "n_instances": 200}}
EXPERIMENT = {
    "experiment": {"n_dims": 16, "n_instances": 200, "k_true_values": [3, 8], "replicates": 2, "iterations": 20}
}
DATA_SEEDS = (3, 8)
DEPTHS = (1, 2, 3)
STUDY_SEEDS = (17, 23)


def commands(configs: Path) -> list[tuple[list[str], str | None]]:
    """Each CLI call as (arguments, file for its stdout or None), in run order."""
    gen, study = str(configs / "generate.json"), str(configs / "experiment.json")
    out: list[tuple[list[str], str | None]] = []
    for seed in DATA_SEEDS:
        data = f"data{seed}"
        out.append((["generate", "--config", gen, "--out", data, "--seed", str(seed)], None))
        for depth in DEPTHS:
            out.append((["infer", f"{data}/data.csv", "--config", gen, "--out", f"{data}/depth{depth}",
                         "--seed", str(seed), "--depth", str(depth)], None))
    for seed in STUDY_SEEDS:
        out.append((["experiment", "--config", study, "--out", f"study{seed}", "--seed", str(seed)], None))
    out.append((["validate"], "validate.txt"))
    return out


def run_tree(src: Path, work: Path, configs: Path) -> None:
    """Run every command with ``src`` on the path, writing under ``work``."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(src)
    work.mkdir(parents=True)
    for args, stdout_name in commands(configs):
        proc = subprocess.run([sys.executable, "-m", "deepibp.cli", *args], cwd=work, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{src}: deepibp {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
        if stdout_name:
            (work / stdout_name).write_text(proc.stdout, encoding="utf-8")


def _drop_wall_seconds(doc):
    if isinstance(doc, dict):
        return {k: _drop_wall_seconds(v) for k, v in doc.items() if k != "wall_seconds"}
    if isinstance(doc, list):
        return [_drop_wall_seconds(v) for v in doc]
    return doc


def differences(old: Path, new: Path) -> tuple[int, list[str]]:
    """Files compared, and every relative path whose contents differ or exist on one side."""
    files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    files |= {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    diffs = []
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            diffs.append(f"{rel}: only under {'old' if a.is_file() else 'new'}")
            continue
        left, right = a.read_bytes(), b.read_bytes()
        if left == right:
            continue
        if rel.name == "manifest.json" and _drop_wall_seconds(json.loads(left)) == _drop_wall_seconds(
            json.loads(right)
        ):
            continue
        diffs.append(str(rel))
    return len(files), diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        old_tree = tmp / "old-tree"
        old_tree.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(old_tree)], input=archive.stdout, check=True)
        configs = tmp / "configs"
        configs.mkdir()
        (configs / "generate.json").write_text(json.dumps(GENERATE), encoding="utf-8")
        (configs / "experiment.json").write_text(json.dumps(EXPERIMENT), encoding="utf-8")
        runs = {"old": (old_tree / "src", tmp / "old"), "new": (ROOT / "src", tmp / "new")}
        with ThreadPoolExecutor(max_workers=2) as pool:
            for job in [pool.submit(run_tree, src, work, configs) for src, work in runs.values()]:
                job.result()
        n_files, diffs = differences(tmp / "old", tmp / "new")
    for line in diffs:
        print(f"differs: {line}")
    print(f"{n_files} files compared against {args.rev}: "
          f"{'no difference' if not diffs else f'{len(diffs)} differ'} outside manifest wall_seconds")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
