#!/usr/bin/env python3
"""Check that the working tree writes the same bytes as an earlier revision.

    python3 tools/same_bytes.py REV

Exports REV with ``git archive`` into a temporary directory and runs one
fixed-seed command set on that tree and on the working tree:

- ``generate`` with layer widths [6, 3] at 16 x 200, seeds 3 and 8;
- ``infer --depth 1, 2, 3`` on each of those datasets;
- ``generate`` with layer widths [6, 3, 2] at 16 x 200, seed 3, so the
  forward draw is checked over three layers;
- ``experiment`` with K_true 3 and 8, 2 replicates and 20 iterations,
  seeds 17 and 23;
- ``validate`` (its printed report);
- ``oracle.txt``: the ``repr`` of every ``oracle.run_validation()``
  check error and of each ``geweke_moment_zs`` z value at 2000 prior
  draws, 400 sweeps, burn-in 40, 8 batches and seed 404, since
  ``validate`` rounds its errors to 4 digits and no CLI file holds a
  Geweke draw;
- ``ratios.txt``: the ``repr`` of ``log_ratio_add``, of
  ``log_ratio_delete`` for every unlinked column and of
  ``model.log_joint`` on 20 seeded states, half of them under an upper
  layer, before and after one ``gibbs_sweep``, since a drift of one ulp
  in a dimension-move ratio seldom flips an accept and so changes no
  other file;
- the printed output of each fixed-seed demo in ``demos/`` that prints
  no timings (``recovery_study_mini`` prints wall times).  Each tree
  runs its own copy of the demos.

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
DEEP_GENERATE = {"model": {"layer_widths": [6, 3, 2]}, "experiment": {"n_dims": 16, "n_instances": 200}}
DEEP_SEED = 3
EXPERIMENT = {
    "experiment": {"n_dims": 16, "n_instances": 200, "k_true_values": [3, 8], "replicates": 2, "iterations": 20}
}
DATA_SEEDS = (3, 8)
DEPTHS = (1, 2, 3)
STUDY_SEEDS = (17, 23)
DEMOS = ("generate_and_inspect", "mask_prior_checks", "single_layer_inference")
ORACLE = (
    "from deepibp import oracle\n"
    "for check in oracle.run_validation().checks:\n"
    "    print(f'{check.name}: {check.error!r}')\n"
    "zs = oracle.geweke_moment_zs(n_prior=2000, n_sweeps=400, burn_in=40, batches=8, seed=404)\n"
    "for name, z in zs.items():\n"
    "    print(f'geweke {name}: {z!r}')\n"
)

RATIOS = """\
import numpy as np
from deepibp import model
from deepibp.inference import ChainState, gibbs_sweep, log_ratio_add, log_ratio_delete
for seed in range(20):
    rng = np.random.default_rng([505, seed])
    N, K, T = 3 + seed % 5, seed % 6, 7
    hyper = model.LayerHyper(alpha_ibp=(0.5, 2.0, 5.0)[seed % 3], ig_shape=2.0, ig_scale=1.0,
                             sigma_top=1.0, sigma_floor=1e-3)
    upper = (rng.standard_normal((K, 2)), rng.standard_normal((2, T))) if seed % 2 else ()
    mask = (rng.random((N, K)) < 0.5 * rng.integers(0, 2, K)).astype(np.int8)  # about half unlinked
    state = ChainState(X=rng.standard_normal((N, T)), Y=rng.standard_normal((K, T)), mask=mask,
                       slab=rng.standard_normal((N, K)), target=model.LayerTarget(hyper, *upper))
    for when in ("drawn", "swept"):
        print(seed, when, "add", repr(log_ratio_add(state)))
        for k in np.flatnonzero(state.m == 0).tolist():
            print(seed, when, "delete", k, repr(log_ratio_delete(state, k)))
        print(seed, when, "log_joint", repr(model.log_joint(state)))
        gibbs_sweep(state, rng)
"""


def commands(configs: Path, demos: Path) -> list[tuple[list[str], str | None]]:
    """Each Python call as (arguments, file for its stdout or None), in run order.

    ``demos`` is the demo directory of the tree being run.
    """
    gen, study = str(configs / "generate.json"), str(configs / "experiment.json")
    deep = str(configs / "deep_generate.json")
    cli = ["-m", "deepibp.cli"]
    out: list[tuple[list[str], str | None]] = []
    for seed in DATA_SEEDS:
        data = f"data{seed}"
        out.append(([*cli, "generate", "--config", gen, "--out", data, "--seed", str(seed)], None))
        for depth in DEPTHS:
            out.append(([*cli, "infer", f"{data}/data.csv", "--config", gen, "--out", f"{data}/depth{depth}",
                         "--seed", str(seed), "--depth", str(depth)], None))
    out.append(([*cli, "generate", "--config", deep, "--out", f"deep{DEEP_SEED}", "--seed", str(DEEP_SEED)], None))
    for seed in STUDY_SEEDS:
        out.append(([*cli, "experiment", "--config", study, "--out", f"study{seed}", "--seed", str(seed)], None))
    out.append(([*cli, "validate"], "validate.txt"))
    out.append((["-c", ORACLE], "oracle.txt"))
    out.append((["-c", RATIOS], "ratios.txt"))
    for name in DEMOS:
        out.append(([str(demos / f"{name}.py")], f"{name}.txt"))
    return out


def run_tree(src: Path, work: Path, configs: Path) -> None:
    """Run every command with ``src`` on the path, and the demos beside it, writing under ``work``."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(src)
    work.mkdir(parents=True)
    for args, stdout_name in commands(configs, src.parent / "demos"):
        proc = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{src}: python {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
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
        (configs / "deep_generate.json").write_text(json.dumps(DEEP_GENERATE), encoding="utf-8")
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
