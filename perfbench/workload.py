"""One benchmark workload in one process: set up, time operations, check them.

Started by ``run.py`` (never by hand in a measurement) as

    python3 perfbench/workload.py --workload NAME --seed N --budget S \
        --trace 0|1 --role measure|setup --size full|tiny --out DIR

With ``--role setup`` the process stops at the point where the first
timed call would start; ``run.py`` times several of these to get a
steady set-up figure.  With ``--role measure`` it then runs whole
operations until the next one would end past ``--budget`` seconds (and
at least one, or one untraced plus one traced with ``--trace 1``),
checks every operation's outputs after its clock stops, and writes
``DIR/result.json``.

An operation is made of user-visible calls, made in-process:

- ``study``: ``deepibp experiment`` through ``cli.main``;
- ``layerwise``: ``deepibp infer --depth 2`` through ``cli.main``, once
  on each of the seed's datasets;
- ``oracle``: ``deepibp validate`` through ``cli.main``, then a
  shortened criterion-5 ``oracle.geweke_moment_zs`` run.

Every operation of a run repeats the same inputs, so the counts it
publishes must be identical from one operation to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

N_DIMS = 16
N_INSTANCES = 200

# Per-workload sizes.  "full" is what the benchmark measures; "tiny" is
# for the harness self-check and proves nothing about the program.  A
# chain's cost follows its K path, which the seed sets, so study and
# layerwise spread their work over many short chains and several
# datasets: the work of an operation then varies by about 5% between
# seeds instead of 15-25%.
SIZES = {
    "full": {
        "study": {"k_true_values": [3, 8], "iterations": 8, "replicates": 5},
        "layerwise": {"datasets": 3, "widths": [5, 3], "init_k": 5, "iterations": 15, "outer_loops": 3},
        "oracle": {"n_prior": 20_000, "n_sweeps": 5_000, "burn_in": 500, "batches": 25,
                   "tv_kept": 20_000},
    },
    "tiny": {
        "study": {"k_true_values": [3, 8], "iterations": 2, "replicates": 1},
        "layerwise": {"datasets": 1, "widths": [5, 3], "init_k": 5, "iterations": 2, "outer_loops": 2},
        "oracle": {"n_prior": 200, "n_sweeps": 40, "burn_in": 0, "batches": 4, "tv_kept": 20},
    },
}

# Frozen-state shape of the oracle suite (oracle.frozen_kernel_state and
# geweke_moment_zs defaults), and the draws ``deepibp validate`` keeps in
# each of its weight and factor TV checks, one single-entry kernel call
# per thinning step.  The traced run counts the calls and so catches a
# change to either.
ORACLE_N, ORACLE_K, ORACLE_T = 4, 2, 10
VALIDATE_TV_KEPT, VALIDATE_TV_THIN = 20_000, 5
GEWEKE_Z_LIMIT = 4.0
# The Geweke run uses criterion 5's seed, as validate uses fixed seeds of
# its own: the oracle workload's work does not depend on the seed, and at
# this length the batch-means z of mean_w_sq reaches 4 on a few percent
# of seeds, which would make the verdict a lottery rather than a check.
GEWEKE_SEED = 404
# Criterion 6's recovery band: K-hat within [K - 1, K + 5].
BAND_BELOW, BAND_ABOVE = 1.0, 5.0


class CheckFailed(Exception):
    """An operation's output is wrong."""


# -- inputs -------------------------------------------------------------

def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _two_layer_data(seed: int, index: int, widths: list[int]):
    """Draw X (N_DIMS x N_INSTANCES) from a two-layer variance-routed truth.

    Masks are Bernoulli(1/2) redrawn until every column has at least two
    links and every row at least one, so each true factor is recoverable
    and no observed row sits at the noise floor.
    """
    import numpy as np

    rng = np.random.default_rng([seed, index])
    rows = [N_DIMS] + list(widths)  # rows[i] x rows[i + 1] is layer i's weight shape

    def weights(n, k):
        while True:
            mask = rng.random((n, k)) < 0.5
            if (mask.sum(axis=0) >= 2).all() and (mask.sum(axis=1) >= 1).all():
                return mask * rng.standard_normal((n, k))

    layers = [weights(rows[i], rows[i + 1]) for i in range(len(widths))]
    Y = rng.standard_normal((widths[-1], N_INSTANCES))
    for W in reversed(layers):
        Y = np.maximum(np.abs(W @ Y), 1e-6) * rng.standard_normal((W.shape[0], N_INSTANCES))
    return Y


def make_inputs(workload: str, seed: int, size: dict, work: Path) -> dict:
    """Generate the program's input files from the seed; return op settings."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "study":
        config = work / "study.json"
        _write_json(config, {"experiment": {
            "n_dims": N_DIMS,
            "n_instances": N_INSTANCES,
            "k_true_values": size["k_true_values"],
            "iterations": size["iterations"],
            "replicates": size["replicates"],
        }})
        return {"config": config}
    if workload == "layerwise":
        data = []
        for j in range(size["datasets"]):
            X = _two_layer_data(seed, j, size["widths"])
            lines = [",".join(f"t{t}" for t in range(X.shape[1]))]
            lines += [",".join(repr(float(v)) for v in row) for row in X]
            data.append(work / f"data{j}.csv")
            data[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = work / "infer.json"
        _write_json(config, {
            "model": {"layer_widths": size["widths"]},
            "inference": {"init_k": size["init_k"], "iterations": size["iterations"],
                          "layerwise_outer_loops": size["outer_loops"]},
        })
        return {"config": config, "data": data}
    return {}


# -- output parsing -----------------------------------------------------

def _read_trace(path: Path) -> list[tuple[int, float, int, int]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "iteration,K,log_joint,accepted_adds,accepted_deletes":
        raise CheckFailed(f"{path.name}: unexpected header {lines[0]!r}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        it, k, lj, adds, dels = line.split(",")
        if int(it) != i:
            raise CheckFailed(f"{path.name}: row {i} numbered {it}")
        lj = float(lj)
        if not math.isfinite(lj):
            raise CheckFailed(f"{path.name}: non-finite log-joint at iteration {i}")
        rows.append((int(k), lj, int(adds), int(dels)))
    return rows


def _visits(rows, n_rows: int, T: int) -> tuple[int, int]:
    """(weight-entry, factor-entry) visits of a chain segment: sum of N.K and K.T."""
    ks = sum(r[0] for r in rows)
    return n_rows * ks, T * ks


def _mean_tail(ks: list[int], burn_in: float) -> float:
    tail = ks[int(math.floor(len(ks) * burn_in)):]
    return sum(tail) / len(tail)


# -- operations ---------------------------------------------------------

def _quiet_main(argv: list[str]) -> tuple[int, str]:
    from deepibp import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_study(seed: int, size: dict, inputs: dict, out: Path) -> dict:
    rc, _ = _quiet_main(["experiment", "--config", str(inputs["config"]), "--out", str(out),
                         "--seed", str(seed), "--jobs", "1"])
    return {"rc": rc}


def check_study(size: dict, out: Path, result: dict) -> tuple[dict, dict]:
    if result["rc"] != 0:
        raise CheckFailed(f"experiment exited {result['rc']}")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    burn_in = manifest["config"]["burn_in"]
    summary = {}
    for line in (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]:
        k_true, init, mean, _var = line.split(",")
        summary[(int(k_true), init)] = float(mean)
    trials = manifest["trials"]
    expected = len(size["k_true_values"]) * 3 * size["replicates"]
    if len(trials) != expected:
        raise CheckFailed(f"{len(trials)} trials in the manifest, expected {expected}")
    counts = {"chains": 0, "iterations": 0, "weight_visits": 0, "factor_visits": 0,
              "accepted_adds": 0, "accepted_deletes": 0, "k_hat": []}
    cells: dict[tuple[int, str], list[float]] = {}
    for trial in trials:
        rows = _read_trace(out / trial["trace_file"])
        if len(rows) != size["iterations"]:
            raise CheckFailed(f"{trial['trace_file']}: {len(rows)} rows, expected {size['iterations']}")
        k_hat = _mean_tail([r[0] for r in rows], burn_in)
        if not math.isclose(k_hat, trial["k_hat"], rel_tol=1e-12):
            raise CheckFailed(f"{trial['trace_file']}: K-hat {trial['k_hat']} disagrees with its trace ({k_hat})")
        cells.setdefault((trial["k_true"], trial["init"]), []).append(k_hat)
        wv, fv = _visits(rows, N_DIMS, N_INSTANCES)
        counts["chains"] += 1
        counts["iterations"] += len(rows)
        counts["weight_visits"] += wv
        counts["factor_visits"] += fv
        counts["accepted_adds"] += sum(r[2] for r in rows)
        counts["accepted_deletes"] += sum(r[3] for r in rows)
        counts["k_hat"].append(repr(k_hat))
    for cell, values in cells.items():
        if not math.isclose(summary.get(cell, math.nan), sum(values) / len(values), rel_tol=1e-12):
            raise CheckFailed(f"summary.csv mean for {cell} disagrees with the traces")
    # Criterion 6's band and ordering, pooled per K_true.  Published with
    # every run but not counted as a failure: K barely moves within these
    # short chains (the dimension move does not mix), so the pooled K-hat
    # is set mostly by the random3to10 init draws and leaves the band for
    # K_true = 8 on most seeds, however fast or correct the kernels are.
    pooled = {}
    for k_true in size["k_true_values"]:
        vals = [v for (k, _), vs in cells.items() if k == k_true for v in vs]
        pooled[k_true] = sum(vals) / len(vals)
    ordered = list(pooled.values())
    recovery = {
        "pooled_k_hat": {str(k): round(v, 4) for k, v in pooled.items()},
        "in_band": all(k - BAND_BELOW <= v <= k + BAND_ABOVE for k, v in pooled.items()),
        "nondecreasing": all(a <= b for a, b in zip(ordered, ordered[1:])),
    }
    return counts, recovery


def run_layerwise(seed: int, size: dict, inputs: dict, out: Path) -> dict:
    # Each dataset gets its own chain seed: with a shared one the K paths
    # of the datasets move together and averaging over them steadies nothing.
    rcs = [
        _quiet_main(["infer", str(data), "--config", str(inputs["config"]), "--out", str(out / data.stem),
                     "--seed", str(seed * 100 + j), "--depth", "2"])[0]
        for j, data in enumerate(inputs["data"])
    ]
    return {"rc": rcs}


def check_layerwise(size: dict, out: Path, result: dict) -> tuple[dict, dict]:
    per_dataset = []
    for j, rc in enumerate(result["rc"]):
        if rc != 0:
            raise CheckFailed(f"infer on data{j}.csv exited {rc}")
        per_dataset.append(_check_infer(size, out / f"data{j}"))
    counts = {k: [c[k] for c in per_dataset] for k in per_dataset[0]}
    for k in ("outer_loops", "iterations", "weight_visits", "factor_visits"):
        counts[k] = sum(counts[k])
    return counts, {}


def _check_infer(size: dict, out: Path) -> dict:
    iters = size["iterations"]
    layer1 = _read_trace(out / "trace_layer1.csv")
    layer2 = _read_trace(out / "trace_layer2.csv")
    loops = len(layer1) // iters
    if len(layer1) != loops * iters or len(layer2) != len(layer1) or not 1 <= loops <= size["outer_loops"]:
        raise CheckFailed(f"trace lengths {len(layer1)}, {len(layer2)} do not match {iters}-iteration chains")
    state = json.loads((out / "state.json").read_text(encoding="utf-8"))
    if [layer["level"] for layer in state["layers"]] != [1, 2]:
        raise CheckFailed("state.json does not hold layers 1 and 2")
    for layer in state["layers"]:
        if not math.isfinite(layer["log_joint"]):
            raise CheckFailed(f"state.json: non-finite log-joint in layer {layer['level']}")
        if any(len(row) != layer["k"] for row in layer["mask_rows"]):
            raise CheckFailed(f"state.json: layer {layer['level']} mask is not {layer['k']} wide")
    counts = {"outer_loops": loops, "iterations": len(layer1) + len(layer2),
              "weight_visits": 0, "factor_visits": 0,
              "final_k": [layer["k"] for layer in state["layers"]],
              "final_log_joint": [repr(layer["log_joint"]) for layer in state["layers"]]}
    for o in range(loops):
        seg1 = layer1[o * iters:(o + 1) * iters]
        seg2 = layer2[o * iters:(o + 1) * iters]
        # Layer 2's data is layer 1's factor matrix as its chain ended.
        for rows, n_rows in ((seg1, N_DIMS), (seg2, seg1[-1][0])):
            wv, fv = _visits(rows, n_rows, N_INSTANCES)
            counts["weight_visits"] += wv
            counts["factor_visits"] += fv
    for level, rows in ((1, layer1), (2, layer2)):
        counts[f"accepted_adds_layer{level}"] = sum(r[2] for r in rows)
        counts[f"accepted_deletes_layer{level}"] = sum(r[3] for r in rows)
    return counts


def run_oracle(seed: int, size: dict, inputs: dict, out: Path) -> dict:
    from deepibp import oracle

    rc, text = _quiet_main(["validate"])
    zs = oracle.geweke_moment_zs(n_prior=size["n_prior"], n_sweeps=size["n_sweeps"],
                                 burn_in=size["burn_in"], batches=size["batches"], seed=GEWEKE_SEED)
    return {"rc": rc, "text": text, "zs": zs}


def check_oracle(size: dict, out: Path, result: dict) -> tuple[dict, dict]:
    tv_calls = size["tv_kept"] * VALIDATE_TV_THIN
    counts = {
        "weight_visits": tv_calls + size["n_sweeps"] * ORACLE_N * ORACLE_K,
        "factor_visits": tv_calls + size["n_sweeps"] * ORACLE_K * ORACLE_T,
        "validate_report": result["text"].splitlines(),
        "geweke_z": {k: repr(v) for k, v in sorted(result["zs"].items())},
    }
    if size["tv_kept"] == VALIDATE_TV_KEPT:
        if result["rc"] != 0:
            raise CheckFailed("validate failed: " + "; ".join(
                line for line in counts["validate_report"] if line.startswith("FAIL")))
        worst = max(result["zs"].values())
        if not worst < GEWEKE_Z_LIMIT:
            raise CheckFailed(f"Geweke max |z| {worst:.2f} not below {GEWEKE_Z_LIMIT}")
    return counts, {}


OPS = {
    "study": (run_study, check_study),
    "layerwise": (run_layerwise, check_layerwise),
    "oracle": (run_oracle, check_oracle),
}


@contextlib.contextmanager
def _sized_validate(tv_kept: int):
    """At tiny size, shrink validate's two kernel TV checks to ``tv_kept`` draws."""
    if tv_kept == VALIDATE_TV_KEPT:
        yield
        return
    from deepibp import oracle

    saved = oracle.weight_kernel_tv, oracle.factor_kernel_tv
    oracle.weight_kernel_tv = lambda **kw: saved[0](**{**kw, "kept": tv_kept})
    oracle.factor_kernel_tv = lambda **kw: saved[1](**{**kw, "kept": tv_kept})
    try:
        yield
    finally:
        oracle.weight_kernel_tv, oracle.factor_kernel_tv = saved


# -- per-layer metrics from one traced operation -------------------------

def layer_metrics(tracer, first: int, before: dict, op_counts: dict) -> tuple[dict, dict]:
    """Per-layer metrics and span counts of the traced operation that began at span ``first``."""
    span = tracer.summary(first)
    delta = {k: tracer.counts[k] - before.get(k, 0) for k in tracer.counts}

    def ratio(a, b):
        return a / b if b else 0.0

    def per(name, unit_scale, base):
        return ratio(span[name]["inclusive_s"], base) * unit_scale

    def layer_self(prefix):
        return sum(v["self_s"] for k, v in span.items() if k.startswith(prefix + "."))

    chain_groups = tracer.children("inference.layerwise", "inference.chain", first)
    layer_s = [0.0, 0.0]
    for group in chain_groups:
        for i, d in enumerate(group):
            layer_s[i % 2] += d
    weight_calls = span["inference.weight"]["count"]
    entries = delta.get("factor_entries", 0)
    return {
        "inference.weight_calls": weight_calls,
        "inference.weight_us_per_call": per("inference.weight", 1e6, weight_calls),
        "inference.weight_proposed": delta.get("weight_proposed", 0),
        "inference.weight_accept_ratio": ratio(delta.get("weight_accepted", 0), delta.get("weight_proposed", 0)),
        "inference.factor_calls": span["inference.factor"]["count"],
        "inference.factor_entries": entries,
        "inference.factor_us_per_entry": per("inference.factor", 1e6, entries),
        "inference.factor_proposed": delta.get("factor_proposed", 0),
        "inference.factor_accept_ratio": ratio(delta.get("factor_accepted", 0), delta.get("factor_proposed", 0)),
        "inference.dim_proposals": delta.get("add_proposed", 0) + delta.get("delete_proposed", 0),
        "inference.dim_s": span["inference.dim"]["inclusive_s"],
        "inference.add_proposed": delta.get("add_proposed", 0),
        "inference.add_accept_ratio": ratio(delta.get("add_accepted", 0), delta.get("add_proposed", 0)),
        "inference.delete_proposed": delta.get("delete_proposed", 0),
        "inference.delete_accept_ratio": ratio(delta.get("delete_accepted", 0), delta.get("delete_proposed", 0)),
        "inference.refresh_calls": span["inference.refresh"]["count"],
        "inference.refresh_us_per_call": per("inference.refresh", 1e6, span["inference.refresh"]["count"]),
        "model.log_joint_calls": span["model.log_joint"]["count"],
        "model.log_joint_s": span["model.log_joint"]["inclusive_s"],
        "ibp.mask_marginal_s": span["ibp.mask_marginal"]["inclusive_s"],
        "inference.chain_calls": span["inference.chain"]["count"],
        "inference.chain_self_s": span["inference.chain"]["self_s"],
        "inference.layerwise_outer_loops": op_counts.get("outer_loops", 0),
        "inference.layer1_s": layer_s[0],
        "inference.layer2_s": layer_s[1],
        "experiment.trial_s": span["experiment.run_trial"]["inclusive_s"],
        "experiment.self_s": layer_self("experiment"),
        "oracle.weight_tv_s": span["oracle.weight_tv"]["inclusive_s"],
        "oracle.factor_tv_s": span["oracle.factor_tv"]["inclusive_s"],
        "oracle.geweke_s": span["oracle.geweke"]["inclusive_s"],
        "oracle.self_s": layer_self("oracle"),
        "dataio.write_s": span["dataio.write"]["inclusive_s"],
        "dataio.bytes_written": delta.get("bytes_written", 0),
        "dataio.read_s": span["dataio.read"]["inclusive_s"] + span["dataio.read_json"]["inclusive_s"],
        "cli.self_s": span["cli.main"]["self_s"],
    }, {name: rec["count"] for name, rec in span.items()}


# -- environment ----------------------------------------------------------

# Thread-pool sizes run.py pins to 1 in every workload process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# -- main ------------------------------------------------------------------

def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(OPS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("measure", "setup"), default="measure")
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args()

    out = Path(args.out)
    size = SIZES[args.size][args.workload]
    run_op, check_op = OPS[args.workload]

    import deepibp.cli  # noqa: F401  (the import is part of set-up)

    inputs = make_inputs(args.workload, args.seed, size, out / "inputs")
    setup_done = time.time()
    result = {"setup_end_wall": setup_done}
    if args.role == "setup":
        _write_json(out / "result.json", result)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    ops = []
    deadline = time.perf_counter() + args.budget
    min_ops = 2 if args.trace else 1
    with _sized_validate(size.get("tv_kept", VALIDATE_TV_KEPT)):
        while True:
            i = len(ops)
            traced = tracer is not None and i % 2 == 1
            op_dir = out / f"op{i}"
            rec = {"traced": traced, "ok": False, "error": None}
            if traced:
                first, before = tracer.mark(), dict(tracer.counts)
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer:
                        res = run_op(args.seed, size, inputs, op_dir)
                else:
                    res = run_op(args.seed, size, inputs, op_dir)
            except Exception:
                res = None
                rec["error"] = traceback.format_exc(limit=3)
            rec["wall_s"] = time.perf_counter() - t0
            if res is not None:
                try:
                    rec["counts"], rec["recovery"] = check_op(size, op_dir, res)
                    rec["ok"] = True
                except (CheckFailed, OSError, KeyError, IndexError, ValueError) as exc:
                    rec["error"] = f"{type(exc).__name__}: {exc}"
            if traced and rec["ok"]:
                rec["layers"], rec["span_counts"] = layer_metrics(tracer, first, before, rec["counts"])
            shutil.rmtree(op_dir, ignore_errors=True)
            ops.append(rec)
            if len(ops) >= min_ops and time.perf_counter() + rec["wall_s"] > deadline:
                break

    result.update({
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    if tracer is not None:
        tracer.write(out / "spans.csv")
    _write_json(out / "result.json", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
