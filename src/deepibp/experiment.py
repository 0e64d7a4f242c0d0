"""Factor-count recovery study: sweep the true K, infer, aggregate.

For each true factor count one dataset is generated; every (init
strategy, replicate) cell then runs an independent chain on that shared
dataset.  Seeds derive from the cell identity alone, so results do not
depend on execution order or on how many worker processes run the
trials.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dataio
from .inference import ChainTrace, InferenceConfig, check_init_k, run_mh_layer
from .model import HyperParams, LayerHyper, LayerTarget, as_int, as_real, draw_routed

__all__ = [
    "DEFAULT_INITS",
    "ExperimentConfig",
    "SummaryRow",
    "SummaryStats",
    "TrialResult",
    "emit_report",
    "init_name",
    "make_dataset",
    "run_experiment",
    "run_trial",
    "summarize",
    "trace_filename",
]


# Starting factor counts, as InferenceConfig.init_k takes them: an int
# is a fixed start, a (lo, hi) pair a uniform draw from lo..hi.
DEFAULT_INITS: tuple[int | tuple[int, int], ...] = (2, 10, (3, 10))


def init_name(init_k: int | tuple[int, int]) -> str:
    """The report label of a starting count: ``fixed2`` or ``random3to10``."""
    if isinstance(init_k, tuple):
        lo, hi = init_k
        return f"random{lo}to{hi}"
    return f"fixed{init_k}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Study protocol: data dimensions, sweep grid, chain settings.

    ``inits`` holds one starting factor count per init cell, in the form
    of ``InferenceConfig.init_k``.  Every truth and every chain uses
    ``layer_hyper``.
    """

    n_dims: int = 16
    n_instances: int = 200
    k_true_values: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9, 10)
    inits: tuple[int | tuple[int, int], ...] = DEFAULT_INITS
    iterations: int = 200
    replicates: int = 10
    burn_in: float = 0.75
    base_seed: int = 0
    layer_hyper: LayerHyper = HyperParams().layer(0)

    def __post_init__(self) -> None:
        if as_int(self.n_dims, "n_dims") < 1:
            raise ValueError("n_dims must be >= 1")
        if as_int(self.n_instances, "n_instances") < 1:
            raise ValueError("n_instances must be >= 1")
        if as_int(self.replicates, "replicates") < 1:
            raise ValueError("replicates must be >= 1")
        for name in ("k_true_values", "inits"):
            if not isinstance(value := getattr(self, name), (list, tuple)) or not value:
                raise ValueError(f"{name} must be a nonempty list, got {value!r}")
        if not 0.0 <= as_real(self.burn_in, "burn_in") < 1.0:
            raise ValueError("burn_in must lie in [0, 1)")
        if as_int(self.iterations, "iterations") < 1:
            raise ValueError("iterations must be >= 1")
        object.__setattr__(self, "k_true_values", tuple(as_int(k, "k_true_values") for k in self.k_true_values))
        if min(self.k_true_values) < 0:
            raise ValueError("k_true_values must be >= 0")
        object.__setattr__(self, "inits", tuple(check_init_k(k, "inits") for k in self.inits))
        # A repeat would rerun the same seeded chains under one label.
        for name in ("k_true_values", "inits"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {list(values)}")


@dataclass
class TrialResult:
    """One chain's outcome for a (K_true, init, replicate) cell."""

    k_true: int
    init_index: int
    init_name: str
    replicate: int
    seed_key: tuple[int, int, int, int]
    trace: ChainTrace
    k_hat: float
    wall_seconds: float


@dataclass(frozen=True)
class SummaryRow:
    k_true: int
    init_name: str
    mean: float
    variance: float
    count: int


@dataclass(frozen=True)
class SummaryStats:
    rows: tuple[SummaryRow, ...]

    def cell(self, k_true: int, init_name: str) -> SummaryRow:
        for row in self.rows:
            if row.k_true == k_true and row.init_name == init_name:
                return row
        raise KeyError(f"no cell ({k_true}, {init_name})")


def make_dataset(cfg: ExperimentConfig, k_true: int) -> np.ndarray:
    """The shared dataset for one true factor count, seeded by identity.

    The truth is a one-layer prior draw whose every factor column
    drives at least two observed dimensions: a column that is empty or
    linked to a single dimension would leave the dataset without k_true
    recoverable factors.  That needs ``cfg.n_dims >= 2`` whenever
    ``k_true > 0``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed, int(k_true)]))
    lh = cfg.layer_hyper
    mask, slab, Y = LayerTarget(lh).draw(cfg.n_dims, k_true, cfg.n_instances, rng, min_links=2)
    return draw_routed(mask * slab, Y, lh.sigma_floor, rng)


def point_estimate(k_trace: np.ndarray, burn_in: float) -> float:
    """Mean factor count over the post-burn-in span of the trace."""
    start = int(np.floor(len(k_trace) * burn_in))
    return float(np.mean(k_trace[start:]))


def run_trial(cfg: ExperimentConfig, X: np.ndarray, k_true: int, init_index: int, replicate: int) -> TrialResult:
    """Run one chain on ``make_dataset(cfg, k_true)``, passed in as ``X``.

    The chain is fully determined by (base_seed, K_true, init, replicate).
    """
    init = cfg.inits[init_index]
    seed_key = (cfg.base_seed, int(k_true), int(init_index), int(replicate))
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_key)))
    icfg = InferenceConfig(iterations=cfg.iterations, init_k=init)
    started = time.perf_counter()
    _, trace = run_mh_layer(X, icfg, LayerTarget(cfg.layer_hyper), rng=rng)
    elapsed = time.perf_counter() - started
    return TrialResult(
        k_true=k_true,
        init_index=init_index,
        init_name=init_name(init),
        replicate=replicate,
        seed_key=seed_key,
        trace=trace,
        k_hat=point_estimate(trace.k, cfg.burn_in),
        wall_seconds=elapsed,
    )


def _run_trial_star(args) -> TrialResult:
    return run_trial(*args)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[list[TrialResult], SummaryStats]:
    """Run the full grid; trials are independent and may run in parallel.

    The result list is ordered by (K_true, init, replicate) regardless
    of scheduling.
    """
    datasets = {k_true: make_dataset(cfg, k_true) for k_true in cfg.k_true_values}
    specs = [
        (cfg, datasets[k_true], k_true, init_index, replicate)
        for k_true in cfg.k_true_values
        for init_index in range(len(cfg.inits))
        for replicate in range(cfg.replicates)
    ]
    if jobs <= 1:
        results = [_run_trial_star(spec) for spec in specs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_trial_star, specs, chunksize=1))
    return results, summarize(results)


def summarize(results: list[TrialResult]) -> SummaryStats:
    """Sample mean and unbiased variance of K-hat per (K_true, init) cell."""
    if not results:
        raise ValueError("no results to summarize")
    cells: dict[tuple[int, int, str], list[float]] = {}
    for r in results:
        cells.setdefault((r.k_true, r.init_index, r.init_name), []).append(r.k_hat)
    rows = []
    for (k_true, _idx, name), values in sorted(cells.items()):
        arr = np.asarray(values)
        var = float(np.var(arr, ddof=1)) if len(arr) > 1 else 0.0
        rows.append(SummaryRow(k_true=k_true, init_name=name, mean=float(arr.mean()),
                               variance=var, count=len(arr)))
    return SummaryStats(rows=tuple(rows))


def trace_filename(k_true: int, init_index: int, replicate: int) -> str:
    return f"Ktrue{k_true}_init{init_index}_rep{replicate}.csv"


def emit_report(stats: SummaryStats, results: list[TrialResult], path, *,
                cfg: ExperimentConfig, jobs: int) -> None:
    """Write summary.csv, per-trial trace CSVs and a manifest.

    The manifest echoes the config, with its layer hyperparameters in a
    ``hyper`` block, maps init indices to strategies, records per-trial
    seeds and timings, and pins library versions.
    Timings vary run to run; every CSV body is a pure function of the
    config and seed.
    """
    out = Path(path)
    lines = ["K_true,init,mean,variance"]
    for row in stats.rows:
        lines.append(
            f"{row.k_true},{row.init_name},{dataio.format_float(row.mean)},{dataio.format_float(row.variance)}"
        )
    dataio.atomic_write_text(out / "summary.csv", "\n".join(lines) + "\n")

    for r in results:
        dataio.write_trace_csv(out / "traces" / trace_filename(r.k_true, r.init_index, r.replicate), r.trace)

    manifest = {
        "kind": "factor-recovery-experiment",
        "version": 1,
        "config": {
            f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in ("inits", "layer_hyper")
        },
        "hyper": asdict(cfg.layer_hyper),
        "inits": [
            {"index": i, "name": init_name(k),
             **({"kind": "uniform", "lo": k[0], "hi": k[1]} if isinstance(k, tuple)
                else {"kind": "fixed", "value": k})}
            for i, k in enumerate(cfg.inits)
        ],
        "jobs": jobs,
        "trials": [
            {
                "k_true": r.k_true,
                "init": r.init_name,
                "init_index": r.init_index,
                "replicate": r.replicate,
                "seed_key": list(r.seed_key),
                "k_hat": r.k_hat,
                "wall_seconds": r.wall_seconds,
                "trace_file": f"traces/{trace_filename(r.k_true, r.init_index, r.replicate)}",
            }
            for r in results
        ],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    dataio.write_json(out / "manifest.json", manifest)
