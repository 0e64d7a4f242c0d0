"""Factor-count recovery study: sweep the true K, infer, aggregate.

For each true factor count one dataset is generated; every (init
strategy, replicate) cell then runs an independent chain on that shared
dataset.  Seeds derive from the cell identity alone, so results do not
depend on execution order or on how many worker processes run the
trials.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dataio
from .ibp import logprob_mask_marginal_counts
from .inference import ChainTrace, InferenceConfig, check_init_k, run_mh_layer
from .model import GenerativeModel, HyperParams, LayerHyper, as_int, generate_dataset

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


# make_truth redraws the whole truth until every column links two
# dimensions; `deepibp experiment` refuses a K_true that needs more draws
# than this on average instead of leaving it to spin.
_MAX_TRUTH_DRAWS = 1e6


def _expected_truth_draws(n_dims: int, k_true: int, alpha: float) -> float:
    """Mean number of prior draws make_truth takes for ``k_true`` columns.

    Columns are independent; one links c of the n_dims dimensions with
    probability C(n_dims, c) times its mask-marginal term, and a draw is
    kept when no column links fewer than two.  A one-column mask priced
    at alpha / k_true gives that term without a k_true-long array.
    """
    if k_true == 0:
        return 1.0
    p0, p1 = (
        math.exp(logprob_mask_marginal_counts(np.array([c]), n_dims, alpha / k_true))
        for c in (0, 1)
    )
    p_keep = 1.0 - p0 - n_dims * p1
    if p_keep <= 0.0:
        return math.inf
    log_draws = -k_true * math.log(p_keep)
    return math.exp(log_draws) if log_draws < 700.0 else math.inf


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
        if not self.k_true_values:
            raise ValueError("k_true_values must be nonempty")
        if not 0.0 <= self.burn_in < 1.0:
            raise ValueError("burn_in must lie in [0, 1)")
        if as_int(self.iterations, "iterations") < 1:
            raise ValueError("iterations must be >= 1")
        if not self.inits:
            raise ValueError("at least one init strategy is required")
        object.__setattr__(self, "k_true_values", tuple(as_int(k, "k_true_values") for k in self.k_true_values))
        if min(self.k_true_values) < 0:
            raise ValueError("k_true_values must be >= 0")
        object.__setattr__(self, "inits", tuple(check_init_k(k, "inits") for k in self.inits))

    def hyper(self, k_true: int) -> HyperParams:
        """One-layer hyperparameters of the truth with ``k_true`` factors."""
        lh = self.layer_hyper
        return HyperParams(
            alpha_ibp_per_layer=lh.alpha_ibp,
            ig_shape_per_layer=lh.ig_shape,
            ig_scale_per_layer=lh.ig_scale,
            sigma_top=lh.sigma_top,
            sigma_floor=lh.sigma_floor,
            layer_widths=(k_true,),
        )


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


def make_truth(cfg: ExperimentConfig, k_true: int, rng: np.random.Generator) -> GenerativeModel:
    """A prior draw conditioned on every factor column being well used.

    A raw finite-prior draw often leaves mask columns empty or linked
    to a single dimension, in which case the dataset would not actually
    carry k_true recoverable factors; the draw is rejected until every
    column drives at least two observed dimensions, which needs
    ``cfg.n_dims >= 2`` whenever ``k_true > 0``.
    """
    if k_true > 0 and cfg.n_dims < 2:
        raise ValueError(f"{k_true} factors cannot each link two of {cfg.n_dims} dimensions")
    while True:
        truth = GenerativeModel.from_prior(cfg.hyper(k_true), cfg.n_dims, rng)
        if (truth.layers[-1].column_counts >= 2).all():
            return truth


def make_dataset(cfg: ExperimentConfig, k_true: int) -> np.ndarray:
    """The shared dataset for one true factor count, seeded by identity."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed, int(k_true)]))
    truth = make_truth(cfg, k_true, rng)
    return generate_dataset(truth, cfg.n_instances, rng)[-1]


def point_estimate(k_trace: np.ndarray, burn_in: float) -> float:
    """Mean factor count over the post-burn-in span of the trace."""
    start = int(np.floor(len(k_trace) * burn_in))
    return float(np.mean(k_trace[start:]))


def run_trial(cfg: ExperimentConfig, k_true: int, init_index: int, replicate: int) -> TrialResult:
    """Run one chain; fully determined by (base_seed, K_true, init, replicate)."""
    X = make_dataset(cfg, k_true)
    init = cfg.inits[init_index]
    seed_key = (cfg.base_seed, int(k_true), int(init_index), int(replicate))
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_key)))
    icfg = InferenceConfig(iterations=cfg.iterations, init_k=init)
    started = time.perf_counter()
    _, trace = run_mh_layer(X, icfg, cfg.layer_hyper, rng=rng)
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
    specs = [
        (cfg, k_true, init_index, replicate)
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
