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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dataio
from .inference import ChainTrace, InferenceConfig, run_mh_layer
from .model import GenerativeModel, HyperParams, generate_dataset

__all__ = [
    "DEFAULT_INITS",
    "ExperimentConfig",
    "InitStrategy",
    "SummaryRow",
    "SummaryStats",
    "TrialResult",
    "emit_report",
    "make_dataset",
    "run_experiment",
    "run_trial",
    "summarize",
    "trace_filename",
]


@dataclass(frozen=True)
class InitStrategy:
    """How a chain picks its starting factor count."""

    name: str
    kind: str  # "fixed" or "uniform"
    value: int = 0
    lo: int = 0
    hi: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.kind == "uniform" and not 0 <= self.lo <= self.hi:
            raise ValueError(f"bad uniform range ({self.lo}, {self.hi})")
        if self.kind == "fixed" and self.value < 0:
            raise ValueError("fixed init must be >= 0")

    @classmethod
    def fixed(cls, value: int) -> "InitStrategy":
        return cls(name=f"fixed{value}", kind="fixed", value=value)

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "InitStrategy":
        return cls(name=f"random{lo}to{hi}", kind="uniform", lo=lo, hi=hi)

    def init_k(self) -> int | tuple[int, int]:
        return self.value if self.kind == "fixed" else (self.lo, self.hi)


DEFAULT_INITS: tuple[InitStrategy, ...] = (
    InitStrategy.fixed(2),
    InitStrategy.fixed(10),
    InitStrategy.uniform(3, 10),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Study protocol: data dimensions, sweep grid, chain settings."""

    n_dims: int = 16
    n_instances: int = 200
    k_true_values: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9, 10)
    inits: tuple[InitStrategy, ...] = DEFAULT_INITS
    iterations: int = 200
    replicates: int = 10
    burn_in: float = 0.75
    base_seed: int = 0
    alpha_ibp: float = 3.0
    ig_shape: float = 2.0
    ig_scale: float = 1.0
    sigma_top: float = 1.0
    sigma_floor: float = 1e-6
    gibbs_step_scale: float = 0.5

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not self.k_true_values:
            raise ValueError("k_true_values must be nonempty")
        if not 0.0 <= self.burn_in < 1.0:
            raise ValueError("burn_in must lie in [0, 1)")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.inits:
            raise ValueError("at least one init strategy is required")
        object.__setattr__(self, "k_true_values", tuple(int(k) for k in self.k_true_values))
        object.__setattr__(self, "inits", tuple(self.inits))

    def hyper(self, k_true: int) -> HyperParams:
        return HyperParams(
            alpha_ibp_per_layer=(self.alpha_ibp,),
            ig_shape_per_layer=(self.ig_shape,),
            ig_scale_per_layer=(self.ig_scale,),
            sigma_top=self.sigma_top,
            sigma_floor=self.sigma_floor,
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

    @property
    def k_trace(self) -> np.ndarray:
        return self.trace.k


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
    column drives at least two observed dimensions.
    """
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
    icfg = InferenceConfig(
        iterations=cfg.iterations,
        init_k=init.init_k(),
        seed=None,
        gibbs_step_scale=cfg.gibbs_step_scale,
    )
    hyper = cfg.hyper(k_true).layer(0)
    started = time.perf_counter()
    _, trace, _ = run_mh_layer(X, icfg, hyper, rng=rng)
    elapsed = time.perf_counter() - started
    return TrialResult(
        k_true=k_true,
        init_index=init_index,
        init_name=init.name,
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
                cfg: ExperimentConfig | None = None, jobs: int | None = None) -> None:
    """Write summary.csv, per-trial trace CSVs and a manifest.

    The manifest echoes the config, maps init indices to strategies,
    records per-trial seeds and timings, and pins library versions.
    Timings vary run to run; every CSV body is a pure function of the
    config and seed.
    """
    # Imported here so that the sampler's commands do not load scipy.
    import scipy

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
        "config": None if cfg is None else {
            f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "inits"
        },
        "inits": None if cfg is None else [
            {"index": i, "name": s.name, "kind": s.kind,
             **({"value": s.value} if s.kind == "fixed" else {"lo": s.lo, "hi": s.hi})}
            for i, s in enumerate(cfg.inits)
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
            "scipy": scipy.__version__,
        },
    }
    dataio.write_json(out / "manifest.json", manifest)
