"""Command-line driver: generate data, infer factors, run the study, validate.

Subcommands
-----------
generate    draw a synthetic dataset and its ground-truth sidecar
infer       run the factor-count sampler on a dataset CSV
experiment  run the full recovery study and write its report
validate    run the closed-form-vs-quadrature agreement suite

Configs are JSON documents with up to three sections, ``model``,
``inference`` and ``experiment``, whose keys mirror the corresponding
dataclasses; unknown sections or keys are rejected.  ``generate`` reads
the model section and the data dimensions of the experiment section,
``infer`` the model and inference sections, and ``experiment`` the
experiment section and the model section's single layer.  All but
``validate`` accept ``--seed``, a non-negative integer; when omitted, a
seed is drawn from system entropy and recorded in the JSON artifact so
the run stays reproducible.

Exit codes: 0 success, 1 validation failure, 2 I/O, parse, config or
option error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, dataio, oracle
from .experiment import ExperimentConfig, emit_report, run_experiment
from .inference import InferenceConfig, run_layerwise
from .model import HyperParams, LayerHyper, as_int, draw_stack, log_joint

__all__ = ["ConfigError", "build_parser", "load_config", "main"]


class ConfigError(ValueError):
    """A config file or a command-line option is invalid."""


def _field_names(cls, *exclude: str) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls)) - set(exclude)


# Each section takes its dataclass's fields; seeds come from --seed and
# the experiment's hyperparameters from the model section.
_SECTION_KEYS = {
    "model": _field_names(HyperParams),
    "inference": _field_names(InferenceConfig),
    "experiment": _field_names(ExperimentConfig, "base_seed", "layer_hyper"),
}


def load_config(path) -> dict:
    """Read and schema-check a JSON config; None means all defaults."""
    if path is None:
        return {}
    doc = dataio.read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    unknown = set(doc) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config section(s): {', '.join(sorted(unknown))}")
    for name, allowed in _SECTION_KEYS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: section {name!r} must be a JSON object")
        bad = set(section) - allowed
        if bad:
            raise ConfigError(f"{path}: unknown key(s) in section {name!r}: {', '.join(sorted(bad))}")
    return doc


def build_hyper(config: dict) -> HyperParams:
    try:
        return HyperParams(**config.get("model", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'model' section: {exc}") from exc


def build_inference(config: dict) -> InferenceConfig:
    section = config.get("inference", {})
    try:
        return InferenceConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'inference' section: {exc}") from exc


def _parse_init(entry) -> int | tuple:
    """An init object as an init_k value; ExperimentConfig checks its range."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError("each init must be an object with a 'kind' key")
    kind = entry["kind"]
    if kind == "fixed":
        extra = set(entry) - {"kind", "value"}
        if extra or "value" not in entry:
            raise ConfigError("fixed init takes exactly the keys 'kind' and 'value'")
        return as_int(entry["value"], "inits")  # a list here is no range
    if kind == "uniform":
        extra = set(entry) - {"kind", "lo", "hi"}
        if extra or not {"lo", "hi"} <= set(entry):
            raise ConfigError("uniform init takes exactly the keys 'kind', 'lo' and 'hi'")
        return entry["lo"], entry["hi"]
    raise ConfigError(f"unknown init kind {kind!r}")


def build_experiment(config: dict, seed: int, layer_hyper: LayerHyper) -> ExperimentConfig:
    section = dict(config.get("experiment", {}))
    try:
        # ExperimentConfig refuses an inits value that is not a list.
        if isinstance(section.get("inits"), list):
            section["inits"] = tuple(_parse_init(e) for e in section["inits"])
        return ExperimentConfig(base_seed=seed, layer_hyper=layer_hyper, **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'experiment' section: {exc}") from exc


def resolve_seed(seed: int | None) -> int:
    """The given seed, or one drawn from system entropy."""
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        return int(seed)
    return int(np.random.SeedSequence().entropy) % (2 ** 63)


def cmd_generate(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(args.seed)
    hyper = build_hyper(config)
    # Of the experiment section, generate reads only the data dimensions.
    section = config.get("experiment", {})
    dims = build_experiment(
        {"experiment": {k: section[k] for k in ("n_dims", "n_instances") if k in section}}, seed, hyper.layer(0)
    )
    rng = np.random.default_rng(seed)
    weights, values = draw_stack(hyper, dims.n_dims, dims.n_instances, rng)
    X = values[0]

    out = Path(args.out)
    dataio.write_dataset_csv(out / "data.csv", X)
    layers = [
        {
            "level": level,
            "k_true": mask.shape[1],
            "mask_rows": dataio.mask_to_rows(mask),
            "slab": slab,
            "factors": values[level],
        }
        for level, (mask, slab) in enumerate(weights, start=1)
    ]
    dataio.write_json(out / "truth.json", {
        "kind": "synthetic-dataset",
        "version": 1,
        "seed": seed,
        "n_dims": int(X.shape[0]),
        "n_instances": int(X.shape[1]),
        "layer_widths": list(hyper.layer_widths),
        "hyper": {f.name: getattr(hyper, f.name) for f in fields(hyper) if f.name != "layer_widths"},
        "layers": layers,
    })
    print(f"wrote {X.shape[0]}x{X.shape[1]} dataset to {out / 'data.csv'} (seed {seed})")
    return 0


def cmd_infer(args) -> int:
    if args.depth < 1:
        raise ConfigError(f"--depth must be >= 1, got {args.depth}")
    config = load_config(args.config)
    seed = resolve_seed(args.seed)
    X = dataio.read_dataset_csv(args.data)
    hyper = build_hyper(config)
    icfg = build_inference(config)

    states, traces = run_layerwise(X, args.depth, icfg, hyper, seed)

    out = Path(args.out)
    for layer, trace in enumerate(traces):
        dataio.write_trace_csv(out / f"trace_layer{layer + 1}.csv", trace)
    dataio.write_json(out / "state.json", {
        "kind": "inference-state",
        "version": 1,
        "seed": seed,
        "depth": args.depth,
        "config": config,
        "layers": [
            {
                "level": ell + 1,
                "k": st.K,
                "mask_rows": dataio.mask_to_rows(st.mask),
                "slab": st.slab,
                "factors": st.Y,
                "log_joint": log_joint(st),
            }
            for ell, st in enumerate(states)
        ],
    })
    ks = ", ".join(f"layer {ell + 1}: K={st.K}" for ell, st in enumerate(states))
    print(f"inference done ({ks}); outputs in {out}")
    return 0


def cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    config = load_config(args.config)
    seed = resolve_seed(args.seed)
    hyper = build_hyper(config)
    if hyper.num_layers != 1:
        raise ConfigError(
            f"experiment fits one layer per K_true, but the 'model' section names {hyper.num_layers} layers"
        )
    cfg = build_experiment(config, seed, hyper.layer(0))
    if cfg.n_dims < 2:
        raise ConfigError(
            f"experiment needs n_dims >= 2, so that every true factor links two dimensions; got {cfg.n_dims}"
        )
    results, stats = run_experiment(cfg, jobs=args.jobs)
    emit_report(stats, results, args.out, cfg=cfg, jobs=args.jobs)
    print(f"{len(results)} trials summarized in {Path(args.out) / 'summary.csv'}")
    return 0


def cmd_validate(args) -> int:
    report = oracle.run_validation()
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepibp",
        description="Nonparametric latent-factor toolkit: generate, infer, experiment, validate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a synthetic dataset plus ground-truth sidecar")
    p.add_argument("--config", default=None, help="JSON config path (defaults apply when omitted)")
    p.add_argument("--out", required=True, help="output directory for data.csv and truth.json")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: system entropy)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("infer", help="run the sampler on a dataset CSV")
    p.add_argument("data", help="dataset CSV path")
    p.add_argument("--config", default=None, help="JSON config path")
    p.add_argument("--out", required=True, help="output directory for traces and state.json")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: system entropy)")
    p.add_argument("--depth", type=int, default=1, help="number of stacked layers to infer")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("experiment", help="run the factor-count recovery study")
    p.add_argument("--config", default=None, help="JSON config path")
    p.add_argument("--out", required=True, help="output directory for the report")
    p.add_argument("--seed", type=int, default=None, help="base seed (default: system entropy)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for replicate trials")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("validate", help="run the oracle agreement suite")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (dataio.DataFormatError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
