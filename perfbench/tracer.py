"""In-memory span tracer that wraps deepibp's layer boundaries from outside.

Each boundary is a module-level function (or one ChainState method) that
the program enters a layer through.  While a Tracer is active, every name
bound to such a function anywhere in the ``deepibp`` package is replaced
by a wrapper that records one span (name, start, end, parent) and, for
the kernels, the MoveStats deltas of the call.  Leaving the context
restores the original bindings, so untraced operations in the same
process run the unwrapped code.

Spans live in flat typed arrays (about 24 bytes each) and are written
out only after timing ends.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Span name -> (module, attribute) of the function that opens it.
BOUNDARIES = {
    "cli.main": ("deepibp.cli", "main"),
    "experiment.run_experiment": ("deepibp.experiment", "run_experiment"),
    "experiment.run_trial": ("deepibp.experiment", "run_trial"),
    "experiment.emit_report": ("deepibp.experiment", "emit_report"),
    "inference.layerwise": ("deepibp.inference", "run_layerwise"),
    "inference.chain": ("deepibp.inference", "run_mh_layer"),
    "inference.sweep": ("deepibp.inference", "gibbs_sweep"),
    "inference.weight": ("deepibp.inference", "gibbs_update_weight"),
    # The study and layerwise paths reach the factor kernel and the
    # dimension move only through these private helpers.
    "inference.factor": ("deepibp.inference", "_factor_row_update"),
    "inference.dim": ("deepibp.inference", "_dimension_move"),
    "inference.refresh": ("deepibp.inference", "ChainState.refresh"),
    "model.log_joint": ("deepibp.model", "log_joint"),
    "ibp.mask_marginal": ("deepibp.ibp", "logprob_mask_marginal"),
    "oracle.validate": ("deepibp.oracle", "run_validation"),
    "oracle.weight_tv": ("deepibp.oracle", "weight_kernel_tv"),
    "oracle.factor_tv": ("deepibp.oracle", "factor_kernel_tv"),
    "oracle.geweke": ("deepibp.oracle", "geweke_moment_zs"),
    "dataio.write": ("deepibp.dataio", "atomic_write_text"),
    "dataio.read": ("deepibp.dataio", "read_dataset_csv"),
    "dataio.read_json": ("deepibp.dataio", "read_json"),
}


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Context manager: wraps every boundary on entry, restores on exit."""

    def __init__(self):
        self.names = list(BOUNDARIES)
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name_id: int, fn, on_call):
        span_name, start, end, parent, stack = self.span_name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            before = on_call(args, None) if on_call else None
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if on_call:
                    on_call(args, before)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        counts = self.counts

        def stats_delta(kinds):
            """Hook adding the call's change in MoveStats counters (first arg is a ChainState)."""
            fields = [f"{kind}_{what}" for kind in kinds for what in ("proposed", "accepted")]

            def hook(args, before):
                now = [getattr(args[0].stats, f) for f in fields]
                if before is None:
                    return now
                for f, a, b in zip(fields, now, before):
                    counts[f] += a - b
                return None
            return hook

        factor_stats = stats_delta(("factor",))

        def factor_hook(args, before):
            if before is None:
                counts["factor_entries"] += len(args[2])
            return factor_stats(args, before)

        def bytes_hook(args, before):
            if before is not None:
                counts["bytes_written"] += os.path.getsize(args[0])
            return 0

        return {
            "inference.weight": stats_delta(("weight",)),
            "inference.factor": factor_hook,
            "inference.dim": stats_delta(("add", "delete")),
            "dataio.write": bytes_hook,
        }

    def __enter__(self) -> "Tracer":
        hooks = self._hooks()
        for name_id, (span, (module_name, attr)) in enumerate(BOUNDARIES.items()):
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name_id, original, hooks.get(span))
            # Rebind every alias (``from .x import f``) inside the package.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "deepibp" or mod_name.startswith("deepibp.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
            if getattr(owner, leaf) is not wrapper:  # a class attribute
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reporting -------------------------------------------------------
    def mark(self) -> int:
        return len(self.start)

    def summary(self, first: int = 0) -> dict:
        """Per-name span count, inclusive and self seconds, from span ``first`` on.

        No boundary calls itself, so a name's inclusive time is the sum of
        its spans' durations.  Self time is a span's duration minus the
        durations of its direct children; spans run on one thread, so
        children never overlap.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(first, n)]
        child = [0.0] * (n - first)
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur[i - first]
        out = {name: {"count": 0, "inclusive_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(first, n):
            rec = out[self.names[self.span_name[i]]]
            rec["count"] += 1
            rec["inclusive_s"] += dur[i - first]
            rec["self_s"] += dur[i - first] - child[i - first]
        return out

    def children(self, parent_name: str, child_name: str, first: int = 0) -> list[list[float]]:
        """Durations of ``child_name`` spans, grouped by their ``parent_name`` parent."""
        pid = self.names.index(parent_name)
        cid = self.names.index(child_name)
        groups: dict[int, list[float]] = {}
        for i in range(first, len(self.start)):
            p = self.parent[i]
            if self.span_name[i] == cid and p >= first and self.span_name[p] == pid:
                groups.setdefault(p, []).append(self.end[i] - self.start[i])
        return [groups[p] for p in sorted(groups)]

    def write(self, path: Path) -> None:
        """Dump every span as CSV: name, start and end in µs, parent index."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{(self.start[i] - t0) * 1e6:.1f},"
                    f"{(self.end[i] - t0) * 1e6:.1f},{self.parent[i]}\n"
                )
