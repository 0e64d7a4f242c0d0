#!/usr/bin/env python3
"""Run the single-layer sampler from two initializations on the same data.

Data is generated with four planted factors.  Within 200 iterations each
chain settles near its starting factor count (the initialization
dependence the recovery study quantifies), so the run reports both
trajectories plus the log-joint, which shows which basin actually fits
the data better.
"""

import numpy as np

from deepibp.inference import InferenceConfig, run_mh_layer
from deepibp.model import HyperParams, LayerTarget, draw_routed


def main():
    rng = np.random.default_rng(12)
    k_true = 4
    hyper = HyperParams(layer_widths=(k_true,))
    target = LayerTarget(hyper.layer(0))
    # Condition the planted draw on every factor driving at least three
    # dimensions so the dataset really carries four recoverable factors.
    mask, slab, Y = target.draw(16, k_true, 200, rng, min_links=3)
    X = draw_routed(mask * slab, Y, hyper.sigma_floor, rng)
    print(f"planted factors: {k_true}, column link counts "
          f"{mask.sum(axis=0).tolist()}, data {X.shape[0]}x{X.shape[1]}")

    for init_k in (2, 10):
        cfg = InferenceConfig(iterations=200, init_k=init_k)
        state, trace = run_mh_layer(X, cfg, target, rng=np.random.default_rng(0))
        burn = len(trace) * 3 // 4
        print(f"\ninit K={init_k}:")
        print(f"  K every 25 iterations: {trace.k[::25].tolist()}")
        print(f"  posterior mean K (last quarter): {trace.k[burn:].mean():.2f}")
        print(f"  accepted additions {state.stats.add_accepted}, deletions {state.stats.delete_accepted}")
        print(f"  final log-joint {trace.log_joint[-1]:.0f}, active factors {state.K_plus}")

    print("\nboth chains equilibrate near their starting count; the log-joint "
          "comparison shows the compact basin fits this data better, and the "
          "trans-dimensional moves cross basins too slowly for 200 iterations "
          "to erase the initialization. The full study therefore reports "
          "init-stratified cells.")


if __name__ == "__main__":
    main()
