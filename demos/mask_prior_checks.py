#!/usr/bin/env python3
"""Sanity-check the binary mask priors by brute force.

Three quick demonstrations on small matrices:
  1. the finite Beta-Bernoulli marginal normalizes over all masks,
  2. finite-K samples approach the buffet-process law as K grows,
  3. the sequential sampler's dish count matches alpha times H_N.
"""

import math

import numpy as np

from deepibp.ibp import (
    harmonic_number,
    left_order_form,
    logprob_mask_ibp,
    logprob_mask_marginal,
    sample_ibp_sequential,
)
from deepibp.model import LayerHyper, LayerTarget
from deepibp.oracle import enumerate_masks


def main():
    rng = np.random.default_rng(11)
    N, K, alpha = 3, 2, 1.5

    total = sum(
        math.exp(logprob_mask_marginal(mask, alpha)) for mask in enumerate_masks(N, K)
    )
    print(f"finite marginal, N={N} K={K} alpha={alpha}: "
          f"sum over all {4 ** N} masks = {total:.12f}")

    # Finite-K masks, reduced to left-ordered classes of their nonzero
    # columns, converge to the process law as K grows.  The slab
    # hyperparameters do not affect the mask.
    print("\nfinite-K to process convergence (N=2, 40000 draws each):")
    prior = LayerTarget(LayerHyper(alpha_ibp=alpha, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0, sigma_floor=1e-6))
    target = {}
    for k_cols in (4, 16, 64):
        counts = {}
        for _ in range(40_000):
            mask = prior.draw(2, k_cols, 0, rng)[0]
            mask = mask[:, mask.any(axis=0)]
            key = left_order_form(mask)
            counts[key] = counts.get(key, 0) + 1
            if key not in target:
                target[key] = math.exp(logprob_mask_ibp(mask, alpha))
        worst = max(
            abs(c / 40_000 - target[key]) for key, c in counts.items()
        )
        print(f"  K={k_cols:3d}: worst class frequency error {worst:.4f}")

    n_customers, draws = 10, 20_000
    dishes = [sample_ibp_sequential(n_customers, alpha, rng).shape[1] for _ in range(draws)]
    expected = alpha * harmonic_number(n_customers)
    print(f"\nsequential sampler, N={n_customers}: mean dish count "
          f"{np.mean(dishes):.3f} vs alpha*H_N = {expected:.3f}")


if __name__ == "__main__":
    main()
