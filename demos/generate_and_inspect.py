#!/usr/bin/env python3
"""Draw a two-layer generative model from its prior and inspect the pieces.

Walks through the sampled weight layers (binary masks times slab values),
the factor matrices they produce, and the variance-routing identity: each
observed entry is mean-zero Gaussian whose scale is the absolute weighted
sum of the factors above it.
"""

import numpy as np

from deepibp.model import HyperParams, draw_stack, propagate_sigma_matrix


def main():
    rng = np.random.default_rng(7)
    hyper = HyperParams(layer_widths=(4, 2), sigma_top=1.0)
    weights, values = draw_stack(hyper, n_dims=8, T=6, rng=rng)

    print("layer stack (top to bottom):")
    for i, (mask, _) in enumerate(reversed(weights)):
        n, k = mask.shape
        print(f"  weight layer {i}: {n} rows x {k} factors, "
              f"column link counts {mask.sum(axis=0).tolist()}")
        for row in mask:
            print("    " + "".join(str(int(v)) for v in row))

    names = [f"factors level {level}" for level in range(len(values) - 1, 0, -1)]
    names.append("observed data")
    print("\ngenerated matrices (6 instances):")
    for name, mat in zip(names, reversed(values)):
        print(f"  {name}: shape {mat.shape}, rms {np.sqrt(np.mean(mat ** 2)):.3f}")

    # The bottom matrix's conditional scale is |W Y| floored; standardizing
    # by it should give roughly unit-variance residuals.
    mask, slab = weights[0]
    sigma = propagate_sigma_matrix(mask * slab, values[1], hyper.sigma_floor)
    z = values[0] / sigma
    print(f"\nstandardized data rms (expect about 1): {np.sqrt(np.mean(z ** 2)):.3f}")


if __name__ == "__main__":
    main()
