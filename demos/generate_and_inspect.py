#!/usr/bin/env python3
"""Draw a two-layer generative model from its prior and inspect the pieces.

Walks through the sampled weight layers (binary masks times slab values),
the factor matrices they produce, and the variance-routing identity: each
observed entry is mean-zero Gaussian whose scale is the absolute weighted
sum of the factors above it.
"""

import numpy as np

from deepibp.model import (
    GenerativeModel,
    HyperParams,
    generate_dataset,
    propagate_sigma_matrix,
)


def main():
    rng = np.random.default_rng(7)
    hyper = HyperParams(layer_widths=(4, 2), sigma_top=1.0)
    model = GenerativeModel.from_prior(hyper, n_dims=8, rng=rng)

    print("layer stack (top to bottom):")
    for i, layer in enumerate(model.layers):
        n, k = layer.mask.shape
        print(f"  weight layer {i}: {n} rows x {k} factors, "
              f"column link counts {layer.mask.sum(axis=0).tolist()}")
        for row in layer.mask:
            print("    " + "".join(str(int(v)) for v in row))

    matrices = generate_dataset(model, T=6, rng=rng)
    names = [f"factors level {len(matrices) - 1 - i}" for i in range(len(matrices) - 1)]
    names.append("observed data")
    print("\ngenerated matrices (6 instances):")
    for name, mat in zip(names, matrices):
        print(f"  {name}: shape {mat.shape}, rms {np.sqrt(np.mean(mat ** 2)):.3f}")

    # The bottom matrix's conditional scale is |W Y| floored; standardizing
    # by it should give roughly unit-variance residuals.
    bottom_weights = model.layers[-1]
    sigma = propagate_sigma_matrix(
        bottom_weights.weights, matrices[-2], hyper.sigma_floor
    )
    z = matrices[-1] / sigma
    print(f"\nstandardized data rms (expect about 1): {np.sqrt(np.mean(z ** 2)):.3f}")


if __name__ == "__main__":
    main()
