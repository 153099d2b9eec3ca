"""Adapter from a seed-matrix function to the `model(outer, inner)` protocol
of `hemptwin.shapley`, assembling the (K*I, L) matrix for each mask."""

import numpy as np


def seed_matrix_model(fn):
    """`fn` maps an (n, L) matrix of uniform seeds to n outputs; a redrawn
    input takes its inner seeds, a fixed one its outer seed."""
    def model(outer, inner):
        k, i, n_inputs = inner.shape

        def outputs(mask):
            u = np.empty((k, i, n_inputs))
            for l in range(n_inputs):
                u[:, :, l] = inner[:, :, l] if mask >> l & 1 else outer[:, :, l]
            y = fn(u.reshape(k * i, n_inputs))
            return np.asarray(y, dtype=float).reshape(k, i)

        return outputs

    return model
