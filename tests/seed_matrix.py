"""Adapter from a seed-matrix function to the `model(outer, inner)` protocol
of `hemptwin.shapley`, assembling the (K*I, L) matrix for each mask."""

import numpy as np


def assembled_outputs(fn, outer, inner, mask):
    """The (K, I) outputs of `fn`, which maps an (n, L) matrix of uniform
    seeds to n outputs, with the inputs in `mask` on their inner seeds and
    the rest on their outer seed."""
    k, i, n_inputs = inner.shape
    u = np.empty((k, i, n_inputs))
    for l in range(n_inputs):
        u[:, :, l] = inner[:, :, l] if mask >> l & 1 else outer[:, :, l]
    y = fn(u.reshape(k * i, n_inputs))
    return np.asarray(y, dtype=float).reshape(k, i)


def seed_matrix_model(fn):
    """The model that stacks every mask's assembled outputs of `fn` into one
    (2^L, K, I) block and yields it alone."""
    def model(outer, inner):
        yield np.stack([assembled_outputs(fn, outer, inner, mask)
                        for mask in range(1 << inner.shape[-1])])

    return model
