"""Shapley-value variance decomposition with a nested conditional-variance
cost estimator.

The contribution of input l is the permutation average of the marginal
increase in the cost function c(J) = E[Var[Y | Z_-J]] when l joins the set J
of redrawn inputs.  c is estimated by a two-loop scheme: K outer draws fix
Z_-J, I inner draws redraw Z_J, and the inner sample variances are averaged
with 1/(K(I-1)) normalization.  Subset costs are memoized per macro-
replication, so both the exact (all L! orderings) and the permutation-sampled
estimators touch at most 2^L cost evaluations, and the telescoping identity
sum(s) = c(full) - c(empty) holds exactly for the cached estimates.

Both estimators share one array pass over an (orderings x L) matrix: prefix
bit masks by a cumulative OR, one cost per distinct mask, increments by a row
difference, and per-input sums by `np.bincount`, which adds in the same order
as an ordering-by-ordering loop, so the results are bit-identical to it.  The
sampled estimator draws its m orderings in one batch.

Models are deterministic callables mapping an (n, L) matrix of uniform seeds
in [0,1) to n outputs; fixing an input means reusing its seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .randomness import RngStream

__all__ = [
    "ShapleyResult",
    "TooFewSamplesError",
    "TooManyInputsError",
    "shapley_exact",
    "shapley_sampled",
    "relative_contributions",
]

MAX_EXACT_INPUTS = 8


class TooFewSamplesError(ValueError):
    pass


class TooManyInputsError(ValueError):
    pass


@dataclass
class ShapleyResult:
    """Per-input variance contributions for one macro-replication."""

    labels: tuple
    s: np.ndarray
    total_variance: float
    estimator_kind: str

    @property
    def rc(self) -> np.ndarray:
        if self.total_variance == 0.0:
            return np.zeros_like(self.s)
        return self.s / self.total_variance


class _CostEstimator:
    """Memoized two-loop cost estimates sharing one set of outer/inner seeds.

    Outer seeds (one per input per outer sample) are reused by every subset
    that holds the input fixed; inner seeds likewise, so cached subset costs
    are coherent across the permutation sweep.
    """

    def __init__(self, model, n_inputs: int, k_outer: int, i_inner: int,
                 stream: RngStream) -> None:
        if k_outer < 1:
            raise TooFewSamplesError("need at least one outer sample")
        if i_inner < 2:
            raise TooFewSamplesError("need at least two inner samples")
        self.model = model
        self.n_inputs = n_inputs
        self.k = k_outer
        self.i = i_inner
        self.outer = np.column_stack(
            [stream.child("outer", l).random(k_outer) for l in range(n_inputs)]
        )
        self.inner = [
            stream.child("inner", l).random(k_outer * i_inner).reshape(k_outer, i_inner)
            for l in range(n_inputs)
        ]
        self._cache: dict[int, float] = {0: 0.0}

    def cost(self, mask: int) -> float:
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        k, i, L = self.k, self.i, self.n_inputs
        u = np.empty((k, i, L))
        for l in range(L):
            if mask >> l & 1:
                u[:, :, l] = self.inner[l]
            else:
                u[:, :, l] = self.outer[:, l][:, None]
        y = np.asarray(self.model(u.reshape(k * i, L)), dtype=float).reshape(k, i)
        value = float(np.var(y, axis=1, ddof=1).mean())
        self._cache[mask] = value
        return value


def _shapley_from_permutations(est: _CostEstimator, perms) -> np.ndarray:
    """Average the marginal cost increments over the rows of an (n, L)
    ordering matrix in one array pass.

    Row prefixes become bit masks, each distinct mask is costed once, and the
    increments are summed per input in row-major order -- the order a loop
    over orderings and positions would add them, so the sums are bit-for-bit
    those of that loop.
    """
    perms = np.asarray(perms, dtype=np.int64)
    masks = np.bitwise_or.accumulate(np.left_shift(1, perms), axis=1)
    costs = np.zeros(1 << est.n_inputs)
    for mask in np.unique(masks).tolist():
        costs[mask] = est.cost(mask)
    increments = np.diff(costs[masks], axis=1, prepend=0.0)
    s = np.bincount(perms.ravel(), weights=increments.ravel(), minlength=est.n_inputs)
    return s / len(perms)


def shapley_exact(
    model,
    n_inputs: int,
    k_outer: int,
    i_inner: int,
    seed: int,
    rep_index: int = 0,
    labels: tuple | None = None,
) -> ShapleyResult:
    """Average the marginal cost increments over all L! input orderings."""
    if n_inputs > MAX_EXACT_INPUTS:
        raise TooManyInputsError(
            f"{n_inputs}! permutations is infeasible; use shapley_sampled"
        )
    stream = RngStream(seed, ("shapley", rep_index))
    est = _CostEstimator(model, n_inputs, k_outer, i_inner, stream)
    s = _shapley_from_permutations(est, list(itertools.permutations(range(n_inputs))))
    return ShapleyResult(
        labels=labels or tuple(f"z{l}" for l in range(n_inputs)),
        s=s,
        total_variance=est.cost((1 << n_inputs) - 1),
        estimator_kind=f"exact({math.factorial(n_inputs)})",
    )


def shapley_sampled(
    model,
    n_inputs: int,
    m_permutations: int,
    k_outer: int,
    i_inner: int,
    seed: int,
    rep_index: int = 0,
    labels: tuple | None = None,
) -> ShapleyResult:
    """Average the marginal cost increments over m uniformly random orderings
    (drawn with replacement); unbiased for the exact estimator."""
    if m_permutations < 1:
        raise TooFewSamplesError("need at least one permutation")
    stream = RngStream(seed, ("shapley", rep_index))
    est = _CostEstimator(model, n_inputs, k_outer, i_inner, stream)
    perms = stream.child("perms").permutations(m_permutations, n_inputs)
    s = _shapley_from_permutations(est, perms)
    return ShapleyResult(
        labels=labels or tuple(f"z{l}" for l in range(n_inputs)),
        s=s,
        total_variance=est.cost((1 << n_inputs) - 1),
        estimator_kind=f"sampled({m_permutations})",
    )


def relative_contributions(results: list[ShapleyResult]):
    """Average the per-replication relative contributions s_l / Var_j and
    report the standard error across macro-replications."""
    if len(results) < 2:
        raise TooFewSamplesError("need at least two macro-replications")
    rcs = np.vstack([r.rc for r in results])
    mean = rcs.mean(axis=0)
    stderr = rcs.std(axis=0, ddof=1) / math.sqrt(len(results))
    return mean, stderr
