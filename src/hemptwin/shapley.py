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
sampled estimator draws its m orderings in one batch; the exact one builds
its L! orderings and their masks once per L.

A model is a deterministic callable `model(outer, inner)` that receives one
macro-replication's uniform seeds in [0,1) once: the outer seeds as a
(K, 1, L) array and the inner seeds as a (K, I, L) array, inputs on the last
axis.  It returns `outputs(mask)`, the (K, I) outputs with the inputs in the
bit mask on their inner seeds (redrawn) and the others on their outer seeds
(fixed).  A model can so transform each input's seeds once per
macro-replication and make each subset cost broadcast arithmetic; the
decomposition stays bit-identical to evaluating the assembled (K*I, L) seed
matrix per subset.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .randomness import RngStream

__all__ = [
    "ShapleyResult",
    "TooFewSamplesError",
    "TooManyInputsError",
    "check_counts",
    "shapley_exact",
    "shapley_sampled",
    "relative_contributions",
]

MAX_EXACT_INPUTS = 8
# the least value of each sample count with which an estimate can be made
MIN_COUNTS = {"k_outer": 1, "i_inner": 2, "m_permutations": 1,
              "macro_replications": 2}


class TooFewSamplesError(ValueError):
    pass


class TooManyInputsError(ValueError):
    pass


def check_counts(**counts: int) -> None:
    """Raise TooFewSamplesError for a sample count below its entry in
    MIN_COUNTS."""
    for name, value in counts.items():
        if value < MIN_COUNTS[name]:
            raise TooFewSamplesError(
                f"{name} must be at least {MIN_COUNTS[name]}, got {value}"
            )


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
    are coherent across the permutation sweep.  The model receives the seeds
    once and returns the per-mask output function.
    """

    def __init__(self, model, n_inputs: int, k_outer: int, i_inner: int,
                 stream: RngStream) -> None:
        check_counts(k_outer=k_outer, i_inner=i_inner)
        self.n_inputs = n_inputs
        outer = np.column_stack(
            [stream.child("outer", l).random(k_outer) for l in range(n_inputs)]
        )
        inner = np.stack(
            [stream.child("inner", l).random(k_outer * i_inner).reshape(k_outer, i_inner)
             for l in range(n_inputs)],
            axis=-1,
        )
        self.outputs = model(outer[:, None, :], inner)
        self._cache: dict[int, float] = {0: 0.0}

    def cost(self, mask: int) -> float:
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        value = float(np.var(self.outputs(mask), axis=1, ddof=1).mean())
        self._cache[mask] = value
        return value


def _orderings(perms) -> tuple:
    """An (n, L) ordering matrix, its prefix bit masks and their distinct
    values."""
    perms = np.asarray(perms, dtype=np.int64)
    masks = np.bitwise_or.accumulate(np.left_shift(1, perms), axis=1)
    return perms, masks, np.unique(masks)


@functools.cache
def _exact_orderings(n_inputs: int) -> tuple:
    """`_orderings` of all n_inputs! orderings in `itertools.permutations`
    order, built once per input count and read-only, since every caller
    shares them."""
    arrays = _orderings(list(itertools.permutations(range(n_inputs))))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _shapley_from_permutations(est: _CostEstimator, orderings: tuple) -> np.ndarray:
    """Average the marginal cost increments over the rows of an `_orderings`
    triple in one array pass.

    Each distinct prefix mask is costed once, and the increments are summed
    per input in row-major order -- the order a loop over orderings and
    positions would add them, so the sums are bit-for-bit those of that loop.
    """
    perms, masks, distinct = orderings
    costs = np.zeros(1 << est.n_inputs)
    for mask in distinct.tolist():
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
    s = _shapley_from_permutations(est, _exact_orderings(n_inputs))
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
    check_counts(m_permutations=m_permutations)
    stream = RngStream(seed, ("shapley", rep_index))
    est = _CostEstimator(model, n_inputs, k_outer, i_inner, stream)
    perms = stream.child("perms").permutations(m_permutations, n_inputs)
    s = _shapley_from_permutations(est, _orderings(perms))
    return ShapleyResult(
        labels=labels or tuple(f"z{l}" for l in range(n_inputs)),
        s=s,
        total_variance=est.cost((1 << n_inputs) - 1),
        estimator_kind=f"sampled({m_permutations})",
    )


def relative_contributions(results: list[ShapleyResult]):
    """Average the per-replication relative contributions s_l / Var_j and
    report the standard error across macro-replications."""
    check_counts(macro_replications=len(results))
    rcs = np.vstack([r.rc for r in results])
    mean = rcs.mean(axis=0)
    stderr = rcs.std(axis=0, ddof=1) / math.sqrt(len(results))
    return mean, stderr
