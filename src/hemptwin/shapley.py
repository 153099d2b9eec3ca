"""Shapley-value variance decomposition with a nested conditional-variance
cost estimator.

The contribution of input l is the permutation average of the marginal
increase in the cost function c(J) = E[Var[Y | Z_-J]] when l joins the set J
of redrawn inputs.  c is estimated by a two-loop scheme: K outer draws fix
Z_-J, I inner draws redraw Z_J, and the inner sample variances are averaged
with 1/(K(I-1)) normalization.  Each macro-replication costs all 2^L subsets
at once into one array indexed by bit mask (c of the empty set is exactly 0),
and both the exact (all L! orderings) and the permutation-sampled estimators
read their increments from it, so the telescoping identity
sum(s) = c(full) - c(empty) holds exactly.  Both estimators accept at most
`MAX_INPUTS` inputs.

Both estimators share one array pass over an (orderings x L) matrix: prefix
bit masks by a cumulative OR, costs by indexing, increments by a row
difference, and per-input sums by `np.bincount`, which adds in the same order
as an ordering-by-ordering loop, so the results are bit-identical to it.  The
sampled estimator draws its m orderings in one batch; the exact one builds
its L! orderings and their masks once per L.

A model is a deterministic callable `model(outer, inner)` that receives a
block of one macro-replication's uniform seeds in [0,1): the outer seeds as a
(K, 1, L) array and the inner seeds as a (K, I, L) array, inputs on the last
axis.  It returns the (2^L, K, I) outputs of every subset: row `mask` with
the inputs in the bit mask on their inner seeds (redrawn) and the others on
their outer seeds (fixed).  The costs are the inner sample variances of those
rows, averaged over the outer rows.  The model is called once per block of
outer rows, and a block holds at most 2^20 outputs, which bounds the memory
of a call; at K*I*2^L <= 2^20 that is one call per macro-replication.
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

MAX_INPUTS = 8  # both estimators cost all 2^L subsets
_BLOCK_FLOATS = 1 << 20  # most outputs one model call returns
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


def _subset_costs(model, n_inputs: int, k_outer: int, i_inner: int,
                  stream: RngStream) -> np.ndarray:
    """The two-loop cost estimate of every subset, indexed by bit mask.

    Every subset shares one set of outer seeds (one per input per outer
    sample) and one set of inner seeds, so the costs are coherent across the
    ordering sweep.  The model gets blocks of outer rows holding at most
    `_BLOCK_FLOATS` outputs (one row, if a row alone holds more); the empty
    subset redraws nothing and costs exactly 0.
    """
    if n_inputs > MAX_INPUTS:
        raise TooManyInputsError(
            f"{n_inputs} inputs make 2^{n_inputs} subset costs; at most "
            f"{MAX_INPUTS} inputs are supported"
        )
    check_counts(k_outer=k_outer, i_inner=i_inner)
    outer = np.column_stack(
        [stream.child("outer", l).random(k_outer) for l in range(n_inputs)]
    )
    inner = np.stack(
        [stream.child("inner", l).random(k_outer * i_inner).reshape(k_outer, i_inner)
         for l in range(n_inputs)],
        axis=-1,
    )
    rows = max(1, _BLOCK_FLOATS // ((1 << n_inputs) * i_inner))
    variances = [np.var(model(outer[k:k + rows, None, :], inner[k:k + rows]),
                        axis=-1, ddof=1)
                 for k in range(0, k_outer, rows)]
    costs = np.concatenate(variances, axis=-1).mean(axis=-1)
    costs[0] = 0.0
    return costs


def _orderings(perms) -> tuple:
    """An (n, L) ordering matrix and its prefix bit masks."""
    perms = np.asarray(perms, dtype=np.int64)
    return perms, np.bitwise_or.accumulate(np.left_shift(1, perms), axis=1)


@functools.cache
def _exact_orderings(n_inputs: int) -> tuple:
    """`_orderings` of all n_inputs! orderings in `itertools.permutations`
    order, built once per input count and read-only, since every caller
    shares them."""
    arrays = _orderings(list(itertools.permutations(range(n_inputs))))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _shapley_from_permutations(costs: np.ndarray, orderings: tuple) -> np.ndarray:
    """Average the marginal cost increments over the rows of an `_orderings`
    pair in one array pass.

    The increments are summed per input in row-major order -- the order a
    loop over orderings and positions would add them, so the sums are
    bit-for-bit those of that loop.
    """
    perms, masks = orderings
    increments = np.diff(costs[masks], axis=1, prepend=0.0)
    s = np.bincount(perms.ravel(), weights=increments.ravel(), minlength=perms.shape[1])
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
    costs = _subset_costs(model, n_inputs, k_outer, i_inner,
                          RngStream(seed, ("shapley", rep_index)))
    s = _shapley_from_permutations(costs, _exact_orderings(n_inputs))
    return ShapleyResult(
        labels=labels or tuple(f"z{l}" for l in range(n_inputs)),
        s=s,
        total_variance=float(costs[-1]),
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
    costs = _subset_costs(model, n_inputs, k_outer, i_inner, stream)
    perms = stream.child("perms").permutations(m_permutations, n_inputs)
    s = _shapley_from_permutations(costs, _orderings(perms))
    return ShapleyResult(
        labels=labels or tuple(f"z{l}" for l in range(n_inputs)),
        s=s,
        total_variance=float(costs[-1]),
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
