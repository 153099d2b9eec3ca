"""Shapley-value variance decomposition with a nested conditional-variance
cost estimator.

The contribution of input l is the permutation average of the marginal
increase in the cost c(J) = E[Var[Y | Z_-J]] when l joins the set J of
redrawn inputs.  c is estimated by a two-loop scheme: K outer draws fix
Z_-J, I inner draws redraw Z_J, and the inner sample variances are averaged
with 1/(K(I-1)) normalization.  Each macro-replication costs all 2^L subsets
at once into one array indexed by bit mask (c of the empty set is exactly 0),
so sum(s) = c(full) to rounding.  The exact estimator weighs each gain
c(J+l) - c(J) by the share |J|!(L-|J|-1)!/L! of orderings that put J before
l, in one pass over the cost vector; the sampled estimator sweeps m random
orderings in one array pass, bit-identical to an ordering-by-ordering loop.
Both accept at most `MAX_INPUTS` inputs.

A model is a deterministic callable `model(outer, inner)`, called once per
macro-replication with its uniform seeds in [0,1): the outer seeds as a
(K, 1, L) array and the inner seeds as a (K, I, L) array, inputs on the last
axis.  It returns an iterable of (2^L, rows, I) output blocks that cover the
K outer rows in order: in each block, row `mask` holds the subset with the
inputs in the bit mask on their inner seeds (redrawn) and the others on their
outer seeds (fixed).  The costs are the inner sample variances of those rows,
averaged over the outer rows; each block's variances are taken before the
next block is pulled, so a model that yields blocks of `block_rows(L, I)`
outer rows works on at most `_BLOCK_FLOATS` outputs at a time (one row, if
a row alone holds more).  The bound is 2^14 outputs, 128 KiB of
float64, at which a block's temporaries are reused from the heap.  Larger
temporaries are handed back to the kernel after each use and faulted in
afresh by the next block: a round of the benchmark's three decompositions
(K=10, I=100, L=6 and 7) takes about 2 000 minor faults at 2^13 outputs,
2 300 at 2^14, 9 600 at 2^15, 15 400 at 2^16 and 22 000 at 2^20, where all
(2^L, K, I) outputs of a macro-replication make one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .randomness import RngStream

__all__ = [
    "ShapleyResult",
    "TooFewSamplesError",
    "TooManyInputsError",
    "block_rows",
    "check_counts",
    "shapley_exact",
    "shapley_sampled",
    "relative_contributions",
]

MAX_INPUTS = 8  # both estimators cost all 2^L subsets
_BLOCK_FLOATS = 1 << 14  # most outputs of one block a model yields
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


def block_rows(n_inputs: int, i_inner: int) -> int:
    """The outer rows of one output block: as many as hold at most
    `_BLOCK_FLOATS` outputs of all 2^L subsets, and at least one."""
    return max(1, _BLOCK_FLOATS // ((1 << n_inputs) * i_inner))


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

    Every subset reads the same two blocks, the (K, L) outer seeds and then
    the (K, I, L) inner seeds, drawn from the macro-replication's `stream`,
    so the costs are coherent across the subsets; the sampled estimator
    draws its orderings from the stream after them.  The model is called
    once and its output blocks are reduced to inner variances one at a time;
    the empty subset redraws nothing and costs exactly 0.
    """
    if n_inputs > MAX_INPUTS:
        raise TooManyInputsError(
            f"{n_inputs} inputs make 2^{n_inputs} subset costs; at most "
            f"{MAX_INPUTS} inputs are supported"
        )
    check_counts(k_outer=k_outer, i_inner=i_inner)
    outer = stream.random((k_outer, n_inputs))
    inner = stream.random((k_outer, i_inner, n_inputs))
    variances = [np.var(block, axis=-1, ddof=1)
                 for block in model(outer[:, None, :], inner)]
    costs = np.concatenate(variances, axis=-1).mean(axis=-1)
    costs[0] = 0.0
    return costs


def _shapley_from_subsets(costs: np.ndarray, n_inputs: int) -> np.ndarray:
    """The exact Shapley effects in one pass over an (L, 2^L) input-by-mask
    matrix: s_l = sum over J of |J|!(L-|J|-1)!/L! * [c(J+l) - c(J)], where
    the gain is exactly 0 for the J that already hold l.  Masks run along
    the contiguous axis, which numpy sums pairwise."""
    inputs = np.arange(n_inputs)[:, None]
    masks = np.arange(1 << n_inputs)
    sizes = (masks >> inputs & 1).sum(axis=0)
    # the full set (size L) has no input left to add, so no weight
    weights = np.array([math.factorial(k) * math.factorial(n_inputs - k - 1)
                        for k in range(n_inputs)] + [0]) / math.factorial(n_inputs)
    gains = costs[masks | 1 << inputs] - costs
    return (weights[sizes] * gains).sum(axis=1)


def _shapley_from_permutations(costs: np.ndarray, perms) -> np.ndarray:
    """Average the marginal cost increments over the rows of an (n, L)
    ordering matrix in one array pass.

    Prefix bit masks come from a cumulative OR along each row.  The
    increments are summed per input in row-major order -- the order a loop
    over orderings and positions would add them, so the sums are bit-for-bit
    those of that loop.
    """
    perms = np.asarray(perms, dtype=np.int64)
    masks = np.bitwise_or.accumulate(np.left_shift(1, perms), axis=1)
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
    """Weigh each subset's marginal cost increments as all L! input orderings
    would, without walking them."""
    costs = _subset_costs(model, n_inputs, k_outer, i_inner,
                          RngStream(seed, ("shapley", rep_index)))
    s = _shapley_from_subsets(costs, n_inputs)
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
    perms = stream.permutations(m_permutations, n_inputs)
    s = _shapley_from_permutations(costs, perms)
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
