"""Named, reproducible random streams and the input distributions built on them.

Every random quantity in the simulator is drawn from a stream identified by
``(master_seed, label)``.  Labels are tuples such as ``("rep", 3, "season",
0)``; two streams with different labels are statistically independent, and
rebuilding a stream from the same seed and label replays the identical
sequence.

A stream's generator is the PCG64 that ``np.random.SeedSequence((master_seed,
*label))`` seeds, each string part replaced by the little-endian int of its
8-byte BLAKE2b digest.  A stream builds it at its first draw: a stream that
never draws costs nothing, and a run that draws nothing (``audit``) never
imports ``numpy.random``.

Shapley holds an input fixed without rebuilding a stream for it: each
macro-replication draws one outer block and one inner block from its one
stream, and every subset reads those same blocks, an input held fixed on its
outer column and a redrawn one on its inner column.

A lot draws no stream of its own.  Each season draws one block of uniforms,
two rows per lot, and a lot reads its rows in order through `LotDraws`; a
row continues on a stream of the lot's own label only past its last slot.
"""

from __future__ import annotations

import functools
import hashlib
import math
import statistics
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "RngStream",
    "InvalidParamsError",
    "LotDraws",
    "ROW_SLOTS",
    "sample_growth_noise",
]

# Uniforms per lot row of a season block.  Over 18 default replications
# (three topologies, two seeds) no lot read more than 24 `life` draws or 4
# `tamper` draws, so a row past its last slot is rare, not a cap: the draws
# go on, on the lot's overflow stream.
ROW_SLOTS = 32

_BLOCK = 512  # uniforms per generator call behind `RngStream.exponentials`


class InvalidParamsError(ValueError):
    """Growth-noise parameters outside their domain (negative g or t)."""


@functools.cache
def _string_entropy(part: str) -> int:
    digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class RngStream:
    """A deterministic stream of variates addressed by (master_seed, label).

    Replaying a rebuilt stream yields the identical sequence.  A single
    stream must not be shared between concurrent consumers.  SeedSequence
    refuses a float label part (TypeError) or a negative int (ValueError) at
    the first draw.
    """

    master_seed: int
    label: tuple = ()
    _gen: np.random.Generator | None = field(default=None, repr=False)

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            entropy = [self.master_seed]
            entropy += [_string_entropy(p) if isinstance(p, str) else p for p in self.label]
            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        return self._gen

    def child(self, *extra) -> "RngStream":
        """Derive an independent stream with an extended label, seeded at its
        first draw: the ledger's miss, root and shard streams, a season's
        block stream and a lot row's overflow stream."""
        return RngStream(self.master_seed, self.label + extra)

    # The scalar draws run thousands of times a replication: they read the
    # generator directly and take the seeding path only before the first draw.

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (self._gen or self._generator()).random() * (hi - lo)

    def exponentials(self, mean: float) -> Iterator[float]:
        """Endless exponential draws of mean `mean` by inversion, each from
        the stream's next uniform; the uniforms are drawn `_BLOCK` at a time,
        ahead, so this must be the stream's only consumer."""
        while True:
            for u in self.random(_BLOCK).tolist():
                yield -mean * math.log1p(-u)

    def bernoulli(self, p: float) -> bool:
        return (self._gen or self._generator()).random() < p

    def random(self, size) -> np.ndarray:
        """Array of iid U(0,1) of shape `size` (an int or a tuple)."""
        return self._generator().random(size)

    def permutations(self, m: int, n: int) -> np.ndarray:
        """(m, n) matrix whose rows are the permutations of range(n) that m
        successive ``Generator.permutation(n)`` calls would return."""
        out = np.tile(np.arange(n), (m, 1))
        self._generator().permuted(out, axis=1, out=out)
        return out


class LotDraws:
    """One lot's uniforms for one purpose, its `life` or its `tamper` draws.

    The draws are its row of a season block, in order, and past the row's
    last slot the stream ``parent.child(*suffix)``, built at that draw.  A
    row is thus an endless sequence: a lot that retests without end never
    runs out.  Not a stream, so it has no generator of its own.
    """

    __slots__ = ("_next", "_parent", "_suffix")

    def __init__(self, row: list, parent: RngStream, suffix: tuple) -> None:
        self._next = iter(row).__next__
        self._parent = parent
        self._suffix = suffix

    def _overflow(self) -> float:
        self._next = self._parent.child(*self._suffix).uniform
        return self._next()

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        try:
            u = self._next()
        except StopIteration:
            u = self._overflow()
        return lo + u * (hi - lo)

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p


_EPS = 1e-12  # the clip of `riskmodel._truncated_normal_from_seed`
_SQRT2 = math.sqrt(2.0)
_inv_cdf = statistics.NormalDist().inv_cdf


def sample_growth_noise(g: float, t: float, lambda_var: float, u: float) -> float:
    """Lot-to-lot growth noise: N(0, g*t*lambda^2) truncated below at -g*t,
    by exact inversion of the uniform `u`.

    The lower truncation keeps total cannabinoid g*t + noise non-negative;
    the upper tail is left open.  Zero elapsed time gives exactly zero noise.
    The map is the surrogate's (`riskmodel._truncated_normal_from_seed`), so
    twin and surrogate turn a uniform into the same noise.  Phi comes from
    `erfc`, which keeps the lower tail that ``1 + erf`` loses; Phi's inverse
    is `statistics.NormalDist`'s, so the twin loads no SciPy.
    """
    if g < 0 or t < 0:
        raise InvalidParamsError(f"g and t must be non-negative, got g={g}, t={t}")
    variance = g * t * lambda_var * lambda_var
    if variance == 0.0:
        return 0.0
    sigma = math.sqrt(variance)
    x = -g * t / sigma  # the truncation point, in units of sigma
    lo_cdf = 0.5 * math.erfc(-x / _SQRT2)
    u = min(max(u, _EPS), 1.0 - _EPS)
    return sigma * _inv_cdf(lo_cdf + u * (1.0 - lo_cdf))
