"""Named, reproducible random streams and the input distributions built on them.

Every random quantity in the simulator is drawn from a stream identified by
``(master_seed, label)``.  Labels are tuples such as ``("rep", 3, "season",
0)``; two streams with different labels are statistically independent, and
rebuilding a stream from the same seed and label replays the identical
sequence.  This is what makes conditional resampling possible: holding an
input fixed means rebuilding its stream, redrawing it means using a fresh
label.

A stream's generator is the PCG64 that ``np.random.SeedSequence((master_seed,
*label))`` seeds, each string part replaced by a 64-bit hash.  The seed words
come from a vectorised copy of SeedSequence's hash-mix, so
``RngStream.children`` seeds many streams in one numpy pass: the 2L streams
of each Shapley macro-replication, and the ledger's miss, root and shard
streams.  ``tests/test_randomness.py`` checks the words against
``np.random.SeedSequence`` bit for bit over generated labels.  A stream
builds its generator at its first draw, from the words its ``children`` call
computed or, for a stream built alone, from words computed then: a stream
that never draws costs its seed words and nothing more.

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

# SeedSequence's constants (numpy/random/bit_generator.pyx): a pool of 4
# 32-bit words and two hash-constant sequences INIT * MULT**k mod 2**32.
_POOL = 4
_MASK32 = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# each pool word in turn is hashed into the three others, in index order
_PAIRS = [(src, [dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)]


class InvalidParamsError(ValueError):
    """Growth-noise parameters outside their domain (negative g or t)."""


def _int_words(value: int) -> list:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence
    splits it (0 is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


@functools.cache
def _string_words(part: str) -> tuple:
    digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
    return tuple(_int_words(int.from_bytes(digest, "little")))


def _encode_label_part(part):
    """The 32-bit entropy words of one label part."""
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"label ints must be non-negative, got {part}")
        return _int_words(int(part))
    if isinstance(part, str):
        return _string_words(part)
    raise TypeError(f"label parts must be int or str, got {type(part)!r}")


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """XOR and multiply constants of n successive hashmix calls: call k xors
    with init * mult**k and multiplies by init * mult**(k+1), mod 2**32."""
    seq = [init]
    for _ in range(n):
        seq.append(seq[-1] * mult & _MASK32)
    seq = np.array(seq, dtype=np.uint32)
    seq.flags.writeable = False  # cached and shared
    return seq[:-1], seq[1:]


@functools.cache
def _mix_consts(tail: int) -> tuple:
    """hashmix constants of SeedSequence's entropy mix, in its call order:
    the pool fill (4,), the pairwise pool mix (4 sources, 3 targets each) and
    the `tail` words past the pool (tail, 4)."""
    x, m = _hash_consts(INIT_A, MULT_A, _POOL * (_POOL + tail))
    cuts = [(0, _POOL, (_POOL,)), (_POOL, _POOL * _POOL, (_POOL, _POOL - 1)),
            (_POOL * _POOL, len(x), (tail, _POOL))]
    return tuple((x[lo:hi].reshape(shape), m[lo:hi].reshape(shape)) for lo, hi, shape in cuts)


_GENERATE = _hash_consts(INIT_B, MULT_B, 2 * _POOL)
_CYCLE = [0, 1, 2, 3] * 2  # generate_state reads the pool cyclically


def _hashmix(values: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    out = (values ^ x) * m
    return out ^ out >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = MIX_MULT_L * x - MIX_MULT_R * y
    return out ^ out >> 16


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of an
    (N, W) uint32 entropy matrix, in one pass over the rows."""
    n, width = entropy.shape
    fill, pairs, tail = _mix_consts(max(width - _POOL, 0))
    pool = np.zeros((n, _POOL), dtype=np.uint32)
    pool[:, :width] = entropy[:, :_POOL]
    pool = _hashmix(pool, *fill)
    for (src, dst), x, m in zip(_PAIRS, *pairs):
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], x, m))
    # each word past the pool is hashed into every pool word in turn
    hashed = _hashmix(entropy[:, _POOL:, None], *tail)
    for word in range(hashed.shape[1]):
        pool = _mix(pool, hashed[:, word])
    state = _hashmix(pool[:, _CYCLE], *_GENERATE)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def _seed_words(master_seed: int, label: tuple, suffixes) -> np.ndarray:
    """PCG64 seed words of the streams ``(master_seed, label + suffix)``, one
    row of 4 uint64 per suffix; rows of equal entropy length mix together."""
    head = list(_encode_label_part(master_seed))
    for part in label:
        head += _encode_label_part(part)
    # a season's suffixes repeat their parts ("lot", the season, "life"...),
    # so each distinct part is encoded once; keyed by type too, so that a
    # float equal to an int part is still refused
    encoded = {}
    rows = []
    for suffix in suffixes:
        row = head.copy()
        for part in suffix:
            key = (type(part), part)
            words = encoded.get(key)
            if words is None:
                words = encoded[key] = _encode_label_part(part)
            row += words
        rows.append(row)
    by_width: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_width.setdefault(len(row), []).append(i)
    out = np.empty((len(rows), 4), dtype=np.uint64)
    for idx in by_width.values():
        out[idx] = _state_words(np.array([rows[i] for i in idx], dtype=np.uint32))
    return out


class _SeedWords:
    """Hands PCG64 the seed words computed for it (PCG64 asks for 4 uint64)."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


@functools.cache
def _pcg64() -> type:
    """numpy's PCG64, once `_SeedWords` is registered as its ISeedSequence:
    registered at the first generator built, so that importing this module
    does not import numpy.random, and only then."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return np.random.PCG64


@dataclass
class RngStream:
    """A deterministic stream of variates addressed by (master_seed, label).

    Replaying a rebuilt stream yields the identical sequence.  A single
    stream must not be shared between concurrent consumers.
    """

    master_seed: int
    label: tuple = ()
    _gen: np.random.Generator | None = field(default=None, repr=False)
    # the PCG64 seed words, when a `children` call computed them
    _words: np.ndarray | None = field(default=None, repr=False, compare=False)

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            if self._words is None:
                self._words, = _seed_words(self.master_seed, self.label, [()])
            self._gen = np.random.Generator(_pcg64()(_SeedWords(self._words)))
        return self._gen

    def children(self, suffixes) -> list["RngStream"]:
        """Derive one independent stream per label suffix, their seed words
        computed together in one pass; each builds its generator at its first
        draw and equals the stream that ``child(*suffix)`` derives.  Shapley
        seeds its outer and inner streams here, the ledger its miss, root and
        shard streams."""
        suffixes = [tuple(s) for s in suffixes]
        words = _seed_words(self.master_seed, self.label, suffixes)
        return [RngStream(self.master_seed, self.label + s, None, w)
                for s, w in zip(suffixes, words)]

    def child(self, *extra) -> "RngStream":
        """Derive an independent stream with an extended label; its seed
        words are computed at its first draw, as a one-row ``children`` call
        computes them."""
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
