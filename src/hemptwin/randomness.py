"""Named, reproducible random streams and the input distributions built on them.

Every random quantity in the simulator is drawn from a stream identified by
``(master_seed, label)``.  Labels are tuples such as ``("rep", 3, "lot", 0, 17,
"life")``; two streams with different labels are statistically independent, and
rebuilding a stream from the same seed and label replays the identical
sequence.  This is what makes conditional resampling possible: holding an
input fixed means rebuilding its stream, redrawing it means using a fresh
label.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RngStream",
    "InvalidParamsError",
    "sample_growth_noise",
    "GROWTH_NOISE_MAX_ROUNDS",
]

# Rejection sampling cap for the truncated growth noise.  At the default
# parameters the acceptance probability per round exceeds 0.5, so 1000 rounds
# failing has probability below 2**-1000; the cap exists to turn a parameter
# pathology into a loud error instead of a hang.
GROWTH_NOISE_MAX_ROUNDS = 1000


class InvalidParamsError(ValueError):
    """Growth-noise parameters outside their domain (negative g or t)."""


def _encode_label_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"label ints must be non-negative, got {part}")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"label parts must be int or str, got {type(part)!r}")


@dataclass
class RngStream:
    """A deterministic stream of variates addressed by (master_seed, label).

    Replaying a rebuilt stream yields the identical sequence.  A single
    stream must not be shared between concurrent consumers.
    """

    master_seed: int
    label: tuple = ()
    _gen: np.random.Generator | None = field(default=None, repr=False)

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            entropy = (self.master_seed,) + tuple(
                _encode_label_part(p) for p in self.label
            )
            self._gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy))
            )
        return self._gen

    def child(self, *extra) -> "RngStream":
        """Derive an independent stream with an extended label."""
        return RngStream(self.master_seed, self.label + tuple(extra))

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + self._generator().random() * (hi - lo)

    def exponential(self, mean: float) -> float:
        return -mean * math.log1p(-self._generator().random())

    def standard_normal(self) -> float:
        return float(self._generator().standard_normal())

    def bernoulli(self, p: float) -> bool:
        return self._generator().random() < p

    def random(self, size: int) -> np.ndarray:
        """Vector of iid U(0,1)."""
        return self._generator().random(size)

    def permutations(self, m: int, n: int) -> np.ndarray:
        """(m, n) matrix whose rows are the permutations of range(n) that m
        successive ``Generator.permutation(n)`` calls would return."""
        out = np.tile(np.arange(n), (m, 1))
        self._generator().permuted(out, axis=1, out=out)
        return out


def sample_growth_noise(
    g: float, t: float, lambda_var: float, stream: RngStream
) -> float:
    """Lot-to-lot growth noise: N(0, g*t*lambda^2) truncated below at -g*t.

    The lower truncation keeps total cannabinoid g*t + noise non-negative;
    the upper tail is left open.  Zero elapsed time gives exactly zero noise.
    """
    if g < 0 or t < 0:
        raise InvalidParamsError(f"g and t must be non-negative, got g={g}, t={t}")
    variance = g * t * lambda_var * lambda_var
    if variance == 0.0:
        return 0.0
    sigma = math.sqrt(variance)
    bound = -g * t
    for _ in range(GROWTH_NOISE_MAX_ROUNDS):
        eps = sigma * stream.standard_normal()
        if eps >= bound:
            return eps
    raise RuntimeError(
        f"growth-noise rejection failed after {GROWTH_NOISE_MAX_ROUNDS} rounds "
        f"(g={g}, t={t}, lambda={lambda_var})"
    )
