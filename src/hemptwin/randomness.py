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
    "DistributionSpec",
    "InvalidSpecError",
    "InvalidParamsError",
    "sample",
    "sample_growth_noise",
    "GROWTH_NOISE_MAX_ROUNDS",
]

# Rejection sampling cap for the truncated growth noise.  At the default
# parameters the acceptance probability per round exceeds 0.5, so 1000 rounds
# failing has probability below 2**-1000; the cap exists to turn a parameter
# pathology into a loud error instead of a hang.
GROWTH_NOISE_MAX_ROUNDS = 1000


class InvalidSpecError(ValueError):
    """A DistributionSpec with out-of-range parameters."""


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

    The counter records how many draw calls the stream has served; replaying
    a rebuilt stream yields the identical sequence.  A single stream must not
    be shared between concurrent consumers.
    """

    master_seed: int
    label: tuple = ()
    counter: int = 0
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
        u = self._generator().random()
        self.counter += 1
        return lo + u * (hi - lo)

    def exponential(self, mean: float) -> float:
        u = self._generator().random()
        self.counter += 1
        return -mean * math.log1p(-u)

    def standard_normal(self) -> float:
        z = self._generator().standard_normal()
        self.counter += 1
        return float(z)

    def bernoulli(self, p: float) -> bool:
        u = self._generator().random()
        self.counter += 1
        return u < p

    def random(self, size: int) -> np.ndarray:
        """Vector of iid U(0,1); counts as `size` draws."""
        out = self._generator().random(size)
        self.counter += size
        return out

    def permutations(self, m: int, n: int) -> np.ndarray:
        """(m, n) matrix whose rows are the permutations of range(n) that m
        successive ``Generator.permutation(n)`` calls would return; counts as
        m draws."""
        out = np.tile(np.arange(n), (m, 1))
        self._generator().permuted(out, axis=1, out=out)
        self.counter += m
        return out


@dataclass(frozen=True)
class DistributionSpec:
    """One of the supported input distributions.

    kind is "uniform" (lo, hi), "exponential" (mean), or "truncated_normal"
    (mean, var, lower, upper); upper may be +inf.
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    mean: float = 0.0
    var: float = 0.0
    lower: float = -math.inf
    upper: float = math.inf

    @staticmethod
    def uniform(lo: float, hi: float) -> "DistributionSpec":
        return DistributionSpec(kind="uniform", lo=lo, hi=hi)

    @staticmethod
    def exponential(mean: float) -> "DistributionSpec":
        return DistributionSpec(kind="exponential", mean=mean)

    @staticmethod
    def truncated_normal(
        mean: float, var: float, lower: float = -math.inf, upper: float = math.inf
    ) -> "DistributionSpec":
        return DistributionSpec(
            kind="truncated_normal", mean=mean, var=var, lower=lower, upper=upper
        )

    def validate(self) -> None:
        if self.kind == "uniform":
            if not (self.lo <= self.hi):
                raise InvalidSpecError(f"uniform needs lo <= hi, got ({self.lo}, {self.hi})")
        elif self.kind == "exponential":
            if not (self.mean > 0):
                raise InvalidSpecError(f"exponential needs mean > 0, got {self.mean}")
        elif self.kind == "truncated_normal":
            if self.var < 0:
                raise InvalidSpecError(f"truncated_normal needs var >= 0, got {self.var}")
            if not (self.lower <= self.upper):
                raise InvalidSpecError(
                    f"truncated_normal needs lower <= upper, got ({self.lower}, {self.upper})"
                )
        else:
            raise InvalidSpecError(f"unknown distribution kind {self.kind!r}")


def sample(spec: DistributionSpec, stream: RngStream) -> float:
    """Draw one value from `spec`; exactly one stream draw per call for the
    closed-form kinds, one dedicated rejection loop for the truncated normal."""
    spec.validate()
    if spec.kind == "uniform":
        return stream.uniform(spec.lo, spec.hi)
    if spec.kind == "exponential":
        return stream.exponential(spec.mean)
    # truncated normal by rejection on a derived substream so the parent
    # stream advances by exactly one call regardless of rejection count
    sub = stream.child("tn", stream.counter)
    stream.counter += 1
    sigma = math.sqrt(spec.var)
    if sigma == 0.0:
        return float(min(max(spec.mean, spec.lower), spec.upper))
    for _ in range(GROWTH_NOISE_MAX_ROUNDS):
        x = spec.mean + sigma * sub.standard_normal()
        if spec.lower <= x <= spec.upper:
            return x
    raise RuntimeError(
        f"rejection sampling failed after {GROWTH_NOISE_MAX_ROUNDS} rounds for {spec}"
    )


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
