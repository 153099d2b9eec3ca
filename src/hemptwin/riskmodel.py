"""Lightweight final-product trajectory model for variance decomposition.

The full simulation makes the sampling-to-harvest window t' endogenous
(queueing plus ledger delays), which the conditional-variance estimator
cannot resample independently.  This evaluator therefore replays the
cannabinoid trajectory without queueing: cultivation at the mean configured
duration, t' resampled from an empirical distribution recorded by the full
simulation, growth noises mapped through exact truncated-normal inverse CDFs,
and the multiplicative extraction/winterization/purification pipeline with
the data-driven purification pass count.  Given the seeds the output is
fully deterministic, so redrawing a subset of inputs while holding the rest
fixed is exact.  `FinalProductModel(cfg, target, t_prime_sample)` reads the
growth, limit, fraction and cultivation parameters from the scenario `cfg`
itself.

For the decomposition (`FinalProductModel.subset_outputs`), each input's
outer and inner seeds are transformed once per macro-replication and set on a
length-2 axis at the input's bit position (eps' on the pair of axes of t' and
eps'), so one broadcast pass through the output arithmetic gives the outputs
of all 2^L subsets, in `__call__`'s operation order, bit-identical to
evaluating each subset's assembled seed matrix.  The transforms are
element-wise, so the pass runs over row slices of the transformed seeds and
yields one block of `shapley.block_rows` outer rows at a time (at most 2^14
outputs, one row of 12 800 for CBD and two of 6 400 for THC at I=100): the
block's temporaries are then reused from the heap, where the 1 MiB
temporaries of a whole (2^L, K, I) pass would be faulted in afresh for every
macro-replication (about 2 300 minor faults against 22 000 per round of THC
exact, CBD exact and CBD sampled at K=10, I=100).

Both cannabinoid targets share the input list eps, t_prime, eps_prime,
q_extract, w_winter, q_u, q_v; the THC model drops q_u, which cannot touch
THC.  The same per-lot removal fractions apply to a repeated purification
pass.

This is the package's only SciPy importer (`ndtr`/`ndtri` for the inverse
CDFs): `reporting` names `RiskDecomposition` only as a type and `cli` imports
this module inside `shapley`, so `simulate`, `compare` and `audit` start
without the cost of loading SciPy, which also pulls in `numpy.testing` and
`numpy.f2py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .config import ScenarioConfig
from .domain import FACTOR_NAMES
from .shapley import (
    ShapleyResult,
    block_rows,
    check_counts,
    relative_contributions,
    shapley_exact,
    shapley_sampled,
)
from .simulation import run_replication

__all__ = [
    "FinalProductModel",
    "RiskDecomposition",
    "collect_t_prime_samples",
    "decompose_final_product",
    "CBD_FACTORS",
    "THC_FACTORS",
]

CBD_FACTORS = FACTOR_NAMES  # eps, t_prime, eps_prime, q_extract, w_winter, q_u, q_v
THC_FACTORS = tuple(n for n in FACTOR_NAMES if n != "q_u")

_EPS = 1e-12


def _factor_names(target: str) -> tuple:
    if target not in ("cbd", "thc"):
        raise ValueError(f"target must be 'cbd' or 'thc', got {target!r}")
    return CBD_FACTORS if target == "cbd" else THC_FACTORS


def _truncated_normal_from_seed(u, sigma, lower):
    """Inverse-CDF map of a U(0,1) seed to N(0, sigma^2) truncated below at
    `lower`; exact, vectorized, and monotone in the seed."""
    lo_cdf = ndtr(lower / np.maximum(sigma, _EPS))
    p = lo_cdf + np.clip(u, _EPS, 1.0 - _EPS) * (1.0 - lo_cdf)
    return sigma * ndtri(p)


@dataclass
class FinalProductModel:
    """Deterministic map from uniform input seeds to final CBD or THC under
    the scenario `cfg`."""

    cfg: ScenarioConfig
    target: str  # "cbd" or "thc"
    t_prime_sample: np.ndarray
    factor_names: tuple = field(init=False)

    def __post_init__(self) -> None:
        self.factor_names = _factor_names(self.target)
        self.t_prime_sample = np.sort(np.asarray(self.t_prime_sample, dtype=float))
        if self.t_prime_sample.size == 0:
            raise ValueError("empty t' sample")

    @property
    def n_inputs(self) -> int:
        return len(self.factor_names)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Outputs of an (n, L) seed matrix."""
        return self._output(self._mapped(self._columns(u)))

    def subset_outputs(self, outer: np.ndarray, inner: np.ndarray):
        """The outputs of every subset of inputs, in (2^L, rows, I) blocks of
        `block_rows(L, I)` outer rows that cover the K rows in order: row
        `mask` has the inputs in bit mask `mask` on their inner (K, I, L)
        seeds and the rest on their outer (K, 1, L) ones.

        Each input's transformed [outer, inner] pair lies on a length-2 axis
        at its bit position, highest bit first, and eps' is mapped on the
        (t', eps') pair of axes, so one broadcast pass through `__call__`'s
        output arithmetic evaluates every subset: bit for bit the outputs of
        each subset's assembled seed matrix.  The seeds of all K rows are
        mapped once; only the output arithmetic runs block by block.
        """
        n = self.n_inputs
        k, i = inner.shape[:2]
        cols = self._columns(np.stack([np.broadcast_to(outer, inner.shape), inner]))
        for l, name in enumerate(self.factor_names):
            shape = [1] * n + [k, i]
            shape[n - 1 - l] = 2
            cols[name] = cols[name].reshape(shape)
        x = self._mapped(cols)
        rows = block_rows(n, i)
        for start in range(0, k, rows):
            y = self._output({name: v[..., start:start + rows, :]
                              for name, v in x.items()})
            # a one-pass CBD output does not read q_v, so it lacks q_v's axis
            yield np.broadcast_to(y, (2,) * n + y.shape[n:]).reshape(1 << n, -1, i)

    def _mapped(self, cols: dict) -> dict:
        """Each input's transform of its seeds, broadcast against the t'
        seeds for eps'."""
        x = self._transforms(cols)
        x["eps_prime"] = self._eps_prime(cols["t_prime"], cols["eps_prime"])
        return x

    def _columns(self, u) -> dict:
        """Each input's seeds in one block (inputs on the last axis)."""
        u = np.asarray(u, dtype=float)
        return dict(zip(self.factor_names, np.moveaxis(u, -1, 0)))

    def _t_prime(self, seeds: np.ndarray) -> np.ndarray:
        n = self.t_prime_sample.size
        return self.t_prime_sample[np.minimum((seeds * n).astype(int), n - 1)]

    def _eps_prime(self, t_seeds: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Growth noise after sampling, given the t' seeds."""
        g = self.cfg.growth_rate
        t_p = self._t_prime(t_seeds)
        sigma_p = self.cfg.lambda_var * np.sqrt(g * t_p)
        return _truncated_normal_from_seed(seeds, sigma_p, -g * t_p)

    def _transforms(self, cols: dict) -> dict:
        """Each input's transform of one block, except eps': eps becomes
        g*t_c + eps and t_prime becomes g*t'."""
        cfg = self.cfg
        g = cfg.growth_rate
        cultivation = cfg.stage_durations.cultivation
        t_c = 0.5 * (cultivation.lo + cultivation.hi)  # the mean cultivation time
        sigma_c = cfg.lambda_var * math.sqrt(g * t_c)
        eps = _truncated_normal_from_seed(cols["eps"], sigma_c, -g * t_c)
        x = {"eps": g * t_c + eps, "t_prime": g * self._t_prime(cols["t_prime"])}
        uniform = {
            "q_extract": (cfg.extraction_lo, cfg.extraction_hi),
            "w_winter": (cfg.winterization_lo, cfg.winterization_hi),
            "q_v": (cfg.plc_thc_lo, cfg.plc_thc_hi),
            "q_u": (cfg.plc_cbd_lo, cfg.plc_cbd_hi),  # not an input of the THC model
        }
        for name, (lo, hi) in uniform.items():
            if name in cols:
                x[name] = lo + cols[name] * (hi - lo)
        return x

    def _output(self, x: dict) -> np.ndarray:
        """Final CBD or THC from the transformed inputs: eps is g*t_c + eps,
        t_prime is g*t'."""
        cfg = self.cfg
        r = cfg.cbd_thc_ratio
        total = x["eps"] + x["t_prime"] + x["eps_prime"]
        q, w, q_v = x["q_extract"], x["w_winter"], x["q_v"]
        thc_1 = total / (r + 1.0) * q * w * q_v
        if self.target == "thc":
            once, again = thc_1, q_v
        else:
            once, again = total * r / (r + 1.0) * q * w * x["q_u"], x["q_u"]
        if cfg.max_plc_passes < 2:
            return once
        return np.where(thc_1 >= cfg.thc_final_limit, once * again, once)


def collect_t_prime_samples(
    cfg: ScenarioConfig, n_replications: int = 2
) -> np.ndarray:
    """Record every completed sampling-to-harvest window from full-simulation
    replications; this is the empirical t' distribution the evaluator
    resamples from."""
    samples: list[float] = []
    for j in range(n_replications):
        stats = run_replication(cfg, j)
        samples.extend(stats.t_prime_samples)
    if not samples:
        raise RuntimeError("no lots reached harvest; cannot estimate t'")
    return np.asarray(samples, dtype=float)


@dataclass
class RiskDecomposition:
    """Aggregated relative contributions over macro-replications."""

    target: str
    labels: tuple
    rc_mean: np.ndarray
    rc_stderr: np.ndarray
    s_mean: np.ndarray
    variance_mean: float
    estimator_kind: str
    macro_replications: int
    results: list = field(default_factory=list)

    @property
    def residual(self) -> float:
        """|sum RC - 1| averaged over macro-replications."""
        return float(
            np.mean([abs(float(np.sum(r.rc)) - 1.0) for r in self.results])
        )


def decompose_final_product(
    cfg: ScenarioConfig,
    target: str,
    estimator: str = "sampled",
    m_permutations: int = 3000,
    k_outer: int = 10,
    i_inner: int = 100,
    macro_replications: int = 10,
    t_prime_sample=None,
) -> RiskDecomposition:
    """Full risk-decomposition pipeline for one cannabinoid target.  The
    target, the estimator and the sample counts are checked before the t'
    sample is collected."""
    _factor_names(target)
    if estimator not in ("exact", "sampled"):
        raise ValueError(f"unknown estimator {estimator!r}")
    counts = dict(k_outer=k_outer, i_inner=i_inner, macro_replications=macro_replications)
    if estimator == "sampled":
        counts["m_permutations"] = m_permutations
    check_counts(**counts)
    if t_prime_sample is None:
        t_prime_sample = collect_t_prime_samples(cfg)
    model = FinalProductModel(cfg, target, t_prime_sample)
    seed = cfg.run.master_seed
    results: list[ShapleyResult] = []
    for j in range(macro_replications):
        if estimator == "exact":
            res = shapley_exact(
                model.subset_outputs, model.n_inputs, k_outer, i_inner, seed,
                rep_index=j, labels=model.factor_names,
            )
        else:
            res = shapley_sampled(
                model.subset_outputs, model.n_inputs, m_permutations, k_outer,
                i_inner, seed, rep_index=j, labels=model.factor_names,
            )
        results.append(res)
    rc_mean, rc_stderr = relative_contributions(results)
    return RiskDecomposition(
        target=target,
        labels=model.factor_names,
        rc_mean=rc_mean,
        rc_stderr=rc_stderr,
        s_mean=np.vstack([r.s for r in results]).mean(axis=0),
        variance_mean=float(np.mean([r.total_variance for r in results])),
        estimator_kind=results[0].estimator_kind,
        macro_replications=macro_replications,
        results=results,
    )
