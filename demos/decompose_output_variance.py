"""
Which random input drives final-product variability?
=====================================================

The lot-to-lot variance of the final CBD and THC fractions is split across
the seven random inputs with Shapley values: each input's share is the
average marginal increase in explainable variance over all orderings in
which inputs are revealed.  Conditional variances come from a nested
two-loop estimator that costs all 2^L subsets of inputs in one broadcast pass
per macro-replication (over blocks of at most 2^14 outputs, whose temporaries
stay on the heap; both estimators take at most 8 inputs), and the sampling-to-harvest
window t' is resampled from an empirical distribution recorded by the full
simulation.

The decomposition sums to the total variance by construction (telescoping),
so the relative contributions sum to one.
"""

from hemptwin import default_config
from hemptwin.riskmodel import collect_t_prime_samples, decompose_final_product

cfg = default_config()

# step 1: estimate the t' distribution from the full event-driven twin
t_prime = collect_t_prime_samples(cfg, n_replications=2)
print(f"t' sample: n={t_prime.size}, mean={t_prime.mean():.2f} days, "
      f"sd={t_prime.std():.2f}, share above the 15-day deadline: "
      f"{(t_prime > 15).mean():.1%}")

# step 2: decompose both targets (CBD uses permutation sampling, THC weighs
# all 720 orderings of its six inputs in closed form)
for target, estimator, m in (("cbd", "sampled", 3000), ("thc", "exact", 720)):
    decomp = decompose_final_product(
        cfg, target, estimator=estimator, m_permutations=m,
        k_outer=10, i_inner=100, macro_replications=10,
        t_prime_sample=t_prime,
    )
    print(f"\n{target.upper()} variance shares ({decomp.estimator_kind}, "
          f"{decomp.macro_replications} macro-replications):")
    for label, mean, err in sorted(
        zip(decomp.labels, decomp.rc_mean, decomp.rc_stderr),
        key=lambda row: -row[1],
    ):
        bar = "#" * int(round(60 * max(mean, 0.0)))
        print(f"  {label:12s} {100*mean:6.1f}% +- {100*err:4.1f}  {bar}")
    print(f"  total variance: {decomp.variance_mean:.3e}; "
          f"|sum RC - 1| = {decomp.residual:.1e}")

print("""
Reading: the cultivation growth noise dominates both targets -- most of the
final-product variability is already locked in at the field.  For THC the
purification removal fraction comes second (it acts twice when a repeat
pass is needed), ahead of the post-sampling growth noise.
""")
