"""The constructive geometry behind the optimality claim.

Given a unit direction e scoring a feature pair (v_plus, v_minus), and a
second pair at least as separated, construct the unit direction e_star
that scores the second pair no worse.  The closed form preserves the
minus-side score exactly on most instances; where it cannot, the
Cauchy-Schwarz fallback certifies the inequalities directly.
"""

import numpy as np

from modkernel.geometry import (construct_e_star, lemma_checks,
                                random_lemma_instance, run_lemma_suite)

rng = np.random.default_rng(3)

batch = random_lemma_instance(rng, dim=3).as_batch()
solutions = construct_e_star(batch)
sol = solutions.row(0)
print(f"one instance (branch {sol.branch}):")
print(f"  p = {sol.p:+.4f} -> p* = {sol.p_star:+.4f} (must not decrease)")
print(f"  n = {sol.n:+.4f} -> n* = {sol.n_star:+.4f} (must not increase)")
for name, (applies, passed, residual) in lemma_checks(batch, solutions).items():
    if applies[0]:
        print(f"  {name:24s} {'ok' if passed[0] else 'FAIL'} "
              f"(residual {residual[0]:.2e})")

print("\nrandomized sweep:")
suite = run_lemma_suite(num_instances=2000, seed=7)
print(f"  {suite.instances} instances, {suite.failures} failures, "
      f"branches {suite.branches}")
for name, resid in sorted(suite.worst_residuals.items()):
    print(f"  worst {name}: {resid:.2e}")
