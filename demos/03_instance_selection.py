"""Choosing which instance to label next.

The score of a candidate is its predictive variance under the current weight
posterior.  Labeling the top-scoring instance shrinks the posterior the most:
the demo verifies the determinant shrinkage identity and the error-contraction
sandwich on a live posterior.
"""

import numpy as np

from crowdreg import (
    WeightPosterior,
    det_shrinkage,
    error_contraction_bounds,
    instance_score,
    select_instance,
)

rng = np.random.default_rng(2)
d = 4

# posterior after some observations along a few directions only
X_seen = rng.normal(size=(12, d)) * np.array([1.0, 1.0, 0.2, 0.05])
precision = np.eye(d) + 2.0 * X_seen.T @ X_seen
posterior = WeightPosterior(rng.normal(size=d), precision)

pool = rng.normal(size=(8, d))  # one candidate per row
print("pool scores (predictive variance):")
for i, x in enumerate(pool):
    print(f"  candidate {i}: {instance_score(x, posterior):.4f}")

winner = select_instance(np.arange(len(pool)), pool, posterior)
print(f"\nselected candidate: {winner}")

x_star = pool[winner]
beta = 4.0
shrink = det_shrinkage(posterior, x_star, beta)
print(f"\nlabeling it with precision {beta} multiplies the posterior "
      f"covariance determinant by {shrink:.4f}")

# cross-check against dense determinants
new_precision = posterior.precision + beta * np.outer(x_star, x_star)
dense = np.linalg.det(posterior.precision) / np.linalg.det(new_precision)
print(f"dense determinant ratio agrees: {dense:.4f}")

lower, upper = error_contraction_bounds(posterior, x_star, beta)
print(f"\nexpected estimator error after the label: between {lower:.3f}x "
      f"and {upper:.0f}x the current error")

worst = min(det_shrinkage(posterior, x, beta) for x in pool)
print(f"(best candidate in the pool would reach {worst:.3f}x determinant "
      "shrinkage; selection picks exactly that one)")
