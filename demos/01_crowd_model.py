"""Fitting the crowd regression model on synthetic data.

Ten annotators with very different noise levels label the same instances.
The variational fit recovers the weight vector and, at the same time, figures
out which annotators are precise and which are sloppy.
"""

import numpy as np

from crowdreg import (
    CrowdDataset,
    default_precision_priors,
    default_weight_prior,
    expected_precision,
    fit_variational,
    predictive,
)

rng = np.random.default_rng(0)

n, d, m = 400, 5, 10
w_true = rng.normal(size=d)
X = rng.normal(size=(n, d))

# noise sd per annotator: half careful (0.1..0.4), half sloppy (1.0..2.0)
noise_sd = np.concatenate([rng.uniform(0.1, 0.4, 5), rng.uniform(1.0, 2.0, 5)])
print("true noise sd per annotator:", noise_sd.round(2))

# every instance gets one label from a random annotator
rows = np.arange(n)
annotators = rng.integers(m, size=n)
values = X @ w_true + rng.normal(0, noise_sd[annotators])

dataset = CrowdDataset(X, rows, annotators, values, m)
weights, precisions, report = fit_variational(
    dataset, default_weight_prior(d), default_precision_priors(m)
)
print(f"\nconverged={report.converged} after {report.iterations} sweeps "
      f"(last relative change of a noise precision rate "
      f"{report.final_delta:.2e})")

print("\nweight recovery:")
print("  true   ", w_true.round(3))
print("  fitted ", weights.mean.round(3))
print("  error  ", float(np.linalg.norm(weights.mean - w_true)).__round__(4))

print("\nestimated noise sd (1/sqrt of expected precision) vs truth:")
est_sd = 1.0 / np.sqrt(expected_precision(precisions))
for j, n_j in enumerate(dataset.label_counts):
    print(f"  annotator {j}: est {est_sd[j]:5.2f}  true {noise_sd[j]:5.2f}  "
          f"({n_j} labels)")

x_new = rng.normal(size=d)
mean, var = predictive(x_new, weights)
print(f"\npredictive at a fresh point: mean {mean:+.3f}, sd {np.sqrt(var):.3f}"
      f"  (true value {float(x_new @ w_true):+.3f})")
