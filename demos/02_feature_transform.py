"""Feature preprocessing: normalization and the sigmoid distance transform.

The transform measures how far a point sits from a handful of reference
locations (k-means representatives) and squashes each distance through a
sigmoid, giving bounded features that capture cluster geometry.
"""

import numpy as np

from crowdreg import TransformSpec, fit_centers, normalize, transform

rng = np.random.default_rng(1)

# three blobs in the plane
blobs = np.vstack([
    rng.normal([0, 0], 0.4, size=(40, 2)),
    rng.normal([4, 1], 0.4, size=(40, 2)),
    rng.normal([1, 5], 0.4, size=(40, 2)),
])

X, params = normalize(blobs)
print("after normalization: per-feature mean",
      X.mean(axis=0).round(12), "sd", X.std(axis=0).round(12))

centers = fit_centers(X, 3, seed=7)
print("\nk-means representatives (normalized space):")
print(centers.round(3))

spec = TransformSpec(centers, 1.0)
phi = transform(X, spec)
print("\nsigmoid feature ranges (always within [0.5, 1)):")
print("  min", phi.min(axis=0).round(3), " max", phi.max(axis=0).round(3))

# a point sitting exactly on a representative scores 0.5 on that output
on_center = transform(centers[0], spec)
print("\npoint at the first representative:", on_center.round(3))

# distances grow -> outputs grow monotonically toward 1
line = np.linspace(0, 4, 5)[:, None] * np.array([[1.0, 0.0]]) + centers[0]
print("\nmoving away from that representative:")
for point, row in zip(line, transform(line, spec)):
    print(f"  offset {point - centers[0]}  ->  {row.round(3)}")
