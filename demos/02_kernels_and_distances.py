"""Feature maps, induced kernels, and the distance identity.

The normalized feature maps put every input on the unit sphere of the
feature space, so kernel values live between the declared bounds and
squared distances collapse to 2 - 2k.
"""

import numpy as np

from modkernel.kernels import (FeatureMap, kernel_bounds, kernel_eval,
                               kernel_matrix, rkhs_distance_sq)

rng = np.random.default_rng(1)

for kind in ("relu", "tanh", "sigmoid"):
    hi, lo = kernel_bounds(kind)
    spec = FeatureMap(kind)
    samples = rng.standard_normal((2000, 6)) * 2.0
    K = kernel_matrix(spec, samples[:50])
    print(f"{kind:8s} declared range [{lo:+.0f}, {hi:+.0f}]   "
          f"sampled range [{K.min():+.4f}, {K.max():+.4f}]")

spec = FeatureMap("tanh")
u, v = rng.standard_normal((2, 5))
k = kernel_eval(spec, u, v)
d2 = rkhs_distance_sq(spec, u, v)
print(f"\nk(u,v) = {k:+.6f}   distance^2 = {d2:.6f}   2 - 2k = {2 - 2 * k:.6f}")

antipodal = kernel_eval(spec, u, -u)
print(f"k(u,-u) = {antipodal:+.6f}  (the infimum for tanh)")
