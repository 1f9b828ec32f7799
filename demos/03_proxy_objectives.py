"""The seven pairwise proxy objectives on a labeled batch.

Each proxy is a scalar function of the batch kernel matrix that the input
module maximizes.  The negative-only family reads inter-class pairs
exclusively; the full family also pins intra-class pairs to the kernel
supremum, comparing K with the ideal kernel.
"""

import numpy as np

from modkernel import proxies
from modkernel.kernels import FeatureMap

rng = np.random.default_rng(2)

labels = np.array([0, 0, 1, 1, 2, 2])
part = proxies.partition_pairs(labels)
print(f"batch of {len(labels)}: {part.num_negatives} inter-class ordered pairs, "
      f"{part.num_positives} intra-class")

fmap = FeatureMap("tanh")
alpha, beta = fmap.bounds()

# random features vs the ideal layout
random_feats = fmap.apply(rng.standard_normal((6, 4)))
K_random = random_feats @ random_feats.T
# the ideal kernel: alpha within a class (and on the diagonal), beta across
K_ideal = np.where(labels[:, None] != labels[None, :], beta, alpha)

print(f"\n{'proxy':>10s} {'random':>10s} {'ideal':>10s}")
for kind in proxies.PROXY_KINDS:
    v_rand = proxies.proxy_value(kind, K_random, part, alpha, beta)
    v_ideal = proxies.proxy_value(kind, K_ideal, part, alpha, beta)
    print(f"{kind:>10s} {v_rand:>+10.4f} {v_ideal:>+10.4f}")

n_neg = part.num_negatives
print(f"\nanalytic maxima: nmse-neo 0, cts-neo {-np.exp(beta):.6f}, "
      f"al-neo 1/sqrt(|N|) = {1 / np.sqrt(n_neg):.6f}")
print("(the ideal layout needs every inter-class pair antipodal, which more")
print(" than two classes cannot all realize at once; it is still the")
print(" reference point the objectives push toward)")
