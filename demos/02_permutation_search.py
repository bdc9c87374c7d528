"""Permutation search: reorder rows so subvectors become cheaper to encode.

Constructs a matrix whose rows are pairwise correlated but scattered, so the
natural row order puts unrelated rows into the same subvector. The search
objective is the log-determinant of the subvector covariance; watch it drop
from identity to the greedy bucket initialization to local search, and see
the actual quantization error follow.
"""

import numpy as np

from pqf import layout, permsearch, quantize
from pqf.rng import gaussian, make_rng

rng = make_rng(0, "demo-perm")
m, n, d = 32, 200, 4

# rows i and i + m/2 share a latent signal; scales span two decades
latent = gaussian(rng, (m // 2, n))
scales = np.logspace(0, 1.5, m // 2)[rng.permutation(m // 2)]
matrix = np.concatenate(
    [latent * scales[:, None], (latent + 0.05 * gaussian(rng, (m // 2, n))) * scales[:, None]]
)

identity_obj = permsearch.matrix_objective(matrix, d)
greedy = permsearch.greedy_init(matrix, d)
greedy_obj = permsearch.permuted_objective(matrix, d, greedy)
refined = permsearch.local_search(matrix, d, 1, greedy, iters=1000, seed=0)
refined_obj = permsearch.permuted_objective(matrix, d, refined)

print(f"logdet objective, identity : {identity_obj:9.4f}")
print(f"logdet objective, greedy   : {greedy_obj:9.4f}")
print(f"logdet objective, +search  : {refined_obj:9.4f}")

# a lower covariance determinant translates into lower quantization error
k = 32
for label, perm in (("identity", np.arange(m)), ("optimized", refined)):
    pts = layout.split_matrix(matrix[perm], d).reshape(-1, d)
    sigma = permsearch.subvector_covariance(pts)
    _, _, err = quantize.src(pts, sigma, k, quantize.SRCConfig(200, 0.5, 1))
    print(f"quantization error with {label} rows: {err:8.4f}")
