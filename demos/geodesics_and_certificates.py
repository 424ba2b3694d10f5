"""
Geodesics, logarithms, and fixed-point certificates
===================================================

Distance bounds need geodesics.  On a naturally reductive space the
geodesics through the base point are one-parameter subgroup orbits, the
Riemannian logarithm can be recovered by a least-squares shooting solve,
and orientation-reversing orthogonal maps pin down invariant planes that
certify where related isometries have fixed fibers.
"""

import numpy as np

from isofib.homspace import (
    base_point,
    chord_to_coset,
    fixed_point_certificate,
    geodesic,
    haar_matrices,
    riemannian_log,
)
from isofib.liealg import build_model, find_record

model = build_model(find_record("so6-stiefel"))
origin = base_point(model)

# shoot a geodesic from the base point along a horizontal direction, then
# recover the direction back from the endpoint
rng = np.random.default_rng(7)
coeffs = rng.normal(size=model.dim_m1)
xi = model.from_m1_coords(0.35 * coeffs / np.linalg.norm(coeffs))
endpoint = geodesic(origin, xi, 1.0)

log = riemannian_log(origin, endpoint)
print(f"log converged: {log.converged}, endpoint residual {log.residual:.3e}")
print(f"recovered |xi - log|: {np.linalg.norm(xi - log.xi):.3e}")

# the chord machinery brackets the coset distance from both sides even
# when no geodesic solve is attempted; it takes stacks of points, one
# certified (lower, upper) pair per row
chord = chord_to_coset(model, endpoint.reps, origin.reps, model.k1_factors)
print(f"chord bounds on the endpoint: [{chord.lower[0]:.6f}, {chord.upper[0]:.6f}]")

# an orientation-reversing orthogonal map always preserves a plane of the
# complementary dimension; the certificate returns an orthonormal basis
# and the residual of invariance; it takes a stack of maps, one plane per row
A = haar_matrices("o", 6, rng, 1)
A[:, :, 0] *= -np.sign(np.linalg.det(A))[:, None]
cert = fixed_point_certificate(A, 1, 1)
print(f"\nreversal certificate: {cert.dimension}-plane, residual {cert.residual[0]:.3e}")
print(f"rotation angles used: {[f'{a:.3f}' for a in cert.rotation_angles[0]]}")

# the split reversal fixes the leading coordinate plane exactly
block = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
cert = fixed_point_certificate(block[None], 1, 1)
print(f"split example basis:\n{cert.basis[0].T}")
