"""
Jet matrices and Stein equations behind the general constraint
==============================================================

For a constraint algebra built from a finite Blaschke product, the
constrained Pick matrices are assembled from two Stein equations tying
the jet structure at the constraint zeros to the interpolation nodes.
Their solutions are Gram matrices of Szego-kernel jets, built exactly,
entry by entry, with no solver.  This script shows the closed forms for
the origin constraint, the residuals at rounding level, and a subtlety:
the Stein solution dominates the identity only when the zeros sit at
the origin.
"""

import numpy as np

from cnpick import BlaschkeSpec, DataSet, assemble_bundle, jet_matrices

data = DataSet.scalar([0.5, -0.5, 0.25j], [0.1, 0.2, 0.0])

# Origin constraint (vanishing derivative at 0): the solutions have
# closed forms, the identity and a Vandermonde-like coupling.
bundle = assemble_bundle(data, BlaschkeSpec.z_squared())
res_q, res_t = bundle.stein_residuals
print("origin constraint:")
print("Q =\n", bundle.q.real)
print("Qt =\n", bundle.q_tilde)
print(f"Stein residuals: {res_q:.2e}, {res_t:.2e}")

# A double zero away from the origin.  The solutions stay exact (their
# residuals stay at rounding level), but the smallest eigenvalue of Q
# drops below 1: the identity bound is special to the origin case.
b = BlaschkeSpec(np.array([0.45]), np.array([2]))
bundle = assemble_bundle(data, b)
res_q, res_t = bundle.stein_residuals
print("\ndouble zero at 0.45:")
print(f"Stein residuals: {res_q:.2e}, {res_t:.2e}")
print(f"eigenvalues of Q: {np.linalg.eigvalsh(bundle.q)}")

# Higher multiplicities push Q towards singularity; its entries are
# still exact, because they are finite sums, not a truncated series.
b = BlaschkeSpec(np.array([0.3, -0.2 + 0.4j]), np.array([3, 2]))
bundle = assemble_bundle(data, b)
res_q, res_t = bundle.stein_residuals
eigenvalues = np.linalg.eigvalsh(bundle.q)
print("\ndegree-5 constraint:")
print(f"jet matrix size: {jet_matrices(b, 1)[0].shape}, residuals: {res_q:.2e}, {res_t:.2e}")
print(f"eigenvalue range of Q: [{eigenvalues[0]:.2e}, {eigenvalues[-1]:.2e}]")
