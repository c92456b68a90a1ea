"""
Deciding solvability of constrained interpolation problems
==========================================================

A constrained interpolation problem asks for a holomorphic function on
the unit disk, bounded by one, with vanishing derivative at the origin,
taking prescribed values at prescribed nodes.  This script walks through
the two decision routes the library offers and the classic example where
the constraint genuinely bites.
"""

from cnpick import (
    DataSet,
    is_psd,
    one_point_disk,
    pick_matrix,
    search_lambda,
    search_x_grid,
)

# A single interpolation condition s(0.5) = 0.5.  One-point problems are
# always solvable, and the set of admissible origin values s(0) = x is a
# closed disk with an explicit center and radius.
data = DataSet.scalar([0.5], [0.5])
disk = one_point_disk(0.5, 0.5)
print(f"feasible origin values: disk centered {disk.center:.6f}, radius {disk.radius:.6f}")

# The search confirms and returns a concrete witness inside the disk:
# a parameter whose smallest eigenvalue is nonnegative and certified
# within a factor 2 of the largest one (attained near the disk center).
report = search_x_grid(data)
print(f"search: {report.status}, witness x = {complex(report.witness_x[0, 0]):.6f}")

# The complementary one-parameter criterion certifies feasibility by
# exhibiting a single disk point lambda whose criterion matrix is PSD.
# Lambda is itself an origin value, so it comes back as witness_x.
report = search_lambda(data, resolution=64)
print(f"one-parameter route: {report.status} at lambda = {complex(report.witness_x[0, 0]):.6f}")

# Now the instance that shows the constraint is not free: targets
# w = (0.3, -0.3) at nodes z = (0.3, -0.3).  The identity function
# interpolates, so the unconstrained problem is solvable...
data = DataSet.scalar([0.3, -0.3], [0.3, -0.3])
ok, margin = is_psd(pick_matrix(data))
print(f"\nclassical Pick matrix PSD: {ok} (min eigenvalue {margin:.2e})")

# ... but no interpolant with vanishing derivative at 0 exists.  A dual
# certificate bounds the smallest eigenvalue below zero for every
# admissible parameter.
report = search_x_grid(data)
print(f"constrained search: {report.status}, best margin {report.margin:.4f}")
print(f"grid stats: {report.grid_stats}")

# The one-parameter route can only prove feasibility: a data set is
# solvable iff some lambda passes, and no finite grid shows that none
# does.  Here no lambda passes, so it says Undetermined; the solver's
# dual certificate above is the proof of infeasibility.
report = search_lambda(data, resolution=200)
print(f"one-parameter route: {report.status} ({report.detail})")
