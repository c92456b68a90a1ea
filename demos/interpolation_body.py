"""
Interpolation bodies: attainable values at a fresh point
========================================================

Fix one interpolation condition and ask which values an interpolant can
take at another point of the disk.  Without the constraint the answer is
a single disk.  With the vanishing-derivative constraint the body is
richer: the library reports an inner approximation (a union of disks,
one per admissible origin value) and reads it off on a grid of values;
a value off the grid's disks is not proved unattainable.
"""

import numpy as np

from cnpick import (
    DataSet,
    body_disk_x,
    body_membership,
    body_union,
    one_point_disk,
    unconstrained_body,
)

z1, w1, z0 = 0.5, 0.3, 0.3

# Unconstrained: a disk (the Schwarz-Pick picture).
ball = unconstrained_body(DataSet.scalar([z1], [w1]), z0)
disk = ball.as_disk()
print(f"unconstrained body: disk centered {disk.center:.6f}, radius {disk.radius:.6f}")

# Constrained: sweep the feasible origin values x and collect one value
# disk per x.
x_disk = one_point_disk(z1, w1)
print(f"feasible origin values: disk centered {x_disk.center:.6f}, radius {x_disk.radius:.6f}")

union = body_union(z1, w1, z0, x_resolution=10, w_resolution=24)
print(f"inner approximation: {union.xs.size} disks, diameter {union.diameter():.6f}")
print(f"outer membership grid ({union.outer_grid.size} points, shared x grid): "
      f"{union.inside.sum()} attainable")

# Only the inner inclusion is proved; the union need not be the whole
# body.  Measure the gap on a local grid with the certified membership
# query: points inside the body but not covered by any disk.
grid = np.linspace(0.16, 0.43, 12)
in_body = in_union = 0
for re in grid:
    for im in np.linspace(-0.14, 0.14, 12):
        w0 = complex(re, im)
        in_body += body_membership(z1, w1, z0, w0).feasible
        in_union += union.covers(w0)
print(f"gap measurement on a {12}x{12} local grid: {in_body} points in the body, "
      f"{in_union} covered by the disk union")

# One slice in detail: the disk of values attached to the central x.
slice_disk = body_disk_x(z1, w1, z0, complex(x_disk.center))
print(f"\nvalue disk at the central x: center {slice_disk.center:.6f}, "
      f"radius {slice_disk.radius:.6f}")

# Membership queries: the constant function makes w0 = w1 attainable;
# values outside the unconstrained disk are certainly not.  Each answer
# is the solver's report on the augmented data.
for w0 in (w1, disk.center + 1.5 * disk.radius):
    report = body_membership(z1, w1, z0, w0)
    if report.feasible:
        tail = f"witness x = {complex(report.witness_x[0, 0]):.6f}"
    else:
        tail = f"best margin {report.margin:.2e}"
    print(f"w0 = {w0:.4f}: attainable = {report.feasible}  ({tail})")
