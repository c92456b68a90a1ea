"""
Constructing and verifying an actual interpolant
================================================

Once a feasible origin value is known, a concrete interpolant comes out
of a chain of Moebius-Blaschke reduction steps: two steps strip the
origin constraint, the classical Schur algorithm handles the reduced
data, and the chain reassembles into a function that can be evaluated,
differentiated, serialized and independently verified.
"""

import json

import numpy as np

from cnpick import (
    chain_eval,
    chain_from_json,
    chain_to_json,
    construct_interpolant,
    derivative_at,
    generate_feasible,
    schur_reduce_constrained,
    search_x_grid,
    verify_interpolant,
)

# A guaranteed-feasible instance with three nodes, by construction.
data, certificate = generate_feasible(seed=12, n=3)
print("nodes:", np.round(data.nodes, 4))
print("targets:", np.round(data.scalar_values(), 4))

# Find a feasible origin value, then reduce: after the two origin steps
# the problem is classical interpolation with rescaled targets.
found = search_x_grid(data)
x = complex(found.witness_x[0, 0])
print(f"\nsearch: {found.status}, witness x = {x:.6f}")
reduced = schur_reduce_constrained(data, x)
print("reduced targets:", np.round(reduced.scalar_values(), 4))

chain = construct_interpolant(data, x)
print(f"chain has {len(chain)} steps (2 origin steps + one per node)")

# The chain hits the data, has vanishing derivative at the origin, and
# stays bounded by one.
vals = chain_eval(chain, data.nodes)
print(f"interpolation residuals: {np.max(np.abs(vals - data.scalar_values())):.2e}")
print(f"|s'(0)| = {abs(derivative_at(chain, 0.0, 1)):.2e}")
report = verify_interpolant(chain, data, tol=1e-7)
print(f"verification: passed={report.passed}, sup-norm={report.sup_norm:.9f}")

# Chains serialize losslessly to a documented JSON form.
payload = json.dumps(chain_to_json(chain))
assert chain_from_json(json.loads(payload)) == chain
print(f"\nserialized chain ({len(payload)} bytes):")
print(payload[:120] + " ...")
