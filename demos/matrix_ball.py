"""
Matrix-ball description of the relaxed feasibility LMI
======================================================

Dropping the repetition structure of the free parameter turns the
constrained feasibility question into a linear matrix inequality whose
full solution set is a matrix ball: center plus contraction sandwiched
between two semi-radius factors.  ``matrix_ball`` returns None when
that set is empty and refuses unusable data with a typed error.  This
script builds the ball for a two-node matrix problem and demonstrates
both directions of the correspondence between contractions and PSD
criterion matrices.
"""

import numpy as np

from cnpick import (
    DataSet,
    ball_membership,
    ball_sample,
    hermitian_part,
    is_psd,
    matrix_ball,
    operator_norm,
    pencil_build,
)

rng = np.random.default_rng(42)


def criterion(pencil, xt):
    p, e_tilde, w_tilde = pencil
    top = e_tilde + w_tilde @ xt.conj().T
    gap = hermitian_part(np.eye(xt.shape[0]) - xt @ xt.conj().T)
    return np.block([[p, top], [top.conj().T, gap]])


values = np.stack([0.3 * np.eye(2), np.array([[0.1, 0.2], [0.0, -0.2]])])
data = DataSet(np.array([0.4, -0.3 + 0.2j]), values)
pencil = pencil_build(data)
print(f"Pick matrix min eig: {np.linalg.eigvalsh(pencil[0])[0]:.4f}")

# Raises NotPsdError or SingularBlockError on unusable data, None when empty.
ball = matrix_ball(*pencil)
print(f"relaxed LMI solvable: {ball is not None}")
print(f"center norm {operator_norm(ball.center):.4f}, semi-radius norms "
      f"{operator_norm(ball.left):.4f} / {operator_norm(ball.right):.4f}")

# Every contraction parameter maps to a PSD criterion matrix; expansive
# parameters map outside.  The pull-back recovers the parameter norm.
for target in (0.5, 0.99, 1.4):
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k *= target / operator_norm(k)
    point = ball_sample(ball, k)
    ok, min_eig = is_psd(criterion(pencil, point))
    _, _, recovered = ball_membership(ball, point)
    print(f"||K|| = {target:4.2f}: criterion PSD = {ok!s:5}  "
          f"(min eig {min_eig:+.2e}), pull-back norm {recovered:.6f}")
