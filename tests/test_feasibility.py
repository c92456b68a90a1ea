import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpick.body import body_membership
from cnpick.errors import DegenerateDataError, DomainError, IllConditionedError, NotPsdError
from cnpick.feasibility import (
    FEASIBLE,
    INFEASIBLE,
    M_COND_LIMIT,
    UNDETERMINED,
    Disk,
    MatrixBall,
    _disk_grid,
    _dual_bound,
    _maximize_min_eig,
    _pivot,
    ball_membership,
    ball_sample,
    matrix_ball,
    one_point_disk,
    pencil_build,
    search_lambda,
    search_x_grid,
)
from cnpick.kernels import lambda_criterion_matrix, necessity_scan
from cnpick.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    hermitian_part,
    is_psd,
    operator_norm,
    psd_margin,
)
from cnpick.pick import (
    BlaschkeSpec,
    DataSet,
    assemble_bundle,
    constrained_pick,
    constrained_pick_cf,
    constrained_pick_terms,
    pick_matrix,
)
from cnpick.interpolant import generate_feasible, schur_reduce_constrained

from conftest import (
    accept5_instances,
    congruent_lift,
    constrained_pick_z2_quadratic,
    degree4_feasible,
    disk_grid_formula_oracle,
    disk_grid_oracle,
    disk_point,
    fresh_builder,
    matrix_feasible,
    node_matrices,
    random_dataset,
    random_psd,
    rng_for,
    scalar_delta,
    scalar_feasible_x,
)

INFEASIBLE_DATA = DataSet.scalar([0.3, -0.3], [0.3, -0.3])

# Feasible by construction, with a maximal margin within ~1e-6 of zero.
BOUNDARY_FEASIBLE = [(2022850573, 3), (392565374, 16), (747495142, 3), (654321114, 3)]


def assert_certified(report, data, b=None, below=None):
    """An Infeasible report whose certificate checks on a fresh builder."""
    assert report.status == INFEASIBLE
    if below is None:
        below = -DEFAULT_TOL.psd_tol * report.grid_stats["best_scale"]
    assert _dual_bound(*fresh_builder(data, b), report.certificate) < below


def criterion_matrix(pencil, xt):
    """The LMI matrix at a candidate parameter (test-side assembler)."""
    p, e_tilde, w_tilde = pencil
    top = e_tilde + w_tilde @ xt.conj().T
    gap = hermitian_part(np.eye(xt.shape[0]) - xt @ xt.conj().T)
    return np.block([[p, top], [top.conj().T, gap]])


def pd_pencil(seed, k=1, n=None):
    """Random data whose Pick matrix is safely positive definite, with a usable pivot."""
    for offset in range(40):
        d = random_dataset(seed + 131 * offset, n=n, k=k, wmax=0.55)
        pencil = pencil_build(d)
        min_eig, scale = psd_margin(pencil[0])
        if min_eig > DEFAULT_TOL.psd_tol * scale and np.linalg.cond(_pivot(*pencil)) < 1e10:
            return d, pencil
    raise AssertionError("could not find a usable pencil")


def lambda_alt(pencil):
    """Second algebraic form of the solvability Schur complement.

    ``I - Et* P^-1 Et + Et* P^-1 Wt (I + Wt* P^-1 Wt)^-1 Wt* P^-1 Et``;
    agrees with the primary form, the ball's ``left``, by a push-through
    identity.  Needs a positive definite Pick matrix, as ``pd_pencil``
    provides.
    """
    p, e_tilde, w_tilde = pencil
    pinv_e = np.linalg.solve(p, e_tilde)
    pinv_w = np.linalg.solve(p, w_tilde)
    inner = np.eye(w_tilde.shape[1]) + w_tilde.conj().T @ pinv_w
    cross = e_tilde.conj().T @ pinv_w
    return hermitian_part(
        np.eye(e_tilde.shape[1]) - e_tilde.conj().T @ pinv_e
        + cross @ np.linalg.solve(inner, cross.conj().T)
    )

class TestPencil:
    def test_zero_targets_identity_pick(self):
        d = DataSet.scalar([0.5, -0.5], [0.0, 0.0])
        pencil = pencil_build(d)
        m = _pivot(*pencil)
        # With Wt = 0 the pivot is block diagonal: [I - Et* P^-1 Et, -I].
        a = pencil[1].shape[1]
        assert np.allclose(m[a:, :a], 0)
        assert np.allclose(m[a:, a:], -np.eye(a))

    def test_literal_identity_pick_pivot(self):
        rng = rng_for(0)
        et = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        m = _pivot(np.eye(3), et, np.zeros((3, 2)))
        expected = np.block(
            [
                [np.eye(2) - et.conj().T @ et, np.zeros((2, 2))],
                [np.zeros((2, 2)), -np.eye(2)],
            ]
        )
        assert np.allclose(m, expected)

    @pytest.mark.parametrize("seed", range(30))
    def test_lambda_two_forms_agree(self, seed):
        _, pencil = pd_pencil(seed, k=int(rng_for(seed).integers(1, 3)))
        # The ball's ``left`` is the primary form of ``Lam``.
        ball = matrix_ball(*pencil)
        assert np.allclose(ball.left, lambda_alt(pencil), atol=DEFAULT_TOL.residual_tol)

    @pytest.mark.parametrize("seed", range(15))
    def test_pivot_corner_negative_definite(self, seed):
        _, pencil = pd_pencil(seed + 50)
        a = pencil[1].shape[1]
        ok, _ = is_psd(-_pivot(*pencil)[a:, a:])
        assert ok

    def test_indefinite_pick_refuses_ball(self):
        d = DataSet.scalar([0.1, -0.1], [0.8, -0.8])
        with pytest.raises(NotPsdError):
            matrix_ball(*pencil_build(d))

    def test_singular_pivot_refuses_ball(self):
        # P = I, Wt = 0 and Et* Et = 1 make the pivot's leading block, Lam, zero.
        with pytest.raises(IllConditionedError) as err:
            matrix_ball(np.eye(2), np.array([[1.0], [0.0]]), np.zeros((2, 1)))
        assert not err.value.cond <= M_COND_LIMIT


class TestBall:
    def test_trivial_pencil_full_ball(self):
        ball = matrix_ball(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.allclose(ball.center, 0)
        assert np.allclose(ball.left, np.eye(2))
        assert np.allclose(ball.right, np.eye(2))

    @pytest.mark.parametrize("scale", [0.0, 0.05])
    def test_indefinite_lambda_empty_ball(self, scale):
        # Lam = I - Et* G^-1 Et has min eig -3.975 at Wt = 0; the pivot stays usable.
        rng = rng_for(0)
        et = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        wt = scale * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        pencil = (np.eye(3), et, wt)
        assert np.linalg.cond(_pivot(*pencil)) < 1e3
        assert psd_margin(lambda_alt(pencil))[0] < -3.0
        assert matrix_ball(*pencil) is None

    def test_center_feasible(self):
        _, pencil = pd_pencil(3)
        ball = matrix_ball(*pencil)
        assert ball is not None
        assert is_psd(criterion_matrix(pencil, ball.center))[0]

    def test_membership_of_center_and_boundary(self):
        _, pencil = pd_pencil(7)
        ball = matrix_ball(*pencil)
        inside, k, norm = ball_membership(ball, ball.center)
        assert inside and norm < 1e-12 and np.allclose(k, 0)
        boundary = ball_sample(ball, np.eye(ball.center.shape[0]))
        inside, _, norm = ball_membership(ball, boundary)
        assert inside and norm == pytest.approx(1.0, abs=1e-9)

    def test_far_point_outside(self):
        _, pencil = pd_pencil(9)
        ball = matrix_ball(*pencil)
        scale = 10 * (operator_norm(ball.center) + operator_norm(ball.left) + operator_norm(ball.right) + 1)
        inside, _, _ = ball_membership(ball, ball.center + scale * np.eye(ball.center.shape[0]))
        assert not inside

    def test_membership_requires_pd_radii(self):
        ball = MatrixBall(np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1))
        with pytest.raises(NotPsdError):
            ball_membership(ball, np.zeros((1, 1)))

    @pytest.mark.parametrize("func", [ball_sample, ball_membership])
    def test_argument_shape_refused(self, func):
        ball = MatrixBall(np.zeros((2, 2)), np.eye(2), np.eye(2))
        with pytest.raises(DomainError):
            func(ball, np.eye(3))

    @pytest.mark.parametrize("seed", range(40))
    def test_two_sided_membership(self, seed):
        rng = rng_for(90_000 + seed)
        k = int(rng.integers(1, 3))
        _, pencil = pd_pencil(seed, k=k)
        ball = matrix_ball(*pencil)
        assert ball is not None
        dim = ball.center.shape[0]
        for _ in range(6):
            k0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            k0 *= rng.uniform(0.3, 1.7) / operator_norm(k0)
            xt = ball_sample(ball, k0)
            verdict, margin = is_psd(criterion_matrix(pencil, xt))
            if abs(margin) < 10 * DEFAULT_TOL.psd_tol:
                continue
            assert verdict == (operator_norm(k0) <= 1.0)
            # pull-back recovers the contraction parameter
            _, k_back, norm = ball_membership(ball, xt)
            assert norm == pytest.approx(operator_norm(k0), rel=1e-8, abs=1e-10)


class TestScalarRoute:
    def test_delta_fixture(self):
        d = DataSet.scalar([0.5], [0.5])
        delta, delta_tilde = scalar_delta(d)
        assert delta[0, 0].real == pytest.approx(1.3125)
        prefactor = (0.25 * (1 - 0.25) / (1 - 0.25 * 0.0625)) ** 2
        assert delta_tilde[0, 0].real == pytest.approx(prefactor * 1.3125)

    def test_zero_targets_delta_is_pick(self):
        d = DataSet.scalar([0.5, -0.4], [0.0, 0.0])
        delta, delta_tilde = scalar_delta(d)
        p = pick_matrix(d)
        z, e, _ = node_matrices(d)
        assert np.allclose(delta, p)
        expected = p - e @ e.conj().T - z @ e @ e.conj().T @ z.conj().T
        assert np.allclose(delta_tilde, expected)

    def test_disk_center_feasible_offset_not(self):
        d = DataSet.scalar([0.5], [0.5])
        deltas = scalar_delta(d)
        ok, _ = scalar_feasible_x(d, 0.476190, deltas)
        assert ok
        bad, _ = scalar_feasible_x(d, 0.476190 + 0.25, deltas)
        assert not bad

    def test_constant_data_constant_witness(self):
        d = DataSet.scalar([0.2, -0.4, 0.5j], [0.3 - 0.1j] * 3)
        ok, _ = scalar_feasible_x(d, 0.3 - 0.1j)
        assert ok

    def test_rejects_big_x(self):
        with pytest.raises(DomainError):
            scalar_feasible_x(DataSet.scalar([0.5], [0.5]), 1.0)

    @pytest.mark.parametrize("seed", range(500))
    def test_matches_quadratic_builder(self, seed):
        rng = rng_for(200_000 + seed)
        d = random_dataset(seed, k=1, wmax=0.85)
        try:
            deltas = scalar_delta(d)
        except Exception:
            return
        if not is_psd(deltas[0])[0] or np.linalg.eigvalsh(hermitian_part(deltas[0]))[0] < 1e-8:
            return
        x = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        via_delta, m1 = scalar_feasible_x(d, x, deltas)
        via_pick, m2 = is_psd(constrained_pick_z2_quadratic(d, x))
        if min(abs(m1), abs(m2)) > 10 * DEFAULT_TOL.psd_tol:
            assert via_delta == via_pick


class TestOnePointDisk:
    def test_documented_fixture(self):
        disk = one_point_disk(0.5, 0.5)
        assert disk.center == pytest.approx(10.0 / 21.0, abs=1e-15)
        assert disk.radius == pytest.approx(4.0 / 21.0, abs=1e-15)

    def test_zero_target(self):
        disk = one_point_disk(0.5, 0.0)
        assert disk.center == 0
        assert disk.radius == pytest.approx(0.25)

    def test_large_target_small_disk(self):
        disk = one_point_disk(0.5, 0.9)
        assert disk.center == pytest.approx(0.888744, abs=1e-5)
        assert disk.radius == pytest.approx(0.050033, abs=1e-5)

    def test_grid_agreement(self):
        disk = one_point_disk(0.5, 0.5)
        d = DataSet.scalar([0.5], [0.5])
        side = np.linspace(-0.99, 0.99, 41)
        for re in side:
            for im in side[::4]:
                x = complex(re, im)
                verdict, margin = is_psd(constrained_pick_z2_quadratic(d, x))
                if abs(margin) > 10 * DEFAULT_TOL.psd_tol:
                    assert verdict == disk.contains(x)

    @pytest.mark.parametrize("seed", range(1000))
    def test_disk_inside_unit_disk(self, seed):
        rng = rng_for(300_000 + seed)
        z1 = rng.uniform(0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
        w1 = rng.uniform(0.0, 0.97) * np.exp(2j * np.pi * rng.uniform())
        disk = one_point_disk(z1, w1)
        assert 1.0 - abs(disk.center) - disk.radius > 0

    def test_boundary_target_degenerate(self):
        with pytest.raises(DegenerateDataError):
            one_point_disk(0.5, np.exp(0.4j))

    def test_rejects_origin_node(self):
        with pytest.raises(DomainError):
            one_point_disk(0.0, 0.5)

    @pytest.mark.parametrize(
        "function, args",
        [(one_point_disk, (0.5, complex(np.nan, 0.0))), (Disk, (0.1, np.nan))],
        ids=["one_point_disk", "Disk"],
    )
    def test_rejects_nan(self, function, args):
        with pytest.raises(DomainError):
            function(*args)

    @pytest.mark.parametrize(
        "center",
        [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.0, -np.inf)],
        ids=["nan-real", "nan-imag", "inf-real", "inf-imag"],
    )
    def test_disk_rejects_non_finite_center(self, center):
        with pytest.raises(DomainError, match="center must be finite"):
            Disk(center, 0.1)


class TestSearch:
    def test_one_point_feasible_witness_in_disk(self):
        d = DataSet.scalar([0.5], [0.5])
        report = search_x_grid(d)
        assert report.status == FEASIBLE
        assert one_point_disk(0.5, 0.5).contains(complex(report.witness_x[0, 0]), 1e-9)

    def test_constant_data_feasible(self):
        d = DataSet.scalar([0.2, -0.3, 0.4j], [0.25 + 0.1j] * 3)
        report = search_x_grid(d)
        assert report.status == FEASIBLE
        assert abs(complex(report.witness_x[0, 0]) - (0.25 + 0.1j)) < 0.15

    def test_documented_gap_instance(self):
        assert is_psd(pick_matrix(INFEASIBLE_DATA))[0]
        report = search_x_grid(INFEASIBLE_DATA)
        assert report.status == INFEASIBLE
        assert report.grid_stats["uniform_infeasible"]
        assert report.grid_stats["stop"] == "certified"
        assert report.margin < -1e-3

    def test_feasible_stops_on_a_gap_rule(self):
        report = search_x_grid(generate_feasible(3, 3)[0])
        assert report.status == FEASIBLE
        assert report.grid_stats["stop"] in ("decided", "gap")

    def test_undetermined_below_resolution_gate(self):
        """The gap instance's certificate bounds every parameter below -1e-3 on its own."""
        assert_certified(search_x_grid(INFEASIBLE_DATA), INFEASIBLE_DATA, below=-1e-3)

    @pytest.mark.parametrize("seed, n", BOUNDARY_FEASIBLE)
    def test_boundary_feasible_never_infeasible(self, seed, n):
        data, _ = generate_feasible(seed, n)
        report = search_x_grid(data)
        assert report.status != INFEASIBLE
        if report.status == FEASIBLE:
            cf = constrained_pick_cf(data, BlaschkeSpec.z_squared(), report.witness_x)
            assert is_psd(cf, ToleranceConfig(psd_tol=1e-7))[0]
            assert operator_norm(report.witness_x) < 1.0

    def test_lambda_one_point_target_witness(self):
        d = DataSet.scalar([0.5], [0.3 + 0.2j])
        report = search_lambda(d, resolution=32)
        assert report.status == FEASIBLE

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_lambda_rejects_resolution_below_one(self, resolution):
        with pytest.raises(DomainError, match="grid resolution must be >= 1"):
            search_lambda(DataSet.scalar([0.5], [0.3 + 0.2j]), resolution=resolution)

    def test_lambda_documented_gap(self):
        """The one-parameter route finds no witness and certifies nothing: the solver proves it."""
        report = search_lambda(INFEASIBLE_DATA, resolution=200)
        assert report.status == UNDETERMINED
        assert report.certificate is None and report.certificate_kind is None

    @pytest.mark.parametrize("seed", range(6))
    def test_lambda_never_infeasible_below_threshold(self, seed):
        """Just below the solver's threshold scale, the one-parameter route never says Infeasible."""
        data, _ = generate_feasible(seed, 2 + seed % 2)

        def scaled(s):
            return DataSet(data.nodes, data.values * s)

        lo, hi = 1.0, 1.0 / np.max(np.abs(data.values))
        assert search_x_grid(scaled(hi)).status != FEASIBLE
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if search_x_grid(scaled(mid)).status == FEASIBLE else (lo, mid)
        for eps in (1e-2, 1e-4, 1e-6):
            near = scaled(lo * (1 - eps))
            assert search_x_grid(near).status == FEASIBLE
            assert search_lambda(near, resolution=200).status != INFEASIBLE

    def test_overlap_routes(self):
        d = DataSet.scalar([0.3, 0.5], [0.1, 0.4])
        b = BlaschkeSpec(np.array([0.3]), np.array([1]))
        report = search_x_grid(d, b)
        assert report.status == INFEASIBLE
        assert "overlap" in report.detail

    def test_matrix_data_constant_feasible(self):
        rng = rng_for(5)
        w = 0.2 * np.eye(2) + 0.02 * rng.standard_normal((2, 2))
        d = DataSet(np.array([0.3, -0.4 + 0.2j]), np.stack([w, w]))
        report = search_x_grid(d)
        assert report.status == FEASIBLE

    def test_matrix_data_never_infeasible(self):
        """Norm-2 matrix data are certified Infeasible."""
        w = np.array([[0.0, 2.0], [0.0, 0.0]])  # norm 2, clearly infeasible
        d = DataSet(np.array([0.3]), w.reshape(1, 2, 2))
        assert_certified(search_x_grid(d), d, below=-1e-3)

    @pytest.mark.parametrize("seed", range(25))
    def test_feasible_implies_classical_psd(self, seed):
        data, _ = generate_feasible(seed, int(rng_for(seed).integers(1, 4)))
        report = search_x_grid(data)
        assert report.status == FEASIBLE
        assert is_psd(pick_matrix(data))[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_feasible_implies_scan_pass(self, seed):
        data, _ = generate_feasible(400 + seed, 2)
        assert search_x_grid(data).status == FEASIBLE
        assert necessity_scan(data, samples=500, seed=seed).passed


def guard_cases():
    """The fixed set of the solver's count guards: 60 generated scalar, one infeasible, two matrix."""
    cases = [generate_feasible(seed, n)[0] for seed in range(20) for n in (1, 3, 8)]
    return cases + [INFEASIBLE_DATA, matrix_feasible(7, 2, 3), matrix_feasible(11, 3, 2)]


def assert_feasible_contract(report):
    """A solver Feasible: a nonnegative margin, optimal within the tolerance or within a factor 2."""
    stats = report.grid_stats
    assert report.margin >= 0
    upper = stats["upper_bound"]
    assert upper - report.margin <= DEFAULT_TOL.psd_tol * stats["best_scale"] or upper <= 2 * report.margin


def test_iteration_count_guard():
    """Solver iterations do not depend on the hardware: their sum over a fixed set is bounded.

    The bound is 296, the count of the solver that stops once its dual
    certifies a nonnegative margin within a factor 2 of the best one,
    plus 5%; iterating until the bounds met within ``psd_tol * scale``
    took 475.  Each Feasible report meets that contract.
    """
    total = 0
    for data in guard_cases():
        report = search_x_grid(data)
        total += report.grid_stats["points"]
        if report.feasible:
            assert_feasible_contract(report)
    assert total <= 296


def test_feasible_contract_beyond_the_guard_set():
    feasible = 0
    for seed in range(20, 60):
        for n in (1, 3, 8):
            report = search_x_grid(generate_feasible(seed, n)[0])
            if report.feasible:
                feasible += 1
                assert_feasible_contract(report)
    assert feasible == 120


def test_returned_dual_rechecks_to_the_upper_bound():
    """The solver's Y gives its ``upper_bound`` under :func:`_dual_bound`, Feasible runs included.

    Relative to ``1 + |upper_bound|``: the bound is a sum of terms of
    order one, and at a ``gap`` stop it is itself about zero.
    """
    signs = set()
    for data in guard_cases():
        a0, terms = constrained_pick_terms(assemble_bundle(data, BlaschkeSpec.z_squared()))
        _, lmin, _, upper, y, _, stop = _maximize_min_eig(a0, terms, DEFAULT_TOL)
        signs.add(lmin >= 0)
        assert abs(_dual_bound(a0, terms, y) - upper) <= 1e-13 * (1.0 + abs(upper)), stop
    assert signs == {False, True}


def test_solver_stops_at_the_first_iterate_its_rule_holds(solver_trace):
    """No wasted iteration and no early stop: ``decided`` fires exactly where it first holds."""
    stops = set()
    for data in guard_cases():
        runs = len(solver_trace)
        report = search_x_grid(data)
        stats = report.grid_stats
        assert len(solver_trace) == runs + 1
        trace = solver_trace[-1]
        assert len(trace) == stats["points"] + 1
        assert trace[-1] == (stats["best_margin"], stats["upper_bound"])
        decided = [0 <= lower and upper <= 2 * lower for lower, upper in trace]
        assert not any(decided[:-1])
        assert decided[-1] == (stats["stop"] == "decided")
        if stats["stop"] == "gap":
            lower, upper = trace[-1]
            assert upper - lower <= DEFAULT_TOL.psd_tol * stats["best_scale"]
        stops.add(stats["stop"])
    assert {"decided", "gap", "certified"} <= stops


def test_eigendecomposition_guard(linalg_calls):
    """The solver's eigendecompositions over the guard set are bounded; ``eigh`` only on a stall.

    The bound is 1,020 ``eigh`` and ``eigvalsh`` calls, the count of the
    solver that stops once its dual certifies a nonnegative margin
    within a factor 2 of the best one, plus 5%; iterating until the
    bounds met within ``psd_tol * scale`` took 1,551.  A run that does
    not stall makes no ``eigh`` call, and every Infeasible
    ``upper_bound`` is the bound that :func:`_dual_bound` re-checks on
    the certificate.  The two routes sum terms of order one, so they
    agree to a few ulps of those terms, not of the bound: an Infeasible
    certified near ``-psd_tol * scale`` has a bound near -1e-9, so the
    comparison carries an absolute floor of 1e-14 (1 + |bound|).
    """
    eigendecompositions = 0
    for data in guard_cases():
        before = linalg_calls.copy()
        report = search_x_grid(data)
        made = linalg_calls - before
        eigendecompositions += made["eigh"] + made["eigvalsh"]
        if report.grid_stats["stop"] != "stall":
            assert made["eigh"] == 0
        if report.status == INFEASIBLE:
            a0, terms = constrained_pick_terms(assemble_bundle(data, BlaschkeSpec.z_squared()))
            bound = _dual_bound(a0, terms, report.certificate)
            assert report.grid_stats["upper_bound"] == pytest.approx(
                bound, rel=1e-13, abs=1e-14 * (1 + abs(bound))
            )
    assert eigendecompositions <= 1020


class TestSolverEdgeCases:
    """Near-boundary data end with a verdict, never a raw ``LinAlgError``."""

    @pytest.mark.parametrize(
        "nodes, values, status, margin",
        [
            ([0.999999, -0.3], [0.3, 0.2], FEASIBLE, 0.003996794414821276),
            ([0.5, 0.5 + 1e-9], [0.3, 0.3 + 1e-9], FEASIBLE, 6.632078647054042e-16),
            ([0.5, 0.5 + 1e-9], [0.3, -0.3], INFEASIBLE, None),
            ([1e-9, 0.5], [0.3, 0.2], FEASIBLE, 4.46463858824097e-16),
            ([0.5, -0.3], [1 - 1e-12, 0.2], INFEASIBLE, None),
        ],
        ids=["node_near_circle", "near_duplicate_feasible", "near_duplicate_infeasible",
             "node_near_origin", "value_near_one"],
    )
    def test_pinned_verdicts(self, nodes, values, status, margin):
        data = DataSet.scalar(nodes, values)
        report = search_x_grid(data)
        assert report.status == status
        if status == FEASIBLE:
            assert abs(report.margin - margin) <= DEFAULT_TOL.psd_tol * report.grid_stats["best_scale"]
        else:
            assert_certified(report, data)

    @pytest.mark.parametrize(
        "data, fail_at, status",
        [
            (DataSet.scalar([0.5, -0.3], [0.3, 0.2]), 1, UNDETERMINED),
            (DataSet.scalar([0.5, -0.3], [0.3, 0.2]), 2, UNDETERMINED),
            # Best margin 2.7e-4; ``decided`` first holds at iteration 3.
            (generate_feasible(2, 2)[0], 5, FEASIBLE),
        ],
        ids=["s_and_z", "schur", "third_iteration"],
    )
    def test_failed_cholesky_ends_with_the_best_iterate(self, data, fail_at, status, monkeypatch):
        """Each iteration factors the stack (S, Z), then the Schur matrix."""
        cholesky, calls = np.linalg.cholesky, []

        def failing(a):
            calls.append(a)
            if len(calls) == fail_at:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        report = search_x_grid(data)
        monkeypatch.undo()
        assert report.status == status
        assert report.certificate is None and report.certificate_kind is None
        assert report.grid_stats["stop"] == "stall"
        assert report.grid_stats["points"] == (fail_at - 1) // 2
        x = report.witness_x if report.feasible else np.zeros((1, 1))  # the start is X = 0
        margin, _ = psd_margin(constrained_pick(data, BlaschkeSpec.z_squared(), x))
        assert report.margin == pytest.approx(margin, abs=1e-12)


class TestCertificateKind:
    """``certificate_kind`` names the certificate of each route, None where there is none.

    Undetermined reports are covered by ``test_failed_cholesky_ends_with_the_best_iterate``.
    """

    def test_solver_dual(self):
        report = search_x_grid(INFEASIBLE_DATA)
        assert report.certificate_kind == "dual"
        assert_certified(report, INFEASIBLE_DATA)

    def test_sup_norm_dual(self):
        report = body_membership(0.5, 0.2, -0.3, 1.5 + 0.0j)
        assert report.status == INFEASIBLE and report.certificate_kind == "dual"
        data = DataSet.scalar([0.5, -0.3], [0.2, 1.5])
        assert _dual_bound(*fresh_builder(data), report.certificate) < -1e-3

    def test_overlap_pair(self):
        d = DataSet.scalar([0.3, 0.5], [0.1, 0.4])
        report = search_x_grid(d, BlaschkeSpec(np.array([0.3, 0.5]), np.array([1, 1])))
        assert report.certificate_kind == "overlap_pair"
        assert report.certificate.tolist() == [0, 1]

    def test_overlap_psd(self):
        d = DataSet.scalar([0.3, 0.5], [0.1, 0.4])
        b = BlaschkeSpec(np.array([0.3]), np.array([1]))
        report = search_x_grid(d, b)
        assert report.certificate_kind == "overlap_psd"
        pick = constrained_pick(DataSet.scalar([0.5], [0.4]), b, d.values[0])
        assert np.trace(report.certificate @ pick).real < 0

    @pytest.mark.parametrize(
        "route",
        [
            lambda: search_x_grid(DataSet.scalar([0.5], [0.5])),
            lambda: search_lambda(INFEASIBLE_DATA, resolution=200),
            lambda: search_x_grid(
                DataSet(np.array([0.3]), np.array([[[0.0, 2.0], [0.0, 0.0]]])),
                BlaschkeSpec(np.array([0.3]), np.array([1])),
            ),
        ],
        ids=["solver-feasible", "lambda-undetermined", "total-overlap-infeasible"],
    )
    def test_no_certificate_no_kind(self, route):
        report = route()
        assert report.certificate is None and report.certificate_kind is None


class TestWitnessRecheck:
    """Every Feasible ``witness_x`` passes the CF form's PSD test at 1e-7 relative."""

    CF_TOL = ToleranceConfig(psd_tol=1e-7)

    def passes_cf(self, data, report, b=BlaschkeSpec.z_squared()):
        cf = constrained_pick_cf(data, b, report.witness_x)
        return is_psd(cf, self.CF_TOL)[0]

    def test_solver_and_lambda_witnesses(self):
        checked = 0
        for d in accept5_instances():
            for report in (search_x_grid(d), search_lambda(d, resolution=48)):
                if report.feasible:
                    checked += 1
                    assert self.passes_cf(d, report)
        assert checked >= 250

    def test_body_membership_witnesses(self):
        rng = rng_for(60_000)
        feasible = infeasible = 0
        for _ in range(60):
            z1, z0 = disk_point(rng, 0.85, rmin=0.1), disk_point(rng, 0.85, rmin=0.1)
            w1, w0 = disk_point(rng, 0.8), disk_point(rng, 1.0)
            report = body_membership(z1, w1, z0, w0)
            if report.feasible:
                feasible += 1
                assert self.passes_cf(DataSet.scalar([z1, z0], [w1, w0]), report)
            elif report.status == INFEASIBLE:
                infeasible += 1
                assert report.certificate is not None
        assert feasible >= 10 and infeasible >= 40

    def test_scaled_degree4_family(self):
        """Degree-4 data scaled by s = 1, ..., 8 while |s W| < 1: 189 runs over 40 instances.

        The lifted LMI has identity corners, so its scale is that of the
        CF form: every ``best_scale`` stays below 10, no Feasible verdict
        has a dual bound below ``-psd_tol * best_scale``, and every
        Feasible witness passes the CF form.
        """
        rng = rng_for(11)
        runs = feasible = 0
        for _ in range(40):
            data, b = degree4_feasible(rng, int(rng.integers(2, 5)))
            for s in range(1, 9):
                if np.max(np.abs(s * data.values)) >= 1.0:
                    break
                scaled = DataSet(data.nodes, s * data.values)
                report = search_x_grid(scaled, b)
                stats = report.grid_stats
                runs += 1
                assert stats["best_scale"] <= 10.0
                if report.feasible:
                    feasible += 1
                    assert stats["upper_bound"] >= -DEFAULT_TOL.psd_tol * stats["best_scale"]
                    assert self.passes_cf(scaled, report, b)
        assert (runs, feasible) == (189, 109)


def degree4_blaschke():
    return BlaschkeSpec(np.array([0.4 + 0.2j, -0.3 + 0.3j]), np.array([2, 2]))


class TestBatchEvaluator:
    @pytest.mark.parametrize(
        "data, b",
        [
            (random_dataset(7, n=3, k=2), BlaschkeSpec.z_squared()),
            (random_dataset(8, n=2, k=3), BlaschkeSpec.z_squared()),
            (random_dataset(9, n=3, k=1), degree4_blaschke()),
        ],
        ids=["k2", "k3", "scalar_degree4"],
    )
    def test_stack_matches_direct_builds(self, data, b):
        bundle = assemble_bundle(data, b)
        a0, terms = constrained_pick_terms(bundle)
        rng = rng_for(data.n + data.k)
        xs = rng.standard_normal((6, data.k, data.k)) + 1j * rng.standard_normal((6, data.k, data.k))
        xs *= 0.9 / np.linalg.norm(xs, 2, axis=(1, 2))[:, None, None]
        for x in xs:
            mat = a0 + np.einsum("ab,abij->ij", x, terms)
            mat = mat + np.einsum("ab,abji->ij", x.conj(), terms.conj())
            direct = congruent_lift(bundle, x)
            assert np.max(np.abs(mat - direct)) <= 1e-12 * (1.0 + np.max(np.abs(direct)))

    @pytest.mark.parametrize(
        "data, b",
        [
            (random_dataset(6, n=3, k=1), BlaschkeSpec.z_squared()),
            (random_dataset(7, n=3, k=2), BlaschkeSpec.z_squared()),
            (random_dataset(8, n=2, k=3), BlaschkeSpec.z_squared()),
            (random_dataset(9, n=3, k=1), degree4_blaschke()),
            (random_dataset(10, n=2, k=2), degree4_blaschke()),
        ],
        ids=["k1", "k2", "k3", "scalar_degree4", "k2_degree4"],
    )
    def test_closed_form_terms_match_finite_differences(self, data, b):
        a0, terms = constrained_pick_terms(assemble_bundle(data, b))
        ref_a0, ref_terms = fresh_builder(data, b)
        assert terms.shape == (data.k, data.k) + a0.shape
        bound = 1e-14 * (1.0 + np.max(np.abs(ref_a0)))
        assert np.max(np.abs(a0 - ref_a0)) <= bound
        assert np.max(np.abs(terms - ref_terms)) <= bound

    @pytest.mark.parametrize(
        "data, expected",
        [
            (random_dataset(11, n=3, k=2), None),
            (random_dataset(12, n=2, k=3), None),
            (matrix_feasible(13, 2, 3), FEASIBLE),
        ],
        ids=["random_k2", "random_k3", "feasible_k2"],
    )
    def test_matrix_search_matches_candidate_loop(self, data, expected):
        """A matrix verdict checks on its own: the witness directly, else the certificate."""
        b = BlaschkeSpec.z_squared()
        report = search_x_grid(data, b)
        assert expected in (None, report.status)
        if report.status == FEASIBLE:
            margin, scale = psd_margin(constrained_pick(data, b, report.witness_x))
            assert margin >= -DEFAULT_TOL.psd_tol * scale
            assert abs(report.margin - margin) <= 1e-12 * scale
            assert operator_norm(report.witness_x) < 1.0
        else:
            assert_certified(report, data, b)


class TestConjugationDiagnostic:
    """The lambda-criterion matrix at ``lam`` is ``diag(z^2) P_lam diag(conj(z)^2)``,
    ``P_lam`` the Pick matrix of the data reduced at ``lam``, so the two give
    the same PSD verdict at every ``lam``.  The congruence is compared entry by entry."""

    @pytest.mark.parametrize("seed", range(20))
    def test_psd_verdicts_agree_pointwise(self, seed):
        rng = rng_for(660_000 + seed)
        d = random_dataset(seed, k=1, wmax=0.8)
        lam = rng.uniform(0, 0.85) * np.exp(2j * np.pi * rng.uniform())
        criterion = lambda_criterion_matrix(d, lam)
        squares = np.diag(d.nodes**2)
        congruent = squares @ pick_matrix(schur_reduce_constrained(d, lam)) @ squares.conj()
        assert np.max(np.abs(criterion - congruent)) <= 1e-13 * np.max(np.abs(criterion))


def test_disk_grid_matches_ring_loop():
    # search_lambda, body_union and ACCEPT-5 read the same points: bit for bit.
    for resolution in range(1, 201):
        grid, expected = _disk_grid(resolution), disk_grid_oracle(resolution)
        assert grid.dtype == expected.dtype and grid.shape == expected.shape
        assert grid.tobytes() == expected.tobytes(), resolution


def test_disk_grid_matches_per_point_formula():
    # The table-driven grid must keep every raster bit for bit, the sign of zeros included.
    for resolution in [*range(1, 65), 100, 255, 400]:
        grid, expected = _disk_grid(resolution), disk_grid_formula_oracle(resolution)
        assert grid.dtype == expected.dtype and grid.shape == expected.shape
        assert grid.tobytes() == expected.tobytes(), resolution


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=3),
)
def test_dual_bound_nuclear_norm_same_bits(seed, m, k):
    rng = rng_for(seed)
    a0 = hermitian_part(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    terms = rng.standard_normal((k, k, m, m)) + 1j * rng.standard_normal((k, k, m, m))
    y = random_psd(rng, m, rank=int(rng.integers(1, m + 1)))  # a dual iterate is PSD
    # The bound as written with numpy's norm wrapper.
    w, v = np.linalg.eigh(hermitian_part(y))
    w = np.clip(w, 0.0, None)
    unit = (v * (w / w.sum())) @ v.conj().T
    g = np.einsum("ij,abji->ab", unit, terms)
    expected = float(np.trace(unit @ a0).real + 2.0 * np.linalg.norm(g, "nuc"))
    assert _dual_bound(a0, terms, y) == expected
