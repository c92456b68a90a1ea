import numpy as np
import pytest

from cnpick.body import unconstrained_body
from cnpick.errors import DomainError, IllConditionedError
from cnpick.feasibility import FEASIBLE, INFEASIBLE, pencil_build, search_x_grid
from cnpick.linalg import DEFAULT_TOL, ToleranceConfig, is_psd, operator_norm, psd_margin
from cnpick.pick import (
    STEIN_COND_LIMIT,
    BlaschkeSpec,
    DataSet,
    _node_part,
    assemble_bundle,
    constrained_pick,
    constrained_pick_cf,
    constrained_pick_terms,
    jet_matrices,
    pick_matrix,
)

from conftest import (
    congruent_lift,
    constrained_pick_cf_blocks,
    constrained_pick_cf_product,
    constrained_pick_z2,
    constrained_pick_z2_quadratic,
    distinct_nodes,
    matrix_feasible,
    node_matrices,
    node_part,
    pick_matrix_loop,
    random_blaschke,
    random_contraction,
    random_dataset,
    rng_for,
    stein_kronecker,
    stein_series,
)


def near_boundary_cases(count=600, seed=7):
    """Zeros at radius 1 - 10^u, u ~ U(-14, -1), nodes at 1 - 10^u, u ~ U(-8, -0.3)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        zeros = (1 - 10 ** rng.uniform(-14, -1, m)) * np.exp(2j * np.pi * rng.uniform(size=m))
        mult = rng.integers(1, 4, m)
        n = int(rng.integers(1, 4))
        nodes = (1 - 10 ** rng.uniform(-8, -0.3, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        values = 0.3 * (rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k)))
        yield DataSet(nodes, values), BlaschkeSpec(zeros, mult)


class TestDataTypes:
    def test_dataset_rejects_duplicate_nodes(self):
        with pytest.raises(DomainError):
            DataSet.scalar([0.3, 0.3], [0.1, 0.2])

    def test_dataset_names_first_duplicate_pair(self):
        # Pairs are searched in row-major order: (3, 30) comes before (5, 6).
        nodes = np.linspace(-0.9, 0.9, 40).astype(complex)
        nodes[30], nodes[6] = nodes[3], nodes[5]
        with pytest.raises(DomainError, match=r"^nodes 3 and 30 coincide \(\(-0\.76"):
            DataSet(nodes, np.zeros((40, 1, 1)))
        with pytest.raises(DomainError, match="^nodes 5 and 6 coincide"):
            DataSet(nodes[:30], np.zeros((30, 1, 1)))

    def test_blaschke_duplicate_zeros_message(self):
        zeros = np.linspace(-0.5, 0.5, 12).astype(complex)
        zeros[9] = zeros[2]
        with pytest.raises(DomainError, match="^Blaschke zeros must be pairwise distinct$"):
            BlaschkeSpec(zeros, np.ones(12, dtype=int))

    def test_dataset_rejects_boundary_nodes(self):
        with pytest.raises(DomainError):
            DataSet.scalar([1.0], [0.0])

    def test_dataset_rejects_empty(self):
        with pytest.raises(DomainError):
            DataSet.scalar([], [])

    def test_dataset_rejects_empty_values(self):
        with pytest.raises(DomainError, match="k >= 1"):
            DataSet(np.array([0.5]), np.zeros((1, 0, 0)))

    def test_blaschke_validation(self):
        with pytest.raises(DomainError):
            BlaschkeSpec(np.array([0.2, 0.2]), np.array([1, 1]))
        with pytest.raises(DomainError):
            BlaschkeSpec(np.array([0.2]), np.array([0]))

    def test_blaschke_evaluate_z2(self):
        b = BlaschkeSpec.z_squared()
        assert b.degree == 2 and b.is_z_squared()
        assert b.evaluate(0.3 + 0.1j) == pytest.approx((0.3 + 0.1j) ** 2)


class TestPickMatrix:
    def test_one_point(self):
        assert pick_matrix(DataSet.scalar([0.5], [0.0]))[0, 0] == pytest.approx(4.0 / 3.0)

    def test_zero_targets_cauchy(self):
        d = DataSet.scalar([0.1, -0.4, 0.3j], [0.0, 0.0, 0.0])
        p = pick_matrix(d)
        expected = 1.0 / (1.0 - np.outer(d.nodes, d.nodes.conj()))
        assert np.allclose(p, expected)
        assert is_psd(p)[0]

    def test_documented_infeasible_values(self):
        d = DataSet.scalar([0.1, -0.1], [0.8, -0.8])
        p = pick_matrix(d)
        assert p[0, 0] == pytest.approx(0.36 / 0.99)
        assert p[0, 1] == pytest.approx(1.64 / 1.01)
        assert not is_psd(p)[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_hermitian_to_the_bit(self, seed):
        d = random_dataset(seed, k=int(rng_for(seed).integers(1, 3)))
        p = pick_matrix(d)
        assert operator_norm(p - p.conj().T) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_block_loop(self, k):
        # One matmul rounds differently from the loop's k x k products: a sum of k
        # products and a division, within (2k + 2) eps of the largest entry.
        bound = (2 * k + 2) * np.finfo(float).eps
        for seed in range(300):
            d = random_dataset(seed, n=int(rng_for(seed).integers(1, 9)), k=k, wmax=1.1)
            reference = pick_matrix_loop(d)
            assert np.max(np.abs(pick_matrix(d) - reference)) <= bound * np.max(np.abs(reference))


class TestJetMatrices:
    def test_origin_double_zero(self):
        j, e = jet_matrices(BlaschkeSpec.z_squared(), k=1)
        assert np.allclose(j, [[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(e, [[1.0], [0.0]])

    def test_simple_zero(self):
        lam = 0.3 - 0.2j
        j, e = jet_matrices(BlaschkeSpec(np.array([lam]), np.array([1])), k=1)
        assert np.allclose(j, [[lam]])
        assert np.allclose(e, [[1.0]])

    def test_two_simple_zeros(self):
        j, e = jet_matrices(BlaschkeSpec(np.array([0.2, -0.4]), np.array([1, 1])), k=1)
        assert np.allclose(j, np.diag([0.2, -0.4]))
        assert np.allclose(e, [[1.0], [1.0]])

    def test_block_structure_k2(self):
        j, e = jet_matrices(BlaschkeSpec(np.array([0.5j]), np.array([2])), k=2)
        assert j.shape == (4, 4)
        assert np.allclose(j[:2, :2], 0.5j * np.eye(2))
        assert np.allclose(j[2:, :2], np.eye(2))
        assert np.allclose(e, np.vstack([np.eye(2), np.zeros((2, 2))]))


class TestStein:
    def test_origin_double_zero_closed_form(self):
        d = DataSet.scalar([0.5, -0.3 + 0.2j], [0.0, 0.0])
        bundle = assemble_bundle(d, BlaschkeSpec.z_squared())
        assert np.max(np.abs(bundle.q - np.eye(2))) <= 1e-14
        expected = np.vstack([np.ones(2), d.nodes.conj()])
        assert np.max(np.abs(bundle.q_tilde - expected)) <= 1e-14

    def test_single_zero_geometric_series(self):
        lam = 0.4 + 0.3j
        d = DataSet.scalar([0.5, -0.2], [0.0, 0.0])
        b = BlaschkeSpec(np.array([lam]), np.array([1]))
        bundle = assemble_bundle(d, b)
        assert bundle.q[0, 0] == pytest.approx(1.0 / (1.0 - abs(lam) ** 2))
        assert np.allclose(bundle.q_tilde[0], 1.0 / (1.0 - lam * d.nodes.conj()))

    def test_zero_at_origin_rank_one(self):
        d = DataSet.scalar([0.5, -0.2], [0.0, 0.0])
        b = BlaschkeSpec(np.array([0.0]), np.array([1]))
        bundle = assemble_bundle(d, b)
        assert np.allclose(bundle.q, [[1.0]])
        assert np.allclose(bundle.q_tilde, [[1.0, 1.0]])

    @pytest.mark.parametrize("seed", range(25))
    def test_residuals_and_q_bound(self, seed):
        rng = rng_for(seed)
        k = int(rng.integers(1, 3))
        b = random_blaschke(seed, max_degree=8)
        d = random_dataset(seed + 500, n=int(rng.integers(1, 4)), k=k)
        bundle = assemble_bundle(d, b)
        j, e_tilde = jet_matrices(b, k)
        res_q = operator_norm(bundle.q - j @ bundle.q @ j.conj().T - e_tilde @ e_tilde.conj().T)
        z, e, _ = node_matrices(d)
        res_t = operator_norm(
            bundle.q_tilde - j @ bundle.q_tilde @ z.conj().T - e_tilde @ e.conj().T
        )
        assert res_q <= 1e-10 * (1 + operator_norm(bundle.q))
        assert res_t <= 1e-10 * (1 + operator_norm(bundle.q_tilde))
        assert is_psd(bundle.q)[0]
        if np.all(b.zeros == 0):
            assert np.allclose(bundle.q, np.eye(bundle.q.shape[0]), atol=1e-12)

    def test_q_dominates_identity_fails_off_origin(self):
        # The identity lower bound on Q is specific to origin constraints:
        # a double zero at 0.5 already pushes an eigenvalue below 1.
        b = BlaschkeSpec(np.array([0.5]), np.array([2]))
        d = DataSet.scalar([0.3], [0.0])
        bundle = assemble_bundle(d, b)
        assert np.linalg.eigvalsh(bundle.q)[0] == pytest.approx(0.9423, abs=1e-3)

    @pytest.mark.parametrize("seed", range(8))
    def test_series_oracle_agrees(self, seed):
        b = random_blaschke(seed, max_degree=5)
        d = random_dataset(seed + 300, k=1)
        bundle = assemble_bundle(d, b)
        z, e, _ = node_matrices(d)
        q_s, qt_s = stein_series(*jet_matrices(b, 1), z, e, terms=200)
        assert np.allclose(q_s, bundle.q, atol=1e-10)
        assert np.allclose(qt_s, bundle.q_tilde, atol=1e-10)

    def test_boundary_zero_reports_conditioning(self):
        # A k = 3 bundle builds the k = 1 node part and meets the same refusal.
        b = BlaschkeSpec(np.array([1.0 - 5e-14]), np.array([1]))
        for k in (1, 3):
            with pytest.raises(IllConditionedError) as err:
                assemble_bundle(DataSet(np.array([0.5]), np.zeros((1, k, k))), b)
            assert err.value.cond is not None and err.value.cond > 1e13

    @pytest.mark.parametrize("seed", range(300))
    def test_node_part_matches_the_kronecker_solve(self, seed):
        rng = rng_for(90_000 + seed)
        m = int(rng.integers(1, 4))
        b = BlaschkeSpec(distinct_nodes(rng, m, rmin=0.0, rmax=0.9), rng.integers(1, 4, m))
        d = DataSet.scalar(distinct_nodes(rng, 3), np.zeros(3))
        bundle = assemble_bundle(d, b)
        z, e, _ = node_matrices(d)
        q, q_tilde, _ = stein_kronecker(*jet_matrices(b, 1), z, e)
        assert np.max(np.abs(bundle.q - q)) <= 1e-13 * np.max(np.abs(q))
        assert np.max(np.abs(bundle.q_tilde - q_tilde)) <= 1e-13 * np.max(np.abs(q_tilde))

    def test_refusals_match_the_kronecker_amplification(self):
        """Refused exactly where the Kronecker operators amplify beyond the limit.

        Over 600 near-boundary cases (398 refused, 202 built).  The bound
        is also compared with the singular-value amplification where
        that is trustworthy, at most 1e15: beyond it the smallest
        singular value is below the operators' rounding.  For simple
        zeros the two are equal, so they agree to rounding.
        """
        refused = 0
        for d, b in near_boundary_cases():
            j, e_tilde = jet_matrices(b, 1)
            amplification = stein_kronecker(j, e_tilde, np.diag(d.nodes), np.ones((d.n, 1)))[2]
            try:
                assemble_bundle(d, b)
            except IllConditionedError:
                refused += 1
                assert amplification > STEIN_COND_LIMIT
            else:
                assert amplification <= STEIN_COND_LIMIT
            if amplification <= 1e15:
                assert 1.0 - 1e-14 <= _node_part(d.nodes, b)[3] / amplification <= 2.0
        assert refused == 398

    def test_high_multiplicity_is_built_to_rounding(self):
        d = DataSet.scalar([0.5], [0.0])
        bundle = assemble_bundle(d, BlaschkeSpec(np.array([0.2]), np.array([40])))
        res_q, res_t = bundle.stein_residuals
        assert res_q <= 1e-12 * operator_norm(bundle.q)
        assert res_t <= 1e-12 * operator_norm(bundle.q_tilde)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [2, 3])
    def test_node_part_is_the_scalar_one_tensor_identity(self, k, seed):
        # Q = Q_1 (x) I_k, and likewise Qt, Psi, J and Et: exactly, not to rounding.
        b = random_blaschke(seed + 1000, max_degree=8)
        d = random_dataset(seed + 1100, n=int(rng_for(seed).integers(1, 4)), k=k)
        bundle = assemble_bundle(d, b)
        scalar = assemble_bundle(DataSet.scalar(d.nodes, np.zeros(d.n)), b)
        for name in ("q", "q_tilde", "basis"):
            assert np.array_equal(getattr(bundle, name), np.kron(getattr(scalar, name), np.eye(k)))
        for jets, scalar_jets in zip(jet_matrices(b, k), jet_matrices(b, 1), strict=True):
            assert np.array_equal(jets, np.kron(scalar_jets, np.eye(k)))

    def test_bundle_solves_nothing(self, linalg_calls):
        # No solve, SVD or factorisation: one eigvalsh, for Q's PSD test, per bundle.
        b = BlaschkeSpec(np.array([0.2, -0.3j]), np.array([3, 1]))
        for k in (1, 2, 3):
            before = linalg_calls.copy()
            assemble_bundle(random_dataset(5, n=2, k=k), b)
            made = linalg_calls - before
            assert [made[name] for name in ("solve", "svd", "cholesky", "eigvalsh")] == [0, 0, 0, 1]


class TestGramPair:
    """The node part ``G`` of a bundle's jet blocks and the forms read off ``G - V G V*``."""

    @pytest.mark.parametrize("seed", range(30))
    def test_g_solves_its_stein_equation(self, seed):
        # G - T G T* = F F* with T = diag(Z, J) and F = [E; Et].
        rng = rng_for(80_000 + seed)
        k = int(rng.integers(1, 4))
        b = random_blaschke(seed + 200, max_degree=8)
        d = random_dataset(seed + 700, n=int(rng.integers(1, 4)), k=k)
        bundle = assemble_bundle(d, b)
        z, e, _ = node_matrices(d)
        j, e_tilde = jet_matrices(b, k)
        nk, dk = z.shape[0], j.shape[0]
        t = np.block([[z, np.zeros((nk, dk))], [np.zeros((dk, nk)), j]])
        f = np.vstack([e, e_tilde])
        g = node_part(bundle)
        residual = operator_norm(g - t @ g @ t.conj().T - f @ f.conj().T)
        assert residual <= 1e-10 * operator_norm(g)
        assert operator_norm(g - g.conj().T) == 0.0

    @pytest.mark.parametrize("seed", range(30))
    def test_forms_match_the_block_formula(self, seed):
        rng = rng_for(81_000 + seed)
        k = int(rng.integers(1, 4))
        b = random_blaschke(seed + 300, max_degree=8)
        d = random_dataset(seed + 800, n=int(rng.integers(1, 4)), k=k, wmax=1.1)
        bundle = assemble_bundle(d, b)
        x = random_contraction(rng, k, norm=rng.uniform(0.0, 1.3))
        oracle = constrained_pick_cf_blocks(bundle, x)
        scale = operator_norm(oracle)
        cf = constrained_pick_cf(d, b, x, bundle=bundle)
        assert operator_norm(cf - oracle) <= 1e-14 * scale
        assert operator_norm(cf - constrained_pick_cf_product(bundle, x)) <= 1e-14 * scale
        assert operator_norm(cf - cf.conj().T) == 0.0
        # The linearized form is the congruent image of the Schur lift of the CF form:
        # identity corners, the mirrored block Xd, and Psi in place of Qt.
        nk, dk = d.n * k, b.degree * k
        full = constrained_pick(d, b, x, bundle=bundle)
        lift = congruent_lift(bundle, x)
        rounding = 1e-15 * np.linalg.cond(bundle.q) * operator_norm(lift)
        assert operator_norm(full - lift) <= rounding
        assert np.array_equal(full[:nk, :nk], bundle.p)
        assert np.array_equal(full[nk : nk + dk, nk + dk :], np.kron(np.eye(b.degree), x))
        assert not full[:nk, nk + dk :].any()
        for corner in (slice(nk, nk + dk), slice(nk + dk, None)):
            assert np.array_equal(full[corner, corner], np.eye(dk))

    def test_bundle_is_read_only(self):
        d = DataSet(np.array([0.5, -0.3 + 0.2j]), 0.3 * np.stack([np.eye(2), 1j * np.eye(2)]))
        b = BlaschkeSpec(np.array([0.2, -0.1j]), np.array([2, 1]))
        bundle = assemble_bundle(d, b)
        names = list(bundle._fields)
        assert names == ["data", "blaschke", "p", "q", "q_tilde", "basis"]
        for name in names[2:]:
            with pytest.raises(ValueError):
                getattr(bundle, name)[0, 0] = 5.0
        x = np.array([[0.3, 0.1j], [0.0, -0.2]])
        for builder in (constrained_pick, constrained_pick_cf):
            m = builder(d, b, x, bundle=bundle)
            assert m.flags.writeable and np.array_equal(m, builder(d, b, x))
        a0, terms = constrained_pick_terms(bundle)
        assert np.array_equal(a0, constrained_pick(d, b, np.zeros((2, 2)), bundle=bundle))
        assert terms.shape == (2, 2) + a0.shape


class TestZ2Builders:
    def test_quadratic_zero_data_structure(self):
        d = DataSet.scalar([0.5, -0.5], [0.0, 0.0])
        m = constrained_pick_z2_quadratic(d, 0.0)
        z, e, _ = node_matrices(d)
        assert np.allclose(m[:2, 2:3], e)
        assert np.allclose(m[:2, 3:4], z @ e)
        assert np.allclose(m[2:, 2:], np.eye(2))

    def test_one_point_fixture(self):
        d = DataSet.scalar([0.5], [0.0])
        m = constrained_pick_z2_quadratic(d, 0.0)
        expected = np.array([[4.0 / 3.0, 1.0, 0.5], [1.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
        assert np.allclose(m, expected)
        ok, min_eig = is_psd(m)
        assert ok and min_eig > 0

    def test_expansive_parameter_never_psd(self):
        d = DataSet.scalar([0.5], [0.0])
        assert not is_psd(constrained_pick_z2_quadratic(d, 1.2))[0]
        assert not is_psd(constrained_pick_z2(d, 1.2))[0]

    def test_disk_center_feasible(self):
        d = DataSet.scalar([0.5], [0.5])
        assert is_psd(constrained_pick_z2(d, 0.47619))[0]

    def test_linear_at_zero_parameter(self):
        d = DataSet.scalar([0.5], [0.5])
        m = constrained_pick_z2(d, 0.0)
        assert np.allclose(m[1:3, 3:], np.zeros((2, 2)))
        quad = constrained_pick_z2_quadratic(d, 0.0)
        assert is_psd(m)[0] == is_psd(quad)[0]

    def test_rejects_origin_node(self):
        d = DataSet.scalar([0.0, 0.5], [0.1, 0.2])
        with pytest.raises(DomainError, match="Caratheodory-Fejer"):
            constrained_pick_z2_quadratic(d, 0.0)


class TestGeneralBuilders:
    def test_z2_reduction_is_exact(self):
        d = DataSet.scalar([0.5, -0.3 + 0.2j], [0.4, 0.1 - 0.2j])
        x = 0.3 - 0.1j
        general = constrained_pick(d, BlaschkeSpec.z_squared(), x)
        special = constrained_pick_z2(d, x)
        assert is_psd(general)[0] == is_psd(special)[0]

    @pytest.mark.parametrize("seed", range(25))
    def test_z2_specialization_verdicts(self, seed):
        rng = rng_for(seed)
        k = int(rng.integers(1, 3))
        d = random_dataset(seed, n=int(rng.integers(1, 4)), k=k, wmax=1.1)
        x = random_contraction(rng, k, norm=rng.uniform(0.0, 1.2))
        general, m1 = is_psd(constrained_pick(d, BlaschkeSpec.z_squared(), x))
        special, m2 = is_psd(constrained_pick_z2(d, x))
        if min(abs(m1), abs(m2)) > 10 * DEFAULT_TOL.psd_tol:
            assert general == special

    def test_zero_parameter_structure(self):
        d = random_dataset(3, k=1)
        b = random_blaschke(3)
        bundle = assemble_bundle(d, b)
        m = constrained_pick(d, b, 0.0, bundle=bundle)
        nk, dk = d.n, b.degree
        assert np.allclose(m[nk : nk + dk, nk + dk :], np.zeros((dk, dk)))
        assert np.array_equal(m[nk:, nk:], np.eye(2 * dk))
        assert np.array_equal(m[nk : nk + dk, :nk], bundle.basis)

    def test_cf_expansive_parameter(self):
        d = DataSet.scalar([0.5], [0.0])
        m = constrained_pick_cf(d, BlaschkeSpec.z_squared(), 1.05)
        corner = m[1:, 1:]
        assert np.allclose(corner, (1 - 1.05**2) * np.eye(2))
        assert not is_psd(m)[0]

    @pytest.mark.parametrize("seed", range(60))
    def test_equivalence_chain(self, seed):
        rng = rng_for(70_000 + seed)
        k = int(rng.integers(1, 3))
        d = random_dataset(seed, n=int(rng.integers(1, 4)), k=k, wmax=1.1)
        b = random_blaschke(seed + 900, max_degree=4)
        bundle = assemble_bundle(d, b)
        x = random_contraction(rng, k, norm=rng.uniform(0.0, 1.3))
        full, m_full = is_psd(constrained_pick(d, b, x, bundle=bundle))
        cf, m_cf = is_psd(constrained_pick_cf(d, b, x, bundle=bundle))
        if min(abs(m_full), abs(m_cf)) > 10 * DEFAULT_TOL.psd_tol:
            assert full == cf

    @pytest.mark.parametrize("seed", range(10))
    def test_builders_hermitian_to_the_bit(self, seed):
        rng = rng_for(seed)
        k = int(rng.integers(1, 3))
        d = random_dataset(seed, k=k)
        b = random_blaschke(seed + 40)
        x = random_contraction(rng, k)
        for m in (constrained_pick(d, b, x), constrained_pick_cf(d, b, x)):
            assert operator_norm(m - m.conj().T) == 0.0
        if 0 not in d.nodes:
            for m in (constrained_pick_z2_quadratic(d, x), constrained_pick_z2(d, x)):
                assert operator_norm(m - m.conj().T) == 0.0

    @pytest.mark.parametrize("builder", [constrained_pick, constrained_pick_cf])
    def test_rejects_bundle_of_other_data(self, builder):
        d1 = DataSet.scalar([0.5, -0.3], [0.2, 0.1])
        d2 = DataSet.scalar([0.5, -0.3], [0.2, -0.4])
        d3 = DataSet.scalar([0.5, 0.3j], [0.2, 0.1])
        b = BlaschkeSpec.z_squared()
        b_other = BlaschkeSpec(np.array([0.2, -0.1j]), np.array([1, 1]))
        bundle = assemble_bundle(d1, b)
        for d, spec in ((d2, b), (d3, b), (d1, b_other)):
            with pytest.raises(DomainError, match="bundle"):
                builder(d, spec, 0.1, bundle=bundle)
        same = DataSet.scalar([0.5, -0.3], [0.2, 0.1])
        expected = builder(d1, b, 0.1)
        assert np.array_equal(builder(same, BlaschkeSpec.z_squared(), 0.1, bundle=bundle), expected)

    def test_rejects_overlapping_node(self):
        d = DataSet.scalar([0.3, 0.5], [0.1, 0.1])
        b = BlaschkeSpec(np.array([0.3]), np.array([2]))
        with pytest.raises(DomainError, match="search_x_grid"):
            constrained_pick(d, b, 0.0)


class TestOverlap:
    """Nodes on constraint zeros: ``search_x_grid`` decides them exactly."""

    REDUCED = "reduced to a PSD test at the shared overlap value"
    TOTAL = "all nodes overlap; feasibility = contractivity of the shared value"

    def test_conflicting_values_infeasible(self):
        d = DataSet.scalar([0.3, 0.5], [0.1, 0.4])
        b = BlaschkeSpec(np.array([0.3, 0.5]), np.array([1, 1]))
        report = search_x_grid(d, b)
        assert report.status == INFEASIBLE and report.margin == -np.inf
        assert report.detail == "overlap values differ" and report.witness_x is None
        # The pair of overlapped nodes re-checks without the solver.
        i, j = report.certificate
        assert d.nodes[i] in b.zeros and d.nodes[j] in b.zeros
        wscale = 1.0 + max(abs(d.values[i, 0, 0]), abs(d.values[j, 0, 0]))
        assert operator_norm(d.values[i] - d.values[j]) > DEFAULT_TOL.residual_tol * wscale

    def test_matching_values_reduce(self):
        # Shared value at the overlapped node; remaining node must fit.
        d = DataSet.scalar([0.3, 0.6], [0.2, 0.2])
        b = BlaschkeSpec(np.array([0.3]), np.array([1]))
        report = search_x_grid(d, b)
        assert report.status == FEASIBLE  # the constant 0.2 solves the whole instance
        assert report.margin == pytest.approx(0.07890188361068684, rel=1e-12)
        assert report.detail == self.REDUCED
        assert np.array_equal(report.witness_x, [[0.2]])

    def test_total_overlap_contractivity(self):
        d = DataSet.scalar([0.3], [0.4])
        b = BlaschkeSpec(np.array([0.3, -0.5]), np.array([1, 1]))
        report = search_x_grid(d, b)
        assert report.status == FEASIBLE and report.detail == self.TOTAL
        assert report.margin == pytest.approx(0.6, rel=1e-12)
        assert np.array_equal(report.witness_x, [[0.4]])

    def test_matrix_data_overlap_reduction(self):
        w = 0.25 * np.eye(2)
        values = np.stack([w, 0.3 * np.eye(2)])
        d = DataSet(np.array([0.3, 0.6]), values)
        b = BlaschkeSpec(np.array([0.3]), np.array([2]))
        report = search_x_grid(d, b)
        assert report.status == FEASIBLE and report.detail == self.REDUCED
        assert report.margin == pytest.approx(0.008214446465154648, rel=1e-12)
        assert np.array_equal(report.witness_x, w)

    def test_total_overlap_expansive_value_infeasible(self):
        d = DataSet(np.array([0.3]), np.array([[[0.0, 2.0], [0.0, 0.0]]]))
        b = BlaschkeSpec(np.array([0.3]), np.array([1]))
        report = search_x_grid(d, b)
        assert report.status == INFEASIBLE and report.detail == self.TOTAL
        assert report.margin == pytest.approx(-1.0, rel=1e-12)
        assert report.witness_x is None

    def test_remaining_nodes_infeasible(self):
        d = DataSet.scalar([0.3, 0.5, -0.4j], [0.1, 0.1, 0.5])
        b = BlaschkeSpec(np.array([0.3, 0.5]), np.array([2, 1]))
        report = search_x_grid(d, b)
        assert report.status == INFEASIBLE and report.detail == self.REDUCED
        assert report.margin == pytest.approx(-0.08340600670932795, rel=1e-12)
        assert report.witness_x is None
        # The certificate v v* re-checks on a freshly built matrix at the shared value.
        pick = constrained_pick(DataSet.scalar([-0.4j], [0.5]), b, np.array([[0.1]]))
        _, scale = psd_margin(pick)
        assert np.trace(report.certificate @ pick).real < -DEFAULT_TOL.psd_tol * scale

    def test_reduction_honours_the_callers_tolerances(self):
        # A residual_tol below rounding decides both routes as the defaults do.
        b = BlaschkeSpec(np.array([0.3, -0.2 + 0.4j]), np.array([2, 1]))
        strict = ToleranceConfig(residual_tol=1e-40)
        for first in (0.3, 0.31):  # on a constraint zero, and off it
            d = DataSet.scalar([first, 0.5 + 0.1j], [0.1, 0.2])
            assert search_x_grid(d, b, strict).status == INFEASIBLE
            assert search_x_grid(d, b).status == INFEASIBLE

    def test_witness_passes_the_cf_form(self):
        d = DataSet.scalar([0.3, 0.5, -0.4j], [0.1, 0.1, 0.05j])
        b = BlaschkeSpec(np.array([0.3, 0.5]), np.array([2, 1]))
        report = search_x_grid(d, b)
        assert report.status == FEASIBLE and report.detail == self.REDUCED
        assert report.margin == pytest.approx(0.006241237438687486, rel=1e-12)
        assert np.array_equal(report.witness_x, [[0.1]])
        rest = DataSet.scalar([-0.4j], [0.05j])
        assert is_psd(constrained_pick_cf(rest, b, report.witness_x))[0]


class TestBuildBits:
    """Builds that skip a step, or ``np.kron``, give the arrays of the step they skip."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a0_is_the_build_at_zero(self, degree, k):
        # To rounding: the oracle conjugates the Schur lift with Cholesky factors of Q.
        rng = rng_for(100 * degree + k)
        zeros = 0.5 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        mult = [degree - degree // 2, degree // 2][: 1 + (degree > 1)]  # one zero for degree 1
        b = BlaschkeSpec(zeros[: len(mult)], mult)
        d = random_dataset(degree + k, n=3, k=k)
        bundle = assemble_bundle(d, b)
        a0, _ = constrained_pick_terms(bundle)
        lift = congruent_lift(bundle, np.zeros((k, k)))
        assert operator_norm(a0 - lift) <= 1e-15 * np.linalg.cond(bundle.q) * operator_norm(lift)

    @pytest.mark.parametrize("seed", range(6))
    def test_kron_free_arrays_match_np_kron(self, seed, kron_oracle):
        rng = rng_for(seed)
        k = 1 + seed % 3
        d, b = matrix_feasible(seed, k, 3), random_blaschke(seed)
        x = random_contraction(rng, k)

        def builds():
            bundle = assemble_bundle(d, b)
            ball = unconstrained_body(d, 0.1 - 0.2j)
            return (bundle.p, bundle.q, bundle.q_tilde, bundle.basis, *jet_matrices(b, k),
                    np.array(bundle.stein_residuals), constrained_pick(d, b, x, bundle=bundle),
                    constrained_pick_cf(d, b, x, bundle=bundle), ball.center, ball.left, ball.right,
                    *pencil_build(d))

        arrays = builds()
        kron_oracle()
        for array, expected in zip(arrays, builds(), strict=True):
            assert array.tobytes() == expected.tobytes()


class TestBasis:
    """The Takenaka-Malmquist block ``Psi`` of the linearized form."""

    def test_gram_is_the_kernel_of_k_b(self):
        # Psi* Psi = (1 - B(z_i) conj(B(z_j))) / (1 - z_i conj(z_j)), over 300 random B.
        for seed in range(300):
            rng = rng_for(95_000 + seed)
            m = int(rng.integers(1, 4))
            b = BlaschkeSpec(distinct_nodes(rng, m, rmin=0.0, rmax=0.9), rng.integers(1, 4, m))
            nodes = distinct_nodes(rng, 3)
            psi, values = _node_part(nodes, b)[2], b.evaluate(nodes)
            kernel = (1.0 - np.outer(values, values.conj())) / (1.0 - np.outer(nodes, nodes.conj()))
            assert np.max(np.abs(psi.conj().T @ psi - kernel)) <= 1e-13 * np.max(np.abs(kernel))

    @pytest.mark.parametrize("multiplicity", range(1, 9))
    def test_origin_zero_gives_the_bits_of_q_tilde(self, multiplicity):
        d = random_dataset(multiplicity, n=4, k=2)
        bundle = assemble_bundle(d, BlaschkeSpec(np.array([0.0]), np.array([multiplicity])))
        assert np.array_equal(bundle.basis, bundle.q_tilde)
