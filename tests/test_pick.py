import numpy as np
import pytest

from cnpick.body import unconstrained_body
from cnpick.errors import DomainError, SingularBlockError
from cnpick.feasibility import FEASIBLE, INFEASIBLE, pencil_build, search_x_grid
from cnpick.linalg import DEFAULT_TOL, is_psd, operator_norm, psd_margin
from cnpick.pick import (
    BlaschkeSpec,
    DataSet,
    assemble_bundle,
    constrained_pick,
    constrained_pick_cf,
    constrained_pick_compressed,
    constrained_pick_terms,
    jet_matrices,
    pick_matrix,
)

from conftest import (
    constrained_pick_cf_blocks,
    constrained_pick_lift,
    constrained_pick_z2,
    constrained_pick_z2_quadratic,
    matrix_feasible,
    node_matrices,
    random_blaschke,
    random_contraction,
    random_dataset,
    rng_for,
    stein_series,
)


class TestDataTypes:
    def test_dataset_rejects_duplicate_nodes(self):
        with pytest.raises(DomainError):
            DataSet.scalar([0.3, 0.3], [0.1, 0.2])

    def test_dataset_rejects_boundary_nodes(self):
        with pytest.raises(DomainError):
            DataSet.scalar([1.0], [0.0])

    def test_dataset_rejects_empty(self):
        with pytest.raises(DomainError):
            DataSet.scalar([], [])

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
        res_q = operator_norm(
            bundle.q - bundle.j @ bundle.q @ bundle.j.conj().T
            - bundle.e_tilde @ bundle.e_tilde.conj().T
        )
        z, e, _ = node_matrices(d)
        res_t = operator_norm(
            bundle.q_tilde - bundle.j @ bundle.q_tilde @ z.conj().T - bundle.e_tilde @ e.conj().T
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
        q_s, qt_s = stein_series(bundle.j, bundle.e_tilde, z, e, terms=200)
        assert np.allclose(q_s, bundle.q, atol=1e-10)
        assert np.allclose(qt_s, bundle.q_tilde, atol=1e-10)

    def test_boundary_zero_reports_conditioning(self):
        from cnpick.errors import IllConditionedError
        from cnpick.pick import jet_matrices as jets, stein_solve as solve

        b = BlaschkeSpec(np.array([1.0 - 5e-14]), np.array([1]))
        j, e_t = jets(b, 1)
        with pytest.raises(IllConditionedError) as err:
            solve(j, e_t, np.diag([0.5 + 0.0j]), np.ones((1, 1)))
        assert err.value.cond is not None and err.value.cond > 1e13


class TestGramPair:
    """The node part ``G`` of a bundle and the forms read off ``G - V G V*``."""

    @pytest.mark.parametrize("seed", range(30))
    def test_g_solves_its_stein_equation(self, seed):
        # G - T G T* = F F* with T = diag(Z, J) and F = [E; Et].
        rng = rng_for(80_000 + seed)
        k = int(rng.integers(1, 4))
        b = random_blaschke(seed + 200, max_degree=8)
        d = random_dataset(seed + 700, n=int(rng.integers(1, 4)), k=k)
        bundle = assemble_bundle(d, b)
        z, e, _ = node_matrices(d)
        nk, dk = z.shape[0], bundle.j.shape[0]
        t = np.block([[z, np.zeros((nk, dk))], [np.zeros((dk, nk)), bundle.j]])
        f = np.vstack([e, bundle.e_tilde])
        g = bundle.g
        residual = operator_norm(g - t @ g @ t.conj().T - f @ f.conj().T)
        assert residual <= 1e-10 * operator_norm(g)
        assert operator_norm(g - g.conj().T) == 0.0
        assert np.array_equal(bundle.q, g[nk:, nk:]) and np.array_equal(bundle.q_tilde, g[nk:, :nk])

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
        # The linearized form lifts the CF form: corner Q, mirrored block Q^-1.
        nk, dk = d.n * k, b.degree * k
        oracle[nk:, nk:] = bundle.q
        full = constrained_pick(d, b, x, bundle=bundle)
        assert operator_norm(full[: nk + dk, : nk + dk] - oracle) <= 1e-14 * scale
        assert operator_norm(full - constrained_pick_lift(bundle, x)) <= 1e-14 * scale
        assert np.array_equal(full[nk : nk + dk, nk + dk :], np.kron(np.eye(b.degree), x))
        assert not full[:nk, nk + dk :].any()
        assert np.array_equal(full[nk + dk :, nk + dk :], bundle.q_inv)

    def test_bundle_is_read_only(self):
        d = DataSet(np.array([0.5, -0.3 + 0.2j]), 0.3 * np.stack([np.eye(2), 1j * np.eye(2)]))
        b = BlaschkeSpec(np.array([0.2, -0.1j]), np.array([2, 1]))
        bundle = assemble_bundle(d, b)
        for name in ("g", "p", "j", "e_tilde", "q_inv", "q", "q_tilde"):
            with pytest.raises(ValueError):
                getattr(bundle, name)[0, 0] = 5.0
        x = np.array([[0.3, 0.1j], [0.0, -0.2]])
        for builder in (constrained_pick, constrained_pick_cf, constrained_pick_compressed):
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
        assert np.allclose(m[nk : nk + dk, nk : nk + dk], bundle.q)

    def test_cf_expansive_parameter(self):
        d = DataSet.scalar([0.5], [0.0])
        m = constrained_pick_cf(d, BlaschkeSpec.z_squared(), 1.05)
        corner = m[1:, 1:]
        assert np.allclose(corner, (1 - 1.05**2) * np.eye(2))
        assert not is_psd(m)[0]

    def test_compressed_rejects_boundary_parameter(self):
        d = DataSet.scalar([0.5], [0.0])
        with pytest.raises(SingularBlockError):
            constrained_pick_compressed(d, BlaschkeSpec.z_squared(), 1.0)

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
        if operator_norm(x) < 0.99:
            hat, m_hat = is_psd(constrained_pick_compressed(d, b, x, bundle=bundle))
            if min(abs(m_cf), abs(m_hat)) > 10 * DEFAULT_TOL.psd_tol:
                assert cf == hat

    @pytest.mark.parametrize("seed", range(10))
    def test_builders_hermitian_to_the_bit(self, seed):
        rng = rng_for(seed)
        k = int(rng.integers(1, 3))
        d = random_dataset(seed, k=k)
        b = random_blaschke(seed + 40)
        x = random_contraction(rng, k)
        for m in (
            constrained_pick(d, b, x),
            constrained_pick_cf(d, b, x),
            constrained_pick_compressed(d, b, x),
        ):
            assert operator_norm(m - m.conj().T) == 0.0
        if 0 not in d.nodes:
            for m in (constrained_pick_z2_quadratic(d, x), constrained_pick_z2(d, x)):
                assert operator_norm(m - m.conj().T) == 0.0

    @pytest.mark.parametrize(
        "builder", [constrained_pick, constrained_pick_cf, constrained_pick_compressed]
    )
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
        assert report.margin == pytest.approx(0.08315492751794226, rel=1e-12)
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
        assert report.margin == pytest.approx(0.009566054857440099, rel=1e-12)
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
        assert report.margin == pytest.approx(-0.0765750743443135, rel=1e-12)
        assert report.witness_x is None
        # The certificate v v* re-checks on a freshly built matrix at the shared value.
        pick = constrained_pick(DataSet.scalar([-0.4j], [0.5]), b, np.array([[0.1]]))
        _, scale = psd_margin(pick)
        assert np.trace(report.certificate @ pick).real < -DEFAULT_TOL.psd_tol * scale

    def test_witness_passes_the_cf_form(self):
        d = DataSet.scalar([0.3, 0.5, -0.4j], [0.1, 0.1, 0.05j])
        b = BlaschkeSpec(np.array([0.3, 0.5]), np.array([2, 1]))
        report = search_x_grid(d, b)
        assert report.status == FEASIBLE and report.detail == self.REDUCED
        assert report.margin == pytest.approx(0.0004482680449298271, rel=1e-12)
        assert np.array_equal(report.witness_x, [[0.1]])
        rest = DataSet.scalar([-0.4j], [0.05j])
        assert is_psd(constrained_pick_cf(rest, b, report.witness_x))[0]


class TestBuildBits:
    """Builds that skip a step, or ``np.kron``, give the arrays of the step they skip."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a0_is_the_build_at_zero(self, degree, k):
        # Entry for entry; the build at x = 0 conjugates zero blocks, so a zero may differ in sign.
        rng = rng_for(100 * degree + k)
        zeros = 0.5 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        mult = [degree - degree // 2, degree // 2][: 1 + (degree > 1)]  # one zero for degree 1
        b = BlaschkeSpec(zeros[: len(mult)], mult)
        d = random_dataset(degree + k, n=3, k=k)
        bundle = assemble_bundle(d, b)
        a0, _ = constrained_pick_terms(bundle)
        assert np.array_equal(a0, constrained_pick_lift(bundle, np.zeros((k, k))))

    @pytest.mark.parametrize("seed", range(6))
    def test_kron_free_arrays_match_np_kron(self, seed, kron_oracle):
        rng = rng_for(seed)
        k = 1 + seed % 3
        d, b = matrix_feasible(seed, k, 3), random_blaschke(seed)
        x = random_contraction(rng, k)

        def builds():
            bundle = assemble_bundle(d, b)
            ball = unconstrained_body(d, 0.1 - 0.2j)
            return (bundle.g, bundle.p, bundle.q_inv, np.array(bundle.stein_residuals),
                    constrained_pick(d, b, x, bundle=bundle), ball.center, ball.left, ball.right,
                    *pencil_build(d))

        arrays = builds()
        kron_oracle()
        for array, expected in zip(arrays, builds(), strict=True):
            assert array.tobytes() == expected.tobytes()
