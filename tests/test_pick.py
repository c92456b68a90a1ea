import numpy as np
import pytest

from cnpick.errors import DomainError, SingularBlockError
from cnpick.feasibility import FEASIBLE, INFEASIBLE, search_x_grid
from cnpick.linalg import DEFAULT_TOL, is_psd, operator_norm, psd_margin
from cnpick.pick import (
    BlaschkeSpec,
    DataSet,
    assemble_bundle,
    aux_matrices,
    constrained_pick,
    constrained_pick_cf,
    constrained_pick_compressed,
    constrained_pick_z2,
    constrained_pick_z2_quadratic,
    jet_matrices,
    pick_matrix,
)

from conftest import random_blaschke, random_contraction, random_dataset, rng_for, stein_series


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


class TestAuxMatrices:
    def test_scalar_pair(self):
        aux = aux_matrices(DataSet.scalar([0.5, -0.5], [0.1, 0.2]))
        assert np.allclose(aux.z, np.diag([0.5, -0.5]))
        assert np.allclose(aux.e, [[1.0], [1.0]])

    def test_single_matrix_node(self):
        d = DataSet(np.array([0.3 + 0.1j]), np.eye(2).reshape(1, 2, 2))
        aux = aux_matrices(d)
        assert np.allclose(aux.z, (0.3 + 0.1j) * np.eye(2))
        assert np.allclose(aux.e, np.eye(2))
        assert np.allclose(aux.w_col, np.eye(2))
        assert np.allclose(aux.w_diag, np.eye(2))


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
        res_t = operator_norm(
            bundle.q_tilde - bundle.j @ bundle.q_tilde @ bundle.z.conj().T
            - bundle.e_tilde @ bundle.e.conj().T
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
        q_s, qt_s = stein_series(bundle.j, bundle.e_tilde, bundle.z, bundle.e, terms=200)
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


class TestZ2Builders:
    def test_quadratic_zero_data_structure(self):
        d = DataSet.scalar([0.5, -0.5], [0.0, 0.0])
        m = constrained_pick_z2_quadratic(d, 0.0)
        aux = aux_matrices(d)
        assert np.allclose(m[:2, 2:3], aux.e)
        assert np.allclose(m[:2, 3:4], aux.z @ aux.e)
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
        assert report.certificate is None

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
