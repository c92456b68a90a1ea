import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpick import kernels
from cnpick.errors import DomainError
from cnpick.feasibility import INFEASIBLE, search_x_grid
from cnpick.interpolant import generate_feasible
from cnpick.kernels import (
    GrassmannParam,
    default_shapes,
    grassmann_sample,
    kernel_eval,
    kernel_gram,
    lambda_criterion_matrix,
    necessity_form,
    necessity_form_matrix,
    necessity_scan,
)
from cnpick.linalg import DEFAULT_TOL, is_psd
from cnpick.pick import DataSet

from conftest import distinct_nodes, matrix_feasible, random_dataset, rng_for, scan_oracle


def past_threshold(seed, n, k, threshold):
    """Random data with values scaled 1e-2 past ``threshold``, where bisection
    on ``search_x_grid`` found the switch from Feasible to Infeasible."""
    d = random_dataset(seed, n=n, k=k)
    return DataSet(d.nodes, d.values * threshold * (1 + 1e-2))


# The first witness of a seed-10 scan lies in the second random block (index 115).
NEAR_THRESHOLD = past_threshold(3, 3, 2, 0.0743615205137915)
NEAR_SEED = 10
# At seed 0 the first random block holds witnesses of two shapes: 60 in the
# fourth shape group, 36 and 41 in the fifth.  The scan meets 60 first, but
# the lowest index (36) must win.
CROWDED = past_threshold(6, 2, 3, 0.17419994378157413)

# ``grassmann_sample`` output for fixed seeds, pinned so that a change of the
# draw shows: (seed, ell, ell', alpha, beta).
PINNED_SAMPLES = [
    (
        0,
        1,
        1,
        [[-0.1865168763949312 - 0.950047103190218j]],
        [[0.19597346002732666 - 0.15561606441711276j]],
    ),
    (
        5,
        1,
        2,
        [[-0.41692356641110373 + 0.5906297683556371j], [-0.2082492788141328 - 0.6587590260304647j]],
        [[-0.688533281373038 + 0.05703627744593401j], [-0.3884821317053417 + 0.609713389095615j]],
    ),
    (
        11,
        2,
        2,
        [
            [-0.010788853668146414 - 0.23566503292841431j, -0.4290415317777515 + 0.5828869241875636j],
            [-0.5102279565484122 + 0.7149773639108562j, -0.08584438201840544 + 0.23747601834072402j],
        ],
        [
            [-0.38643659354384846 - 0.49429358463735845j, 0.16101733844806096 + 0.030427267179592477j],
            [0.17149367538098959 - 0.09631257401638507j, -0.02712391403695487 + 0.35396155853200073j],
        ],
    ),
]
# Seed 1, shape (1, 1), with the injectivity floor at 0.6: the first draw
# (|alpha| <= 0.6) is rejected and the second one kept.
PINNED_REDRAW = (
    [[-0.705902544244503 + 0.4186604062930267j]],
    [[-0.3480365654178442 - 0.4530955874468938j]],
)


def one_row_draws(rng, count, l, lp):
    """``count`` successive single-parameter draws from ``rng``, stacked."""
    rows = [kernels._draw_params(rng, 1, l, lp) for _ in range(count)]
    return np.concatenate([a for a, _ in rows]), np.concatenate([b for _, b in rows])


class TestGrassmannSample:
    def test_scalar_invariants(self):
        p = grassmann_sample(3, 1, 1)
        assert abs(abs(p.alpha[0, 0]) ** 2 + abs(p.beta[0, 0]) ** 2 - 1.0) < 1e-12
        assert p.alpha[0, 0] != 0

    def test_rectangular_invariants(self):
        p = grassmann_sample(5, 1, 2)
        gram = p.alpha @ p.alpha.conj().T + p.beta @ p.beta.conj().T
        assert np.allclose(gram, np.eye(2), atol=1e-12)
        assert np.linalg.svd(p.alpha, compute_uv=False)[-1] > 1e-6

    def test_deterministic(self):
        a = grassmann_sample(11, 2, 2)
        b = grassmann_sample(11, 2, 2)
        assert np.array_equal(a.alpha, b.alpha) and np.array_equal(a.beta, b.beta)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            grassmann_sample(0, 2, 1)
        with pytest.raises(DomainError):
            grassmann_sample(0, 1, 3)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match="seed"):
            grassmann_sample(-1, 1, 1)
        with pytest.raises(DomainError, match="seed"):
            necessity_scan(DataSet.scalar([0.5], [0.2]), seed=-1)

    # Every ell <= ell' <= 3, with the inadmissible (1, 3) refused.
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
    def test_matches_batched_draw(self, shape):
        """A stacked draw equals one-row draws from the same stream, bit for bit."""
        l, lp = shape
        seeds = [0, 1, 17, 81, 3 * 1_000_003 + 40, 2**70]
        if lp > 2 * l:
            with pytest.raises(DomainError):
                kernels._draw_params(np.random.default_rng(seeds[0]), len(seeds), l, lp)
            with pytest.raises(DomainError):
                grassmann_sample(seeds[0], l, lp)
            return
        for seed in seeds:
            alpha, beta = kernels._draw_params(np.random.default_rng(seed), len(seeds), l, lp)
            assert alpha.shape == beta.shape == (len(seeds), lp, l)
            want_alpha, want_beta = one_row_draws(np.random.default_rng(seed), len(seeds), l, lp)
            assert np.array_equal(alpha, want_alpha) and np.array_equal(beta, want_beta)
            p = grassmann_sample(seed, l, lp)
            assert np.array_equal(alpha[0], p.alpha) and np.array_equal(beta[0], p.beta)

    @pytest.mark.parametrize("shape, floor", [((1, 1), 0.6), ((2, 2), 0.3), ((2, 3), 0.65), ((3, 3), 0.2)])
    def test_redraw_matches_per_seed(self, monkeypatch, shape, floor):
        """Rejected rows are replaced by the stream's next draws, as one-row draws would be."""
        l, lp = shape
        count, seed = 64, 106  # at this seed the first draw passes every floor below
        first, _ = kernels._draw_params(np.random.default_rng(seed), count, l, lp)
        monkeypatch.setattr(kernels, "_INJECTIVITY_FLOOR", floor)
        alpha, beta = kernels._draw_params(np.random.default_rng(seed), count, l, lp)
        redrawn = [row for row in range(count) if not np.array_equal(alpha[row], first[row])]
        assert 0 < len(redrawn) < count
        assert np.all(np.linalg.svd(alpha, compute_uv=False)[:, -1] > floor)
        want_alpha, want_beta = one_row_draws(np.random.default_rng(seed), count, l, lp)
        assert np.array_equal(alpha, want_alpha) and np.array_equal(beta, want_beta)

    @pytest.mark.parametrize("seed, l, lp, alpha, beta", PINNED_SAMPLES, ids=["1x1", "2x1", "2x2"])
    def test_pinned_values(self, seed, l, lp, alpha, beta):
        p = grassmann_sample(seed, l, lp)
        assert np.array_equal(p.alpha, np.array(alpha)) and np.array_equal(p.beta, np.array(beta))

    def test_pinned_redraw(self, monkeypatch):
        monkeypatch.setattr(kernels, "_INJECTIVITY_FLOOR", 0.6)
        p = grassmann_sample(1, 1, 1)
        alpha, beta = PINNED_REDRAW
        assert np.array_equal(p.alpha, np.array(alpha)) and np.array_equal(p.beta, np.array(beta))

    def test_redraw_gives_up(self, monkeypatch):
        monkeypatch.setattr(kernels, "_INJECTIVITY_FLOOR", 1.0)
        with pytest.raises(DomainError, match="128 attempts"):
            grassmann_sample(0, 1, 1)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            GrassmannParam(np.array([[1.0]]), np.array([[1.0]]))  # not normalized
        with pytest.raises(DomainError):
            GrassmannParam(np.array([[0.0]]), np.array([[1.0]]))  # alpha not injective


class TestKernelEval:
    def test_scalar_formula(self):
        p = GrassmannParam.scalar(1.0, 0.0)
        z, w = 0.4 + 0.1j, -0.2 + 0.3j
        expected = 1.0 + z**2 * np.conj(w) ** 2 / (1 - z * np.conj(w))
        assert kernel_eval(p, z, w)[0, 0] == pytest.approx(expected)

    def test_origin_truncates_series(self):
        p = grassmann_sample(2, 2, 2)
        assert np.allclose(kernel_eval(p, 0, 0), p.alpha.conj().T @ p.alpha)

    def test_balanced_scalar_at_origin(self):
        p = GrassmannParam.scalar(1 / np.sqrt(2), 1 / np.sqrt(2))
        assert kernel_eval(p, 0, 0)[0, 0] == pytest.approx(0.5)

    def test_rejects_boundary(self):
        p = GrassmannParam.scalar(1.0, 0.0)
        with pytest.raises(DomainError):
            kernel_eval(p, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, complex(0.1, np.nan), np.inf, complex(-np.inf, 0.0)])
    def test_rejects_non_finite(self, bad):
        p = GrassmannParam.scalar(1.0, 0.0)
        with pytest.raises(DomainError, match="finite"):
            kernel_eval(p, bad, 0.0)
        with pytest.raises(DomainError, match="finite"):
            kernel_eval(p, 0.0, np.array([0.2, bad]))
        with pytest.raises(DomainError, match="finite"):
            kernel_gram(p, [0.3, bad])

    @pytest.mark.parametrize("seed", range(25))
    def test_conjugate_symmetry(self, seed):
        rng = rng_for(seed)
        lp = int(rng.integers(1, 3))
        l = int(rng.integers(1, lp + 1))
        p = grassmann_sample(seed, l, lp)
        z = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        w = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
        assert np.allclose(
            kernel_eval(p, z, w).conj().T, kernel_eval(p, w, z), atol=DEFAULT_TOL.residual_tol
        )

    @pytest.mark.parametrize("seed", range(100))
    def test_gram_positivity(self, seed):
        rng = rng_for(40_000 + seed)
        lp = int(rng.integers(1, 4))
        l = int(rng.integers(max(1, (lp + 1) // 2), lp + 1))
        p = grassmann_sample(seed, l, lp)
        pts = distinct_nodes(rng, int(rng.integers(2, 7)), rmin=0.0, rmax=0.9, gap=0.01)
        verdict, min_eig = is_psd(kernel_gram(p, pts))
        assert verdict, f"kernel Gram indefinite: {min_eig}"

    @pytest.mark.parametrize("lp", [1, 2, 3])
    def test_broadcast_matches_pairs(self, lp):
        rng = rng_for(70_000 + lp)
        p = grassmann_sample(lp, (lp + 1) // 2, lp)
        zs = distinct_nodes(rng, 4, rmin=0.0, rmax=0.9, gap=0.01)
        ws = distinct_nodes(rng, 3, rmin=0.0, rmax=0.9, gap=0.01)
        stacked = kernel_eval(p, zs[:, None], ws[None, :])
        assert stacked.shape == (4, 3, p.ell, p.ell)
        for i, z in enumerate(zs):
            for j, w in enumerate(ws):
                assert np.allclose(stacked[i, j], kernel_eval(p, z, w), rtol=1e-14, atol=1e-15)

    def test_unitary_equivalence(self, rng):
        p = grassmann_sample(9, 2, 2)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rotated = GrassmannParam(q @ p.alpha, q @ p.beta)
        z, w = 0.3 + 0.2j, -0.1 + 0.5j
        assert np.allclose(
            kernel_eval(p, z, w), kernel_eval(rotated, z, w), atol=DEFAULT_TOL.residual_tol
        )


class TestCriterionMatrices:
    def test_zero_targets_gram(self):
        d = DataSet.scalar([0.3, -0.4], [0.0, 0.0])
        m = necessity_form_matrix(d, GrassmannParam.scalar(1.0, 0.0))
        assert is_psd(m)[0]

    def test_one_point_value(self):
        d = DataSet.scalar([0.5], [0.5])
        m = necessity_form_matrix(d, GrassmannParam.scalar(1.0, 0.0))
        assert m[0, 0] == pytest.approx(0.8125)

    def test_unimodular_target_boundary(self):
        # |w| = 1 zeroes the prefactor entirely.
        m = necessity_form_matrix(DataSet.scalar([0.5], [1.0]), GrassmannParam.scalar(1.0, 0.0))
        assert m[0, 0] == pytest.approx(0.0)
        assert is_psd(m)[0]

    def test_requires_normalized_parameter(self):
        d = DataSet.scalar([0.5], [0.5])
        with pytest.raises(DomainError):
            necessity_form_matrix(d, GrassmannParam.scalar(1.0, 1.0))

    def test_lambda_matrix_fixture(self):
        d = DataSet.scalar([0.5], [0.0])
        m = lambda_criterion_matrix(d, 0.0)
        assert m[0, 0] == pytest.approx(0.0625 / 0.75)

    def test_lambda_at_target_is_psd(self):
        d = DataSet.scalar([0.5], [0.3 + 0.2j])
        m = lambda_criterion_matrix(d, 0.3 + 0.2j)
        assert m[0, 0] == pytest.approx(0.0625 / 0.75)
        assert is_psd(m)[0]

    def test_lambda_stack_matches_pointwise(self):
        d = random_dataset(5, n=3, k=1)
        rng = rng_for(5)
        radii, angles = rng.uniform(size=(2, 3, 4))
        lams = 0.95 * np.sqrt(radii) * np.exp(2j * np.pi * angles)
        stack = lambda_criterion_matrix(d, lams)
        assert stack.shape == (3, 4, d.n, d.n)
        for index in np.ndindex(lams.shape):
            assert np.array_equal(stack[index], lambda_criterion_matrix(d, complex(lams[index])))

    def test_lambda_rejects_outside(self):
        d = DataSet.scalar([0.5], [0.0])
        with pytest.raises(DomainError):
            lambda_criterion_matrix(d, 1.2)

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.2), np.inf])
    def test_lambda_rejects_non_finite(self, bad):
        d = DataSet.scalar([0.5], [0.0])
        with pytest.raises(DomainError, match="finite"):
            lambda_criterion_matrix(d, bad)
        with pytest.raises(DomainError, match="finite"):
            lambda_criterion_matrix(d, np.array([0.1, bad]))

    def test_lambda_grid_infeasible_instance(self):
        # No parameter value on a coarse disk grid rescues the documented
        # constrained-infeasible data.
        d = DataSet.scalar([0.3, -0.3], [0.3, -0.3])
        rng = rng_for(0)
        for _ in range(400):
            lam = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert not is_psd(lambda_criterion_matrix(d, lam))[0]


class TestNecessityForm:
    def test_zero_targets_nonnegative(self):
        d = DataSet.scalar([0.3, -0.5], [0.0, 0.0])
        p = grassmann_sample(1, 1, 1)
        xs = np.array([[[1.0]], [[0.5 - 0.2j]]])
        assert necessity_form(d, p, xs) >= 0

    def test_large_target_witness(self):
        d = DataSet.scalar([0.5], [1.5])
        p = GrassmannParam.scalar(1.0, 0.0)
        xs = np.array([[[1.0]]])
        expected = (1 - 1.5**2) * (1 + 0.5**4 / (1 - 0.25))
        assert necessity_form(d, p, xs) == pytest.approx(expected)
        assert expected < 0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_quadratic_form(self, seed):
        rng = rng_for(seed)
        d = random_dataset(seed, k=1)
        theta = rng.uniform(-1.4, 1.4)
        alpha, beta = np.cos(theta), np.sin(theta)
        xs = rng.standard_normal((d.n, 1, 1)) + 1j * rng.standard_normal((d.n, 1, 1))
        p = GrassmannParam.scalar(alpha, beta)
        form = necessity_form(d, p, xs)
        m = necessity_form_matrix(d, p)
        vec = xs[:, 0, 0]
        assert form == pytest.approx(float((vec.conj() @ m @ vec).real), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_matrix_form_matches_stacked_matrix(self, seed):
        rng = rng_for(800 + seed)
        k = 2
        d = random_dataset(900 + seed, n=2, k=k)
        p = grassmann_sample(seed, 1, 2)
        f = necessity_form_matrix(d, p)
        xs = rng.standard_normal((d.n, k, 1)) + 1j * rng.standard_normal((d.n, k, 1))
        vec = np.concatenate([xs[i].reshape(-1, order="F") for i in range(d.n)])
        direct = necessity_form(d, p, xs)
        assert direct == pytest.approx(float((vec.conj() @ f @ vec).real), rel=1e-9, abs=1e-9)

    def test_shape_mismatch(self):
        d = DataSet.scalar([0.5], [0.0])
        p = grassmann_sample(0, 1, 1)
        with pytest.raises(DomainError):
            necessity_form(d, p, np.zeros((1, 2, 1)))
        with pytest.raises(DomainError):
            necessity_form(d, p, np.zeros((1, 1)))


class TestNecessityScan:
    def test_zero_function_passes(self):
        d = DataSet.scalar([0.3, -0.4, 0.5j], [0.0, 0.0, 0.0])
        assert necessity_scan(d, samples=60, seed=0).passed

    def test_big_target_witnessed_immediately(self):
        d = DataSet.scalar([0.5], [1.5])
        report = necessity_scan(d, samples=50, seed=0)
        assert report.status == "WITNESS"
        assert report.witness_index == 0  # canonical scalar parameter first
        assert report.witness_value < 0

    def test_documented_infeasible_instance(self):
        d = DataSet.scalar([0.3, -0.3], [0.3, -0.3])
        report = necessity_scan(d, samples=2000, seed=0)
        assert report.status == "WITNESS"
        # the recorded tuple reproduces the recorded value
        value = necessity_form(d, report.witness_param, report.witness_tuple)
        assert value == pytest.approx(report.witness_value)

    def test_deterministic(self):
        d = DataSet.scalar([0.3, -0.3], [0.3, -0.3])
        a = necessity_scan(d, samples=64, seed=7)
        b = necessity_scan(d, samples=64, seed=7)
        assert a.witness_index == b.witness_index
        assert a.min_value == b.min_value

    @pytest.mark.parametrize("data", [NEAR_THRESHOLD, CROWDED], ids=["near", "crowded"])
    def test_pinned_instances_are_infeasible(self, data):
        assert search_x_grid(data).status == INFEASIBLE

    def test_default_shapes(self):
        assert default_shapes(1) == ((1, 1),)
        assert default_shapes(2) == ((1, 1), (1, 2), (2, 2))
        # (1, 3) is inadmissible (ell' > 2 ell) and left out.
        assert default_shapes(3) == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))


def assert_matches_oracle(report, oracle):
    assert report.status == oracle.status
    assert report.witness_index == oracle.witness_index
    assert report.samples_evaluated == oracle.samples_evaluated
    assert report.samples_requested == oracle.samples_requested
    assert abs(report.min_value - oracle.min_value) <= 1e-15
    if oracle.status == "WITNESS":
        got, want = report.witness_param, oracle.witness_param
        assert np.max(np.abs(got.alpha - want.alpha)) <= 1e-15
        assert np.max(np.abs(got.beta - want.beta)) <= 1e-15
        assert np.max(np.abs(report.witness_tuple - oracle.witness_tuple)) <= 1e-15
        assert abs(report.witness_value - oracle.witness_value) <= 1e-15 * (
            1.0 + abs(oracle.witness_value)
        )


class TestScanMatchesOracle:
    """The blocked scan returns what the one-sample-at-a-time loop returns."""

    @pytest.mark.parametrize(
        "data",
        [
            generate_feasible(21, 3)[0],
            matrix_feasible(22, 2, 3),
            matrix_feasible(23, 3, 2),
        ],
        ids=["k1", "k2", "k3"],
    )
    def test_feasible_data(self, data):
        report = necessity_scan(data, samples=500, seed=4)
        assert report.passed
        assert_matches_oracle(report, scan_oracle(data, samples=500, seed=4))

    def test_documented_infeasible_instance(self):
        d = DataSet.scalar([0.3, -0.3], [0.3, -0.3])
        report = necessity_scan(d, samples=2000, seed=0)
        assert report.status == "WITNESS"
        assert_matches_oracle(report, scan_oracle(d, samples=2000, seed=0))

    @pytest.mark.parametrize("samples", [1, 17, 18, 81, 82, 500])
    @pytest.mark.parametrize(
        "data, seed",
        [(NEAR_THRESHOLD, NEAR_SEED), (matrix_feasible(24, 2, 2), 0)],
        ids=["near", "feasible"],
    )
    def test_block_edges(self, data, seed, samples):
        report = necessity_scan(data, samples=samples, seed=seed)
        assert_matches_oracle(report, scan_oracle(data, samples=samples, seed=seed))

    def test_witness_in_later_block(self):
        report = necessity_scan(NEAR_THRESHOLD, samples=500, seed=NEAR_SEED)
        assert report.status == "WITNESS"
        assert report.witness_index > 81
        assert_matches_oracle(report, scan_oracle(NEAR_THRESHOLD, samples=500, seed=NEAR_SEED))

    def test_lowest_index_wins_across_shapes(self):
        report = necessity_scan(CROWDED, samples=500, seed=0)
        assert report.witness_index == 36
        assert_matches_oracle(report, scan_oracle(CROWDED, samples=500, seed=0))


class TestScanBlockSize:
    """The block size is a speed setting: every report is the same at any size."""

    # A floor of 0.3 rejects a good share of the draws of every shape, so the
    # rejected rows' replacements are covered too.
    @pytest.mark.parametrize("floor", [None, 0.3], ids=["default", "redraws"])
    @pytest.mark.parametrize(
        "data, seed",
        [
            (NEAR_THRESHOLD, NEAR_SEED),
            (CROWDED, 0),
            (matrix_feasible(22, 2, 3), 4),
            (generate_feasible(21, 3)[0], 4),
        ],
        ids=["near", "crowded", "k2", "k1"],
    )
    def test_reports_identical(self, monkeypatch, data, seed, floor):
        if floor is not None:
            monkeypatch.setattr(kernels, "_INJECTIVITY_FLOOR", floor)
        reports = []
        # Blocks of 1 (at least one per shape), 7 and 64 samples, then one
        # block for the whole scan.
        largest = (data.n * data.k * data.k) ** 2
        for block in (1, 7, 64, 300):
            monkeypatch.setattr(kernels, "_SCAN_BUDGET", block * largest)
            reports.append(necessity_scan(data, samples=300, seed=seed))
        first = reports[0]
        for report in reports[1:]:
            assert report.status == first.status
            assert report.witness_index == first.witness_index
            assert report.samples_evaluated == first.samples_evaluated
            assert report.min_value == first.min_value
            assert report.witness_value == first.witness_value
            if first.status == "WITNESS":
                assert np.array_equal(report.witness_param.alpha, first.witness_param.alpha)
                assert np.array_equal(report.witness_param.beta, first.witness_param.beta)
                assert np.array_equal(report.witness_tuple, first.witness_tuple)


class TestUnitaryShapes:
    """Shapes with ell' = 2 ell have one form, evaluated once per scan."""

    @pytest.mark.parametrize("k, l, lp", [(2, 1, 2), (4, 1, 2), (4, 2, 4)])
    def test_form_stack_is_closed_form(self, k, l, lp):
        d = random_dataset(40 + k + l, n=3, k=k)
        alpha, beta = kernels._draw_params(np.random.default_rng(lp), 8, l, lp)
        forms = kernels._form_stack(d, alpha, beta)
        z, w = d.nodes[:, None], np.conj(d.nodes[None, :])
        c = 1.0 + w * z + w**2 * z**2 / (1.0 - w * z)  # K(z_i, z_j) = c_ij I
        gap = np.eye(k) - d.values[:, None] @ d.values[None, :].conj().swapaxes(-1, -2)
        size = d.n * l * k
        closed = np.einsum("ij,rt,ijsu->irsjtu", c, np.eye(l), gap).reshape(size, size)
        assert forms.shape == (8, size, size)
        assert np.max(np.abs(forms - closed)) <= 1e-13

    @pytest.mark.parametrize("budget", [None, 1], ids=["default", "smallest-blocks"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_one_draw_per_unitary_stream(self, monkeypatch, k, budget):
        if budget is not None:
            monkeypatch.setattr(kernels, "_SCAN_BUDGET", budget)
        rows = {}
        draw = kernels._draw_params

        def counting(rng, count, l, lp):
            rows[l, lp] = rows.get((l, lp), 0) + count
            return draw(rng, count, l, lp)

        monkeypatch.setattr(kernels, "_draw_params", counting)
        d = matrix_feasible(25, k, 2)
        report = necessity_scan(d, samples=300, seed=1)
        assert report.passed
        shapes = default_shapes(k)
        unitary = [(l, lp) for l, lp in shapes if lp == 2 * l]
        assert unitary == ([(1, 2)] if k == 2 else [(1, 2), (2, 4)])
        for j, shape in enumerate(shapes):
            share = len(range(j, 300 - 17, len(shapes)))  # the shape's random samples
            assert rows[shape] == (1 if shape in unitary else share)
        assert report.forms_evaluated == 17 + sum(rows.values())

    @pytest.mark.parametrize("size", [8, 13, 300])
    def test_unitary_shape_at_first_index(self, size):
        """Each ell' = 2 ell shape comes once, at its first random index, with
        its stream's first draw: a witness there keeps its index and bytes."""
        shapes = default_shapes(4)
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(len(shapes))]
        seen = []
        for block in kernels._scan_blocks(300, shapes, 5, size):
            for indices, alpha, beta in block:
                l, lp = alpha.shape[2], alpha.shape[1]
                if lp == 2 * l:
                    j = shapes.index((l, lp))
                    want_alpha, want_beta = kernels._draw_params(streams[j], 1, l, lp)
                    assert indices.tolist() == [17 + j]
                    assert np.array_equal(alpha, want_alpha)
                    assert np.array_equal(beta, want_beta)
                    seen.append((l, lp))
        assert seen == [(1, 2), (2, 4)]

    def test_stacks_bounded_on_large_data(self, monkeypatch):
        stacks = []
        form_stack = kernels._form_stack

        def recording(d, alpha, beta):
            forms = form_stack(d, alpha, beta)
            stacks.append(forms.shape)
            return forms

        monkeypatch.setattr(kernels, "_form_stack", recording)
        d = matrix_feasible(26, 3, 16)
        assert necessity_scan(d, samples=120, seed=0).passed
        largest = (16 * 3 * 3) ** 2
        per_block = kernels._SCAN_BUDGET // largest
        assert 5 <= per_block < 120 - 17
        for count, rows, cols in stacks:
            assert rows == cols <= 16 * 3 * 3
            assert count * rows * cols <= kernels._SCAN_BUDGET
        # The random samples took more than one block.
        assert len(stacks) > 1 + len(default_shapes(3))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=5_000),
    st.floats(min_value=-0.85, max_value=0.85),
    st.floats(min_value=-0.85, max_value=0.85),
)
def test_kernel_hermitian_on_diagonal(seed, re, im):
    if re**2 + im**2 >= 0.95**2:
        return
    p = grassmann_sample(seed, 1, 1)
    z = complex(re, im)
    val = kernel_eval(p, z, z)[0, 0]
    assert abs(val.imag) < 1e-12
    assert val.real > 0
