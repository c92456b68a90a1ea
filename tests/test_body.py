import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpick.body import (
    INTERIOR_SHRINK,
    BodyReport,
    _inner_disks,
    body_disk_x,
    body_membership,
    body_union,
    unconstrained_body,
)
from cnpick.errors import DomainError, NotPsdError
from cnpick.feasibility import (
    FEASIBLE,
    INFEASIBLE,
    Disk,
    _disk_grid,
    _dual_bound,
    ball_membership,
    one_point_disk,
    search_x_grid,
)
from cnpick.interpolant import schur_reduce_constrained
from cnpick.kernels import lambda_criterion_matrix
from cnpick.linalg import DEFAULT_TOL, _batched_margins, is_psd
from cnpick.pick import (
    BlaschkeSpec,
    DataSet,
    assemble_bundle,
    constrained_pick_terms,
    pick_matrix,
)

from conftest import (
    constrained_pick_z2_quadratic,
    covers_oracle,
    disk_point,
    random_dataset,
    rng_for,
)

NAN = complex(float("nan"), 0.0)


class TestUnconstrainedBody:
    def test_zero_target_centered_disk(self):
        ball = unconstrained_body(DataSet.scalar([0.5], [0.0]), 0.3)
        disk = ball.as_disk()
        assert disk.center == pytest.approx(0.0)
        # pseudo-hyperbolic radius of the Schwarz-Pick bound
        assert disk.radius == pytest.approx(abs((0.3 - 0.5) / (1 - 0.15)), abs=1e-12)

    def test_constant_value_always_inside(self):
        d = DataSet.scalar([0.5, -0.2], [0.3, 0.3])
        ball = unconstrained_body(d, 0.1 + 0.2j)
        inside, _, _ = ball_membership(ball, np.array([[0.3]]))
        assert inside

    def test_rejects_node_point(self):
        with pytest.raises(DomainError):
            unconstrained_body(DataSet.scalar([0.5], [0.0]), 0.5)

    def test_rejects_singular_pick(self):
        # two nodes forced to the same target by a unimodular-like pair
        d = DataSet.scalar([0.1, -0.1], [0.8, -0.8])
        with pytest.raises(NotPsdError):
            unconstrained_body(d, 0.3)

    @pytest.mark.parametrize("seed", range(30))
    def test_membership_matches_augmented_pick(self, seed):
        rng = rng_for(30_000 + seed)
        d = random_dataset(seed, k=1, wmax=0.8)
        if not is_psd(pick_matrix(d))[1] > 1e-6:
            return
        z0 = disk_point(rng, 0.8, rmin=0.1)
        if np.min(np.abs(d.nodes - z0)) < 5e-2:
            return
        ball = unconstrained_body(d, z0)
        disk = ball.as_disk()
        for _ in range(12):
            w0 = disk.center + disk.radius * rng.uniform(0.2, 1.8) * np.exp(
                2j * np.pi * rng.uniform()
            )
            augmented = DataSet.scalar(
                np.append(d.nodes, z0), np.append(d.scalar_values(), w0)
            )
            verdict, margin = is_psd(pick_matrix(augmented))
            if abs(margin) < 10 * DEFAULT_TOL.psd_tol:
                continue
            assert verdict == disk.contains(w0)


class TestBodyDisk:
    def test_interior_parameter_produces_disk(self):
        disk0 = one_point_disk(0.5, 0.3)
        disk = body_disk_x(0.5, 0.3, 0.3, complex(disk0.center))
        assert disk is not None
        assert disk.radius > 0

    def test_infeasible_parameter_produces_nothing(self):
        disk0 = one_point_disk(0.5, 0.3)
        outside = disk0.center + 2.5 * disk0.radius
        assert body_disk_x(0.5, 0.3, 0.3, complex(outside)) is None

    def test_constant_function_value_inside_its_disk(self):
        # x = w1: the constant interpolant attains w0 = w1 at z0.
        disk = body_disk_x(0.5, 0.3, 0.2, 0.3)
        assert disk is not None
        assert disk.contains(0.3, 1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_disk_points_pass_membership_matrix(self, seed):
        rng = rng_for(45_000 + seed)
        z1, w1, z0 = 0.5, 0.3, 0.3
        disk0 = one_point_disk(z1, w1)
        x = disk0.center + 0.9 * disk0.radius * disk_point(rng, 1.0)
        disk = body_disk_x(z1, w1, z0, complex(x))
        if disk is None:
            return
        for w0 in disk.boundary(12):
            assert body_membership(z1, w1, z0, w0).feasible
            pair = DataSet.scalar([z1, z0], [w1, w0])
            assert is_psd(constrained_pick_z2_quadratic(pair, x))[0]

    @pytest.mark.parametrize(
        "case, center, radius",
        [
            ((0.5, 0.3, 0.3, 0.29 + 0.02j), 0.29326247380486914 + 0.013159779352519729j,
             0.019176644004262715),
            ((0.4 - 0.3j, 0.2 + 0.5j, -0.6 + 0.1j, 0.3 + 0.4j),
             0.17871051774947663 + 0.35873841904469594j, 0.1894274139643585),
            ((-0.7j, -0.6, 0.25 + 0.25j, -0.5 - 0.1j),
             -0.4859810697575479 - 0.09039722418413208j, 0.07325057233755763),
        ],
    )
    def test_disk_matches_recorded_values(self, case, center, radius):
        # Reference values from an independent closed form: the 3x3 anchored
        # one-node Pick matrix and its LMI pencil.
        disk = body_disk_x(*case)
        assert abs(disk.center - center) <= 1e-12
        assert abs(disk.radius - radius) <= 1e-12


BODY_CASES = [
    (0.5, 0.3, 0.3),
    (0.4 - 0.3j, 0.2 + 0.5j, -0.6 + 0.1j),
    (-0.7j, -0.6, 0.25 + 0.25j),
]


def pencil_disk_x(z1, w1, z0, x, tol=DEFAULT_TOL):
    """Oracle for the closed form: the unconstrained LMI pencil of the
    reduced data, scaled by ``z0^2`` and mapped by ``M_x``; None when the
    pencil refuses."""
    reduced = schur_reduce_constrained(DataSet.scalar([z1], [w1]), x)
    try:
        disk = unconstrained_body(reduced, z0, tol).as_disk()
    except NotPsdError:
        return None
    c, r = z0**2 * disk.center, abs(z0) ** 2 * disk.radius
    pole = np.conj(x) * c + 1.0
    den = abs(pole) ** 2 - abs(x) ** 2 * r**2
    center = ((c + x) * np.conj(pole) - x * r**2) / den
    return Disk(complex(center), float(r * (1.0 - abs(x) ** 2) / den))


def swept_xs(z1, w1, x_resolution=10):
    disk0 = one_point_disk(z1, w1)
    xs = disk0.center + INTERIOR_SHRINK * disk0.radius * _disk_grid(x_resolution)
    return xs[np.abs(xs) < 1.0]


def inner_disks(report):
    """The report's inner disks as :class:`Disk` objects."""
    return [Disk(complex(c), float(r)) for c, r in zip(report.centers, report.radii)]


def pseudo_distance(a, b):
    return abs(a - b) / abs(1.0 - np.conj(b) * a)


class TestInnerDisks:
    @pytest.mark.parametrize("index, case", enumerate(BODY_CASES))
    def test_closed_form_matches_pencil(self, index, case):
        z1, w1, z0 = case
        rng = rng_for(46_000 + index)
        disk0 = one_point_disk(z1, w1)
        rim = disk0.center + np.outer([1 - 1e-4, 1 + 1e-4], disk0.radius * np.exp([0.3j, 2j, 4j]))
        xs = np.concatenate(
            [swept_xs(z1, w1), [disk_point(rng, 0.95) for _ in range(20)], rim.ravel()]
        )
        centers, radii, admissible = _inner_disks(z1, w1, z0, xs)
        oracle = [pencil_disk_x(z1, w1, z0, complex(x)) for x in xs]
        assert admissible.tolist() == [disk is not None for disk in oracle]
        assert 0 < admissible.sum() < xs.size
        for c, r, disk in zip(centers[admissible], radii[admissible], filter(None, oracle)):
            assert abs(c - disk.center) <= 1e-12
            assert abs(r - disk.radius) <= 1e-12

    @pytest.mark.parametrize("index, case", enumerate(BODY_CASES))
    def test_scalar_equals_array_entry(self, index, case):
        z1, w1, z0 = case
        rng = rng_for(47_000 + index)
        xs = np.append(swept_xs(z1, w1), [disk_point(rng, 0.95) for _ in range(20)])
        centers, radii, admissible = _inner_disks(z1, w1, z0, xs)
        for x, c, r, ok in zip(xs, centers, radii, admissible):
            disk = body_disk_x(z1, w1, z0, complex(x))
            if ok:
                assert disk == Disk(complex(c), float(r))
            else:
                assert disk is None

    def test_rejects_parameter_off_disk(self):
        with pytest.raises(DomainError):
            body_disk_x(0.5, 0.3, 0.3, 1.0)

    @pytest.mark.parametrize(
        "function, args",
        [
            (body_union, (0.5, NAN, 0.3)),
            (body_disk_x, (0.5, NAN, 0.3, 0.1)),
            (body_disk_x, (0.5, 0.3, 0.3, NAN)),
            (_inner_disks, (0.5, 0.3, 0.3, [0.1, NAN])),
            (unconstrained_body, (DataSet.scalar([0.5], [0.2]), NAN)),
        ],
        ids=["union-w1", "disk-w1", "disk-x", "inner-xs", "unconstrained-z0"],
    )
    def test_rejects_nan(self, function, args):
        with pytest.raises(DomainError, match="finite"):
            function(*args)

    @pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-10])
    def test_near_node_keeps_every_disk(self, eps):
        # The closed form has no pivot to lose near the node: every swept x
        # keeps its disk, and each lies in the Schwarz-Pick disk of (z1, w1).
        z1, w1 = 0.5 + 0.1j, 0.3 - 0.2j
        z0 = z1 + eps * np.exp(0.7j)
        report = body_union(z1, w1, z0, w_resolution=4)
        assert report.xs.tolist() == swept_xs(z1, w1).tolist()
        bound = pseudo_distance(z0, z1) + 1e-12
        for disk in inner_disks(report):
            assert all(pseudo_distance(w, w1) <= bound for w in disk.boundary(16))


class TestBodyMembership:
    def test_constant_value(self):
        report = body_membership(0.5, 0.3, 0.2, 0.3)
        assert report.feasible
        assert abs(report.witness_x[0, 0] - 0.3) < 0.2

    def test_outside_unit_disk(self):
        report = body_membership(0.5, 0.3, 0.2, 1.5)
        assert report.status == INFEASIBLE and report.witness_x is None
        assert report.margin < 0
        # The certificate bounds the augmented LMI below zero for every x.
        data = DataSet.scalar([0.5, 0.2], [0.3, 1.5])
        a0, terms = constrained_pick_terms(assemble_bundle(data, BlaschkeSpec.z_squared()))
        assert _dual_bound(a0, terms, report.certificate) < 0

    def test_far_value_out(self):
        report = body_membership(0.5, 0.3, 0.3, -0.95)
        assert report.status == INFEASIBLE and report.margin < 0
        assert report.certificate is not None


def lambda_criterion_flags(z1, w1, z0, values, x_resolution, tol=DEFAULT_TOL):
    """Oracle for the outer grid: ``w0`` is inside iff the lambda-criterion
    matrix of the augmented data is PSD at some swept origin value ``x``.

    Returns the flags and the number of values whose best margin lies
    within ``psd_tol`` of zero (where the two tests may round apart).
    """
    disk0 = one_point_disk(z1, w1)
    xs = disk0.center + INTERIOR_SHRINK * disk0.radius * _disk_grid(x_resolution)
    xs = xs[np.abs(xs) < 1.0]
    flags, borderline = [], 0
    for w0 in values:
        augmented = DataSet.scalar([z1, z0], [w1, w0])
        lmin, scale = _batched_margins(lambda_criterion_matrix(augmented, xs))
        rel = np.max(lmin / scale)
        flags.append(bool(rel >= -tol.psd_tol))
        borderline += bool(abs(rel) <= tol.psd_tol)
    return flags, borderline


class TestBodyUnion:
    @pytest.mark.parametrize("case", BODY_CASES)
    def test_outer_grid_matches_lambda_criterion(self, case):
        report = body_union(*case, x_resolution=8, w_resolution=16)
        flags, borderline = lambda_criterion_flags(*case, report.outer_grid, x_resolution=8)
        assert report.inside.tolist() == flags
        assert 0 < sum(flags) < len(flags)
        assert borderline == 0

    @pytest.mark.parametrize("slack", [0.0, 1e-3, -1e-3])
    def test_covers_array_matches_scalar(self, slack):
        report = body_union(0.5, 0.3, 0.3, x_resolution=8, w_resolution=4)
        values = inner_disks(report)[3].boundary(6)[:, None] + 0.02 * _disk_grid(6)
        flags = report.covers(values, slack)
        assert flags.shape == values.shape and flags.dtype == bool
        expected = [[report.covers(w0, slack) for w0 in row] for row in values]
        assert all(type(f) is bool for row in expected for f in row)
        assert flags.tolist() == expected
        assert 0 < flags.sum() < flags.size

    @pytest.mark.parametrize("case", BODY_CASES)
    @pytest.mark.parametrize("resolutions", [(3, 5), (10, 32), (25, 80)])
    def test_inside_matches_per_disk_loop(self, case, resolutions):
        report = body_union(*case, *resolutions)
        expected = covers_oracle(report.centers, report.radii, report.outer_grid)
        assert report.inside.tolist() == expected.tolist()

    def test_zero_data_contains_zero(self):
        report = body_union(0.5, 0.0, 0.3, x_resolution=8, w_resolution=16)
        assert report.covers(0.0, 1e-12)
        assert report.xs.size > 0

    def test_inner_subset_of_outer(self):
        report = body_union(0.5, 0.3, 0.3, x_resolution=8, w_resolution=24)
        for w0, inside in zip(report.outer_grid, report.inside):
            if report.covers(w0, -1e-9):
                assert inside

    def test_outer_grid_agrees_with_certified_solver(self):
        z1, w1, z0 = 0.5, 0.3, 0.3
        report = body_union(z1, w1, z0, x_resolution=8, w_resolution=16)
        inside_feasible = outside_infeasible = 0
        for w0, inside in zip(report.outer_grid, report.inside):
            status = search_x_grid(DataSet.scalar([z1, z0], [w1, w0])).status
            if inside:
                assert status == FEASIBLE
                inside_feasible += 1
            else:
                outside_infeasible += status == INFEASIBLE
        assert inside_feasible >= 1
        assert outside_infeasible >= 1

    @pytest.mark.parametrize("case", BODY_CASES)
    def test_diameter_matches_pair_loop(self, case):
        report = body_union(*case, w_resolution=4)
        disks = inner_disks(report)
        best = max(2.0 * disk.radius for disk in disks)
        for i, a in enumerate(disks):
            for b in disks[i + 1 :]:
                best = max(best, abs(a.center - b.center) + a.radius + b.radius)
        assert abs(report.diameter() - best) <= 1e-15 * best

    @pytest.mark.parametrize("case", BODY_CASES)
    @pytest.mark.parametrize("resolutions", [(10, 4), (25, 4)])
    def test_diameter_is_the_pair_formula_bit_for_bit(self, case, resolutions):
        # numpy's complex abs and Python's can differ in the last bit, so the
        # loop above is held to 1e-15; the array pair formula is held exactly.
        report = body_union(*case, *resolutions)
        assert report.diameter() == pair_formula_diameter(report.centers, report.radii)

    def test_diameter_of_no_and_one_disk(self):
        def report(centers, radii):
            xs = np.full(len(radii), 0.1 + 0j)
            return BodyReport(0.3, xs, np.array(centers, complex), np.array(radii), np.zeros(0))

        assert report([], []).diameter() == 0.0
        single = report([0.2 + 0.1j], [0.05])
        assert single.diameter() == 0.1

    def test_collapse_as_z0_approaches_node(self):
        report = body_union(0.5, 0.3, 0.5 + 1e-4, x_resolution=6, w_resolution=8)
        assert report.diameter() <= 1e-2

    def test_body_interpolates_between_x_disk_and_node_value(self):
        # Moving z0 from the node towards 0 grows the body monotonically
        # (at grid scale) from {w1} towards the feasible-parameter disk.
        diameters = [
            body_union(0.5, 0.2, z0, x_resolution=6, w_resolution=8).diameter()
            for z0 in (0.45, 0.3, 0.15, 0.05)
        ]
        assert diameters[0] <= diameters[1] <= diameters[2] <= diameters[3]
        x_disk_diameter = 2 * one_point_disk(0.5, 0.2).radius
        assert diameters[3] <= x_disk_diameter + 1e-9
        assert diameters[3] >= 0.8 * x_disk_diameter


def pair_formula_diameter(centers, radii):
    """The largest ``2 r_i`` and ``(|c_i - c_j| + r_i) + r_j`` over the pairs ``i < j``,
    gathered pair by pair: the association ``BodyReport.diameter`` must keep bit for bit."""
    i, j = np.triu_indices(radii.size, 1)
    pairs = np.abs(centers[i] - centers[j]) + radii[i] + radii[j]
    return float(max(2.0 * radii.max(initial=0.0), pairs.max(initial=0.0)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0, 1, 2, 7, 90, 91, 300]))
def test_diameter_matches_pair_formula_on_random_disks(seed, count):
    # 91 and 300 disks need more than one row block; the radii span 1e-8 to 1,
    # so the two orders of adding r_i and r_j round apart somewhere.
    rng = rng_for(seed)
    centers = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    radii = 10.0 ** rng.uniform(-8, 0, count)
    report = BodyReport(0.3 + 0j, centers, centers, radii, np.zeros(0))
    assert report.diameter() == pair_formula_diameter(centers, radii)


def test_covers_and_diameter_memory_stays_blocked():
    # 1,263 disks and 31,422 raster points: one unblocked broadcast would take
    # hundreds of MB for covers and about 36 MB for diameter.
    report = body_union(0.5, 0.3 + 0.1j, -0.4 + 0.2j, x_resolution=40, w_resolution=200)
    assert report.radii.size == 1263 and report.outer_grid.size == 31_422
    for method, args in ((report.covers, (report.outer_grid,)), (report.diameter, ())):
        tracemalloc.start()
        try:
            method(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, method.__name__


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([-1e-9, 0.0, 1e-9]),
)
def test_covers_matches_per_disk_loop(seed, count, slack):
    rng = rng_for(seed)
    # Dyadic centres and radii make c + r and c - i r exact: those points lie
    # exactly on a boundary, where the box filter must not lose a hit.
    centers = (rng.integers(-48, 49, count) + 1j * rng.integers(-48, 49, count)) / 64
    radii = rng.integers(0, 33, count) / 64
    report = BodyReport(0.3 + 0j, centers, centers, radii, rng.uniform(-1, 1, (4, 5)))
    on_rim = np.concatenate([centers + radii, centers - 1j * radii])
    far = np.array([1e300, complex(0.0, -1e300), complex(np.inf, 0.0), complex(np.nan, 0.0)])
    scattered = rng.uniform(-1.5, 1.5, 60) + 1j * rng.uniform(-1.5, 1.5, 60)
    points = np.concatenate([on_rim, scattered, far])

    assert report.covers(points, slack).tolist() == covers_oracle(centers, radii, points, slack).tolist()
    assert report.inside.shape == (4, 5)
    assert report.inside.tolist() == covers_oracle(centers, radii, report.outer_grid).tolist()
    if slack >= 0.0:
        assert report.covers(on_rim, slack).all()
    for w0 in points[::7]:
        expected = covers_oracle(centers, radii, w0, slack)
        assert report.covers(complex(w0), slack) is expected
        assert report.covers(np.asarray(w0), slack) is expected
