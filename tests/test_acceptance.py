"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is pinned here, nothing is deferred.
"""

from fractions import Fraction

import numpy as np

from cnpick.body import body_membership, body_union
from cnpick.feasibility import (
    FEASIBLE,
    INFEASIBLE,
    Disk,
    _pivot,
    ball_membership,
    ball_sample,
    matrix_ball,
    one_point_disk,
    pencil_build,
    search_lambda,
    search_x_grid,
)
from cnpick.interpolant import (
    construct_interpolant,
    derivative_at,
    generate_feasible,
    verify_interpolant,
)
from cnpick.kernels import grassmann_sample, kernel_gram, necessity_scan
from cnpick.linalg import DEFAULT_TOL, hermitian_part, is_psd, operator_norm, psd_margin
from cnpick.pick import (
    BlaschkeSpec,
    DataSet,
    assemble_bundle,
    constrained_pick,
    constrained_pick_cf,
    jet_matrices,
    pick_matrix,
)

from conftest import (
    accept5_instances,
    constrained_pick_z2,
    constrained_pick_z2_quadratic,
    distinct_nodes,
    disk_point,
    node_matrices,
    random_blaschke,
    random_contraction,
    random_dataset,
    rng_for,
)

PSD_TOL = DEFAULT_TOL.psd_tol
INFEASIBLE_DATA = DataSet.scalar([0.3, -0.3], [0.3, -0.3])


def report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


def criterion_matrix(pencil, xt):
    p, e_tilde, w_tilde = pencil
    top = e_tilde + w_tilde @ xt.conj().T
    gap = hermitian_part(np.eye(xt.shape[0]) - xt @ xt.conj().T)
    return np.block([[p, top], [top.conj().T, gap]])


def test_criterion_1_one_point_disk_fixture():
    disk = one_point_disk(0.5, 0.5)
    # independent evaluation of the closed forms in exact arithmetic
    z2, w2 = Fraction(1, 4), Fraction(1, 4)  # |z1|^2, |w1|^2
    denom = 1 - z2 * z2 * w2
    c_exact = Fraction(1, 2) * (1 - z2 * z2) / denom
    r_exact = z2 * (1 - w2) / denom
    formula_ok = (
        abs(disk.center - float(c_exact)) <= 1e-12 and abs(disk.radius - float(r_exact)) <= 1e-12
    )

    d = DataSet.scalar([0.5], [0.5])
    side = np.linspace(-1.0, 1.0, 101)
    disagreements = 0
    checked = 0
    for re in side:
        for im in side:
            x = complex(re, im)
            min_eig, scale = psd_margin(constrained_pick_z2(d, x))
            if abs(min_eig) <= 10 * PSD_TOL * scale:
                continue
            checked += 1
            if (min_eig > 0) != disk.contains(x):
                disagreements += 1
    report(
        "ACCEPT-1 one-point disk fixture",
        formula_ok and disagreements == 0,
        f"c={disk.center:.12f}, r={disk.radius:.12f}, grid checked={checked}, "
        f"disagreements={disagreements}",
    )


def test_criterion_2_equivalence_chain():
    agree = {"quad_lin": 0, "gen_cf": 0}
    excluded = 0
    total = 0
    seed = 0
    while total < 500:
        seed += 1
        rng = rng_for(2_000_000 + seed)
        k = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        d = random_dataset(seed, n=n, k=k, wmax=1.15)
        use_z2 = seed % 5 < 2
        b = BlaschkeSpec.z_squared() if use_z2 else random_blaschke(seed + 77, max_degree=4)
        try:
            bundle = assemble_bundle(d, b)
        except Exception:
            continue
        x = random_contraction(rng, k, norm=rng.uniform(0.0, 1.25))
        total += 1

        pairs = []
        if use_z2:
            pairs.append(
                ("quad_lin", constrained_pick_z2_quadratic(d, x), constrained_pick_z2(d, x))
            )
        pairs.append(
            (
                "gen_cf",
                constrained_pick(d, b, x, bundle=bundle),
                constrained_pick_cf(d, b, x, bundle=bundle),
            )
        )
        for name, lhs, rhs in pairs:
            vl, ml = is_psd(lhs)
            vr, mr = is_psd(rhs)
            sl = 1.0 + operator_norm(lhs)
            sr = 1.0 + operator_norm(rhs)
            if abs(ml) <= 10 * PSD_TOL * sl or abs(mr) <= 10 * PSD_TOL * sr:
                excluded += 1
                continue
            assert vl == vr, f"{name} verdicts split at seed {seed}: {ml} vs {mr}"
            agree[name] += 1
    report(
        "ACCEPT-2 equivalence chain",
        total == 500,
        f"instances={total}, agreements={agree}, margin-band exclusions={excluded}",
    )


def test_criterion_3_stein_correctness():
    worst = 0.0
    count = 0
    for seed in range(40):
        rng = rng_for(3_000_000 + seed)
        k = int(rng.integers(1, 3))
        b = random_blaschke(seed, max_degree=8)
        d = random_dataset(seed + 11, n=int(rng.integers(1, 4)), k=k)
        bundle = assemble_bundle(d, b)
        j, e_tilde = jet_matrices(b, k)
        res_q = operator_norm(
            bundle.q - j @ bundle.q @ j.conj().T - e_tilde @ e_tilde.conj().T
        ) / (1.0 + operator_norm(bundle.q))
        z, e, _ = node_matrices(d)
        res_t = operator_norm(
            bundle.q_tilde - j @ bundle.q_tilde @ z.conj().T - e_tilde @ e.conj().T
        ) / (1.0 + operator_norm(bundle.q_tilde))
        worst = max(worst, res_q, res_t)
        count += 1
    residuals_ok = worst <= 1e-10

    d = DataSet.scalar([0.5, -0.3 + 0.2j, 0.1j], [0.1, 0.2, 0.3])
    bundle = assemble_bundle(d, BlaschkeSpec.z_squared())
    q_err = np.max(np.abs(bundle.q - np.eye(2)))
    qt_err = np.max(np.abs(bundle.q_tilde - np.vstack([np.ones(3), d.nodes.conj()])))
    closed_form_ok = q_err <= 1e-14 and qt_err <= 1e-14
    report(
        "ACCEPT-3 Stein correctness",
        residuals_ok and closed_form_ok,
        f"specs={count}, worst residual={worst:.3e}, origin case errors=({q_err:.1e}, {qt_err:.1e})",
    )


def test_criterion_4_matrix_ball_two_sided():
    pencils = 0
    checked = 0
    sound_violations = 0
    pullback_worst = 0.0
    seed = 0
    while pencils < 300:
        seed += 1
        rng = rng_for(4_000_000 + seed)
        k = int(rng.integers(1, 3))
        d = random_dataset(seed, n=int(rng.integers(1, 4)), k=k, wmax=0.55)
        pencil = pencil_build(d)
        min_eig, scale = psd_margin(pencil[0])
        if min_eig <= PSD_TOL * scale or not np.linalg.cond(_pivot(*pencil)) <= 1e10:
            continue
        ball = matrix_ball(*pencil)
        if ball is None:
            continue
        pencils += 1
        dim = ball.center.shape[0]
        for _ in range(5):
            k0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            k0 *= rng.uniform(0.3, 1.7) / operator_norm(k0)
            xt = ball_sample(ball, k0)
            min_eig, scale = psd_margin(criterion_matrix(pencil, xt))
            if abs(min_eig) <= 10 * PSD_TOL * scale:
                continue
            checked += 1
            inside = operator_norm(k0) <= 1.0
            if (min_eig >= -PSD_TOL * scale) != inside:
                sound_violations += 1
            if min_eig >= -PSD_TOL * scale:
                _, _, norm = ball_membership(ball, xt)
                pullback_worst = max(pullback_worst, norm)
    report(
        "ACCEPT-4 matrix ball two-sided",
        sound_violations == 0 and pullback_worst <= 1.0 + 1e-8,
        f"pencils={pencils}, samples checked={checked}, violations={sound_violations}, "
        f"worst pull-back norm={pullback_worst:.12f}",
    )


def test_criterion_5_criterion_agreement():
    disagreements = 0
    both = 0
    indeterminate_pairs = []
    instances = accept5_instances()

    for idx, d in enumerate(instances):
        rx = search_x_grid(d)
        rl = search_lambda(d, resolution=48)
        if rx.status != "Undetermined" and rl.status != "Undetermined":
            both += 1
            if rx.status != rl.status:
                disagreements += 1
        else:
            indeterminate_pairs.append(idx)

    # retry a few indeterminate pairs on a finer lambda grid
    for idx in indeterminate_pairs[:8]:
        rx = search_x_grid(instances[idx])
        rl = search_lambda(instances[idx], resolution=200)
        if rx.status != "Undetermined" and rl.status != "Undetermined":
            both += 1
            if rx.status != rl.status:
                disagreements += 1

    report(
        "ACCEPT-5 criterion agreement",
        disagreements == 0 and both >= 120,
        f"instances=200, both determinate={both}, disagreements={disagreements}",
    )


def test_criterion_6_documented_gap():
    classical_ok, classical_margin = is_psd(pick_matrix(INFEASIBLE_DATA))
    rx = search_x_grid(INFEASIBLE_DATA)
    scan = necessity_scan(INFEASIBLE_DATA, samples=2000, seed=0)
    ok = (
        classical_ok
        and rx.status == INFEASIBLE
        and rx.grid_stats["uniform_infeasible"]
        and rx.margin < -1e-3
        and scan.status == "WITNESS"
    )
    report(
        "ACCEPT-6 constrained/unconstrained gap",
        ok,
        f"classical min eig={classical_margin:.2e}, grid margin={rx.margin:.4f}, "
        f"witness at sample {scan.witness_index} value={scan.witness_value:.4f}",
    )


def test_criterion_7_end_to_end_construction():
    worst_interp = 0.0
    worst_sup = 0.0
    worst_deriv = 0.0
    solved = 0
    for seed in range(100):
        rng = rng_for(seed)
        data, _ = generate_feasible(seed, int(rng.integers(1, 4)))
        found = search_x_grid(data)
        assert found.status == FEASIBLE, f"seed {seed} not found feasible"
        chain = construct_interpolant(data, complex(found.witness_x[0, 0]))
        result = verify_interpolant(chain, data, tol=1e-7)
        worst_interp = max(worst_interp, max(result.interpolation))
        worst_sup = max(worst_sup, result.sup_norm)
        worst_deriv = max(worst_deriv, abs(derivative_at(chain, 0.0, 1)))
        solved += 1
    ok = (
        solved == 100
        and worst_interp <= 1e-7
        and worst_sup <= 1.0 + 1e-6
        and worst_deriv <= 1e-8
    )
    report(
        "ACCEPT-7 end-to-end construction",
        ok,
        f"solved={solved}, worst residual={worst_interp:.2e}, "
        f"worst sup-norm={worst_sup:.9f}, worst |s'(0)|={worst_deriv:.2e}",
    )


def test_criterion_8_kernel_positivity_and_soundness():
    gram_failures = 0
    for seed in range(100):
        rng = rng_for(8_000_000 + seed)
        lp = int(rng.integers(1, 4))
        l = int(rng.integers(max(1, (lp + 1) // 2), lp + 1))
        p = grassmann_sample(seed, l, lp)
        pts = distinct_nodes(rng, 6, rmin=0.0, rmax=0.9, gap=0.01)
        if not is_psd(kernel_gram(p, pts))[0]:
            gram_failures += 1

    false_witnesses = 0
    for seed in range(50):
        rng = rng_for(seed)
        data, _ = generate_feasible(seed, int(rng.integers(1, 4)))
        if not necessity_scan(data, samples=500, seed=seed).passed:
            false_witnesses += 1
    report(
        "ACCEPT-8 kernel positivity and scan soundness",
        gram_failures == 0 and false_witnesses == 0,
        f"gram failures={gram_failures}/100, false witnesses={false_witnesses}/50",
    )


def test_criterion_9_body_subset_and_realizability():
    z1, w1, z0 = 0.5, 0.3, 0.3
    union = body_union(z1, w1, z0, x_resolution=8, w_resolution=16)
    assert union.xs.size, "parameter sweep produced no disks"
    disks = [Disk(complex(c), float(r)) for c, r in zip(union.centers, union.radii)]

    boundary_failures = 0
    boundary_checked = 0
    for disk in disks:
        for w0 in disk.boundary(12):
            boundary_checked += 1
            if not body_membership(z1, w1, z0, w0).feasible:
                boundary_failures += 1
    # spot-check a few points of a coarser boundary sampling as well
    independent_failures = 0
    step = max(1, len(disks) // 10)
    for disk in disks[::step][:10]:
        w0 = disk.boundary(8)[1]  # 45 degrees, off the 30-degree steps above
        if not body_membership(z1, w1, z0, w0).feasible:
            independent_failures += 1

    rng = rng_for(99)
    realize_failures = 0
    realized = 0
    attempts = 0
    while realized < 50 and attempts < 400:
        attempts += 1
        i = int(rng.integers(0, len(disks)))
        x, disk = complex(union.xs[i]), disks[i]
        if disk.radius <= 0:
            continue
        w0 = disk.center + 0.7 * disk.radius * disk_point(rng, 1.0)
        pair = DataSet.scalar([z1, z0], [w1, w0])
        quad_ok, margin = is_psd(constrained_pick_z2_quadratic(pair, x))
        if not quad_ok or margin < 1e-9:
            continue
        chain = construct_interpolant(pair, complex(x))
        result = verify_interpolant(chain, pair, tol=1e-7)
        realized += 1
        if not result.passed:
            realize_failures += 1
    ok = (
        boundary_failures == 0
        and independent_failures == 0
        and realized == 50
        and realize_failures == 0
    )
    report(
        "ACCEPT-9 body subset and realizability",
        ok,
        f"boundary samples={boundary_checked} (failures={boundary_failures}), "
        f"independent spot checks failed={independent_failures}, "
        f"realized={realized} (failures={realize_failures})",
    )
