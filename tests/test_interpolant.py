import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpick.errors import DomainError, ProblemFileError
from cnpick.feasibility import one_point_disk, search_x_grid
from cnpick.interpolant import (
    CAUCHY_NODES,
    SUP_NORM_SAMPLES,
    SchurChain,
    assemble_constrained,
    chain_eval,
    chain_from_json,
    chain_to_json,
    construct_interpolant,
    derivative_at,
    generate_feasible,
    np_central_solve,
    schur_reduce_constrained,
    verify_interpolant,
)
from cnpick.linalg import is_psd, psd_margin
from cnpick.pick import BlaschkeSpec, DataSet, pick_matrix

from conftest import (
    chain_eval_oracle,
    constrained_pick_z2_quadratic,
    disk_point,
    matrix_feasible,
    rng_for,
    verify_oracle,
)

NAN = complex(float("nan"), 0.0)
SHORT_CHAIN = SchurChain(steps=((0.2, 0.3),), tail=0.1)


class TestChainEval:
    def test_zero_chain(self):
        chain = SchurChain(steps=(), tail=0.0)
        assert chain_eval(chain, 0.3 + 0.2j) == 0.0

    def test_constant_chain(self):
        chain = SchurChain(steps=(), tail=0.4 - 0.1j)
        assert chain_eval(chain, 0.5) == 0.4 - 0.1j

    def test_vectorized(self):
        chain = SchurChain(steps=((0.2, 0.3),), tail=0.1)
        z = np.array([0.0, 0.5j, -0.4])
        vals = chain_eval(chain, z)
        assert vals.shape == (3,)
        assert vals[0] == chain_eval(chain, 0.0)

    def test_rejects_boundary_points(self):
        with pytest.raises(DomainError):
            chain_eval(SchurChain(steps=(), tail=0.0), 1.0)

    def test_step_validation(self):
        with pytest.raises(DomainError):
            SchurChain(steps=((1.0, 0.0),), tail=0.0)
        with pytest.raises(DomainError):
            SchurChain(steps=(), tail=1.5)

    @pytest.mark.parametrize(
        "steps, tail",
        [(((NAN, 0.3),), 0.0), (((0.2, NAN),), 0.0), ((), NAN)],
        ids=["node", "value", "tail"],
    )
    def test_step_validation_rejects_nan(self, steps, tail):
        with pytest.raises(DomainError, match="finite"):
            SchurChain(steps=steps, tail=tail)

    @pytest.mark.parametrize(
        "function, args",
        [
            (chain_eval, (SHORT_CHAIN, [NAN, 0.1])),
            (schur_reduce_constrained, (DataSet.scalar([0.5], [0.3]), NAN)),
            (assemble_constrained, (SHORT_CHAIN, NAN)),
            (derivative_at, (SHORT_CHAIN, NAN)),
        ],
        ids=["chain_eval", "schur_reduce_constrained", "assemble_constrained", "derivative_at"],
    )
    def test_nan_point_refused(self, function, args):
        with pytest.raises(DomainError, match="finite"):
            function(*args)

    @pytest.mark.parametrize("seed", range(10))
    def test_norm_bound_random_chains(self, seed):
        rng = rng_for(seed)
        steps = tuple(
            (disk_point(rng, 0.9), disk_point(rng, 0.95)) for _ in range(int(rng.integers(0, 5)))
        )
        chain = SchurChain(steps=steps, tail=disk_point(rng, 1.0))
        z = 0.999 * np.sqrt(rng.uniform(size=1000)) * np.exp(2j * np.pi * rng.uniform(size=1000))
        assert np.max(np.abs(chain_eval(chain, z))) <= 1.0 + 1e-12


class TestReduction:
    def test_zero_target_zero_parameter(self):
        reduced = schur_reduce_constrained(DataSet.scalar([0.5], [0.0]), 0.0)
        assert reduced.scalar_values()[0] == 0.0

    def test_documented_fixture(self):
        reduced = schur_reduce_constrained(DataSet.scalar([0.5], [0.5]), 0.476190)
        assert reduced.scalar_values()[0] == pytest.approx(0.125, abs=1e-5)

    def test_constant_witness_reduces_to_zero(self):
        reduced = schur_reduce_constrained(DataSet.scalar([0.5], [0.3]), 0.3)
        assert reduced.scalar_values()[0] == 0.0

    def test_rejects_origin_node(self):
        with pytest.raises(DomainError):
            schur_reduce_constrained(DataSet.scalar([0.0], [0.0]), 0.0)

    @pytest.mark.parametrize("seed", range(300))
    def test_psd_equivalence_with_anchored_pick(self, seed):
        rng = rng_for(700_000 + seed)
        n = int(rng.integers(1, 4))
        from conftest import distinct_nodes

        nodes = distinct_nodes(rng, n)
        values = np.array([disk_point(rng, 0.9) for _ in range(n)])
        d = DataSet.scalar(nodes, values)
        x = disk_point(rng, 0.9)
        reduced = schur_reduce_constrained(d, x)
        lhs, m1 = is_psd(pick_matrix(reduced))
        rhs, m2 = is_psd(constrained_pick_z2_quadratic(d, x))
        if min(abs(m1), abs(m2)) > 1e-8:
            assert lhs == rhs


class TestCentralSolve:
    def test_single_zero_condition(self):
        chain = np_central_solve(DataSet.scalar([0.5], [0.0]))
        z = np.linspace(-0.9, 0.9, 11)
        assert np.allclose(chain_eval(chain, z), 0.0)

    def test_single_condition_value(self):
        chain = np_central_solve(DataSet.scalar([0.5], [0.5]))
        assert chain_eval(chain, 0.5) == pytest.approx(0.5)
        ring = 0.999 * np.exp(2j * np.pi * np.arange(1024) / 1024)
        assert np.max(np.abs(chain_eval(chain, ring))) <= 1.0 + 1e-12

    def test_two_conditions(self):
        d = DataSet.scalar([0.5, -0.3], [0.2, -0.1])
        assert is_psd(pick_matrix(d))[0]
        chain = np_central_solve(d)
        vals = chain_eval(chain, d.nodes)
        assert np.max(np.abs(vals - d.scalar_values())) <= 1e-10

    def test_refuses_boundary_data(self):
        # pseudo-hyperbolically incompatible targets blow up mid-algorithm
        with pytest.raises(DomainError, match="refuses|circle"):
            np_central_solve(DataSet.scalar([0.3, 0.31], [0.9, -0.9]))

    def test_refusal_names_the_smallest_pick_eigenvalue(self):
        # Values of s(z) = z^3 at x = 0: the reduced targets are the nodes, whose Pick matrix is singular.
        nodes = np.array([0.5, -0.4 + 0.2j, 0.3j])
        with pytest.raises(DomainError, match=r"^intermediate target") as err:
            construct_interpolant(DataSet.scalar(nodes, nodes**3), 0.0)
        match = re.search(r"smallest eigenvalue (\S+) \(scale (\S+)\)", str(err.value))
        min_eig, _ = psd_margin(pick_matrix(DataSet.scalar(nodes, nodes)))
        assert float(match.group(1)) == pytest.approx(min_eig, rel=1e-3, abs=1e-15)
        assert abs(float(match.group(1))) <= 1e-14 * float(match.group(2))
        assert "boundary-solvable" not in str(err.value)

    def test_unimodular_target_refused(self):
        with pytest.raises(DomainError):
            np_central_solve(DataSet.scalar([0.5], [1.0]))


class TestAssemble:
    def test_zero_inner_gives_constant(self):
        s = assemble_constrained(SchurChain(steps=(), tail=0.0), 0.3 - 0.2j)
        z = np.array([0.1, -0.5j, 0.7])
        assert np.allclose(chain_eval(s, z), 0.3 - 0.2j)

    def test_zero_data_solution(self):
        inner = np_central_solve(DataSet.scalar([0.5], [0.0]))
        s = assemble_constrained(inner, 0.0)
        assert abs(chain_eval(s, 0.5)) <= 1e-12

    def test_documented_arithmetic(self):
        x = 0.476190
        inner = SchurChain(steps=(), tail=0.125)
        s = assemble_constrained(inner, x)
        expected = (0.25 * 0.125 + x) / (1 + x * 0.25 * 0.125)
        assert chain_eval(s, 0.5) == pytest.approx(expected)
        assert expected == pytest.approx(0.5, abs=2e-6)

    def test_origin_value_and_derivative(self):
        s = construct_interpolant(DataSet.scalar([0.5], [0.5]), 0.476190)
        assert chain_eval(s, 0.0) == pytest.approx(0.476190)
        assert abs(derivative_at(s, 0.0, 1)) <= 1e-9


class TestDerivative:
    def test_constant_chain_derivatives_vanish(self):
        chain = SchurChain(steps=(), tail=0.3)
        for order in (1, 2, 3, 4):
            assert abs(derivative_at(chain, 0.1 + 0.1j, order)) <= 1e-10

    def test_identity_like_derivative(self):
        value = derivative_at(lambda z: z, 0.0, 1)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_square_second_derivative(self):
        value = derivative_at(lambda z: z**2, 0.0, 2)
        assert value == pytest.approx(2.0, abs=1e-10)

    def test_shrinks_near_boundary(self):
        chain = SchurChain(steps=(), tail=0.2)
        assert abs(derivative_at(chain, 0.95, 1)) <= 1e-10

    def test_order_cap(self):
        with pytest.raises(DomainError):
            derivative_at(SchurChain(steps=(), tail=0.0), 0.0, 5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"nodes": 0}, "nodes must be a positive integer"),
            ({"nodes": -3}, "nodes must be a positive integer"),  # gave 0j for d/dz z^2 at 0.1
            ({"nodes": 64.0}, "nodes must be a positive integer"),
            ({"order": 1.5}, "order must be an integer"),
            ({"order": -1}, "order must be an integer"),
        ],
        ids=["nodes-zero", "nodes-negative", "nodes-float", "order-fraction", "order-negative"],
    )
    def test_refuses_bad_arguments(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            derivative_at(lambda z: z**2, 0.1, **kwargs)

    def test_other_node_counts(self):
        assert derivative_at(lambda z: z**2, 0.1, nodes=np.int64(16)) == pytest.approx(0.2, abs=1e-12)
        assert derivative_at(lambda z: z**3, 0.1, order=2, nodes=8) == pytest.approx(0.6, abs=1e-12)


class TestVerify:
    def test_constant_on_constant_data(self):
        d = DataSet.scalar([0.3, -0.4], [0.25, 0.25])
        report = verify_interpolant(SchurChain(steps=(), tail=0.25), d)
        assert report.passed and report.worst() <= 1e-12

    def test_assembled_solution_passes(self):
        d = DataSet.scalar([0.5], [0.5])
        s = construct_interpolant(d, 0.476190)
        report = verify_interpolant(s, d, tol=1e-7)
        assert report.passed
        assert report.sup_norm <= 1 + 1e-6

    def test_parametrization_freedom(self):
        # replacing the central tail keeps the interpolation conditions
        d = DataSet.scalar([0.5], [0.5])
        x = complex(one_point_disk(0.5, 0.5).center)
        inner = np_central_solve(schur_reduce_constrained(d, x))
        other = SchurChain(steps=inner.steps, tail=0.5)
        report = verify_interpolant(assemble_constrained(other, x), d, tol=1e-7)
        assert report.passed

    def test_tampered_chain_fails(self):
        d = DataSet.scalar([0.5], [0.5])
        s = construct_interpolant(d, 0.476190)
        steps = list(s.steps)
        zeta, v = steps[-1]
        steps[-1] = (zeta, v + 0.1)
        report = verify_interpolant(SchurChain(steps=tuple(steps), tail=s.tail), d)
        assert not report.passed
        assert report.interpolation[0] > 1e-3

    def test_general_blaschke_jets(self):
        # chain built for the origin constraint fails a different constraint
        d = DataSet.scalar([0.5], [0.5])
        s = construct_interpolant(d, 0.476190)
        b = BlaschkeSpec(np.array([0.4]), np.array([2]))
        report = verify_interpolant(s, d, b)
        assert not report.passed  # jet at 0.4 does not vanish

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1e-7])
    def test_rejects_bad_tolerance(self, tol):
        # An infinite tolerance would pass the constant 0.9 on data it misses.
        d = DataSet.scalar([0.5, -0.5], [0.4, 0.1 - 0.2j])
        with pytest.raises(DomainError, match="finite and nonnegative"):
            verify_interpolant(SchurChain(steps=((0.0, 0.9),), tail=0.0), d, tol=tol)

    def test_matrix_callable_path(self):
        d = DataSet(np.array([0.4]), (0.2 * np.eye(2)).reshape(1, 2, 2))
        report = verify_interpolant(lambda z: 0.2 * np.eye(2) * np.ones_like(np.asarray(z))[..., None, None], d)
        assert report.passed

    @pytest.mark.parametrize(
        "fn, k, got",
        [
            (lambda z: 0.3, 1, r"\(\)"),  # a constant, not one value per point
            (lambda z: np.zeros(3, dtype=complex), 1, r"\(3,\)"),
            (lambda z: np.zeros((np.size(z), 2, 2)), 1, r"\(\d+, 2, 2\)"),
            (lambda z: 0.1 * np.asarray(z), 2, r"\(\d+,\)"),  # scalar values for 2x2 data
        ],
        ids=["constant", "wrong-length", "matrix-for-scalar-data", "scalar-for-matrix-data"],
    )
    def test_refuses_wrongly_shaped_callable(self, fn, k, got):
        d = DataSet(np.array([0.3, -0.4]), np.zeros((2, k, k)))
        points = d.n + 1 + CAUCHY_NODES + SUP_NORM_SAMPLES
        expected = rf"\({points},\) or \({points}, 1, 1\)" if k == 1 else rf"\({points}, 2, 2\)"
        with pytest.raises(DomainError, match=rf"shape {got}, expected {expected}$"):
            verify_interpolant(fn, d)


def _central_chain(seed, n):
    data, certificate = generate_feasible(seed, n)
    return data, construct_interpolant(data, certificate.steps[0][1])


class TestOnePassVerify:
    """The one-pass ``verify_interpolant`` and ``chain_eval`` against their per-point oracles."""

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_report_matches_oracle(self, seed, n):
        data, certificate = generate_feasible(seed, n)
        for chain in (certificate, _central_chain(seed, n)[1]):
            got, want = verify_interpolant(chain, data), verify_oracle(chain, data)
            assert (got.sup_norm, got.jets, got.coupling, got.passed) == (
                want.sup_norm, want.jets, want.coupling, want.passed
            )
            assert got.interpolation == pytest.approx(want.interpolation, rel=0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_callable_matches_oracle(self, seed):
        rng = rng_for(seed)
        c, dd = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        c *= 0.3 / np.linalg.norm(c, 2)
        dd *= 0.5 / np.linalg.norm(dd, 2)
        data = matrix_feasible(seed, 2, 3)

        def candidate(z):  # C + z^2 D for fresh C, D: fails interpolation, passes the rest
            return c + np.asarray(z)[..., None, None] ** 2 * dd

        got, want = verify_interpolant(candidate, data), verify_oracle(candidate, data)
        assert (got.sup_norm, got.jets, got.coupling, got.passed) == (
            want.sup_norm, want.jets, want.coupling, want.passed
        )
        assert got.interpolation == pytest.approx(want.interpolation, rel=0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_chain_eval_bits_match_full_step_loop(self, n):
        data, chain = _central_chain(7, n)
        assert chain.steps[0][0] == 0 and chain.steps[1] == (0, 0)  # the two origin steps
        # Every kind of step: at the origin with value 0 or not, off the origin with value 0 or not.
        mixed = SchurChain(steps=((0.3 + 0.1j, 0.0), (0.0, 0.4 - 0.2j), (0.2j, 0.1), (0.0, 0.0)), tail=0.2)
        rng = rng_for(n)
        z = 0.999 * np.sqrt(rng.uniform(size=500)) * np.exp(2j * np.pi * rng.uniform(size=500))
        for c, points in ((chain, z), (chain, data.nodes), (mixed, z)):
            assert chain_eval(c, points).tobytes() == chain_eval_oracle(c, points).tobytes()

    @pytest.mark.parametrize("n", [1, 8])
    def test_one_evaluation_per_verification(self, chain_eval_calls, n):
        data, chain = _central_chain(3, n)
        chain_eval_calls.clear()  # generate_feasible's own call
        verify_interpolant(chain, data)
        assert chain_eval_calls == [(n + 1 + CAUCHY_NODES + SUP_NORM_SAMPLES,)]
        calls = []
        verify_interpolant(lambda z: calls.append(np.shape(z)) or chain_eval_oracle(chain, z), data)
        assert calls == chain_eval_calls  # the callable is called once, chain_eval not at all

    def test_one_ring_per_zero_under_a_general_constraint(self, chain_eval_calls):
        data, chain = _central_chain(3, 3)
        b = BlaschkeSpec(np.array([0.0, 0.4j, -0.3]), np.array([3, 1, 2]))
        chain_eval_calls.clear()
        report = verify_interpolant(chain, data, b)
        assert chain_eval_calls == [(3 + 3 + 2 * CAUCHY_NODES + SUP_NORM_SAMPLES,)]
        assert [len(js) for js in report.jets] == [2, 0, 1]
        oracle = verify_oracle(chain, data, b)
        assert (report.jets, report.sup_norm) == (oracle.jets, oracle.sup_norm)
        assert report.coupling == pytest.approx(oracle.coupling, rel=0, abs=1e-15)


class TestGenerator:
    @pytest.mark.parametrize("seed", range(20))
    def test_instances_are_feasible(self, seed):
        rng = rng_for(seed)
        data, certificate = generate_feasible(seed, int(rng.integers(1, 4)))
        x = chain_eval(certificate, 1e-12)  # value at (essentially) the origin
        ok, _ = is_psd(constrained_pick_z2_quadratic(data, x))
        assert ok
        report = verify_interpolant(certificate, data, tol=1e-9)
        assert report.passed

    def test_deterministic(self):
        a, _ = generate_feasible(11, 3)
        b, _ = generate_feasible(11, 3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed", range(30))
    def test_round_trip(self, seed):
        rng = rng_for(seed)
        data, _ = generate_feasible(seed, int(rng.integers(1, 4)))
        found = search_x_grid(data)
        assert found.status == "Feasible"
        chain = construct_interpolant(data, complex(found.witness_x[0, 0]))
        report = verify_interpolant(chain, data, tol=1e-7)
        assert report.passed
        assert abs(derivative_at(chain, 0.0, 1)) <= 1e-8


class TestSerialization:
    def test_round_trip(self):
        chain = SchurChain(steps=((0.1 + 0.2j, -0.3j), (0.0, 0.5)), tail=0.25 - 0.1j)
        back = chain_from_json(chain_to_json(chain))
        assert back == chain

    def test_rejects_malformed(self):
        with pytest.raises(ProblemFileError):
            chain_from_json({"steps": [[0.1, 0.2]], "tail": [0, 0]})
        with pytest.raises(ProblemFileError):
            chain_from_json({"steps": [], "tail": [2.0, 0.0]})


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=0.998),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_chain_eval_contraction_property(seed, radius, angle):
    rng = rng_for(seed)
    steps = tuple((disk_point(rng, 0.9), disk_point(rng, 0.9)) for _ in range(3))
    chain = SchurChain(steps=steps, tail=disk_point(rng, 0.999))
    z = radius * np.exp(1j * angle)
    assert abs(chain_eval(chain, z)) <= 1.0 + 1e-12
