import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpick.errors import DomainError, ProblemFileError
from cnpick.feasibility import one_point_disk, search_x_grid
from cnpick.interpolant import (
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
from cnpick.linalg import is_psd
from cnpick.pick import BlaschkeSpec, DataSet, pick_matrix

from conftest import constrained_pick_z2_quadratic, disk_point, rng_for

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
