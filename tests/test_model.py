"""Model data types, derived constants, validation and the JSON schema."""

import json

import numpy as np
import pytest

from eqprice import maps
from eqprice.model import (
    AgentCosts,
    FeasibleSet,
    InstanceFormatError,
    ModelInstance,
    NotPositiveDefinite,
    PriceDomain,
    compute_constants,
    instance_from_json,
    instance_to_json,
    validate_instance,
)
from conftest import make_combined_1d


def costs_1d(c=1.0, b=1.0, l=1.0, m_floor=2.0) -> AgentCosts:
    return AgentCosts(C=[[c]], B=[[b]], l=[l], M=m_floor)


class TestComputeConstants:
    def test_unit_scalars(self):
        """1x1 forms x^2: modulus 2, Lipschitz 1/2, step defaults to mu_F"""
        k = compute_constants(costs_1d())
        assert k.mu_c == 2.0 and k.mu_t == 2.0
        assert k.mu_F == 1.0
        assert k.L_c == 0.5 and k.L_t == 0.5
        assert k.eta == 1.0

    def test_scaled_identity(self):
        k = compute_constants(AgentCosts(C=2 * np.eye(2), B=2 * np.eye(2), l=[1, 1], M=1.0))
        assert k.mu_c == 4.0 and k.mu_t == 4.0 and k.mu_F == 2.0

    def test_diagonal_min_eigenvalue(self):
        k = compute_constants(
            AgentCosts(C=[[2.0, 0.0], [0.0, 0.5]], B=np.eye(2), l=[1, 1], M=1.0)
        )
        assert np.isclose(k.mu_c, 1.0)
        assert np.isclose(k.mu_t, 2.0)
        assert np.isclose(k.mu_F, 0.5)

    def test_eta_override(self):
        k = compute_constants(costs_1d(), eta=0.5)
        assert k.eta == 0.5

    def test_rejects_tiny_eigenvalue(self):
        with pytest.raises(NotPositiveDefinite):
            compute_constants(costs_1d(c=1e-13))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            compute_constants(AgentCosts(C=[[-1.0]], B=[[1.0]], l=[1.0], M=1.0))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            compute_constants(
                AgentCosts(C=[[1.0, 0.5], [0.0, 1.0]], B=np.eye(2), l=[1, 1], M=1.0)
            )

    def test_relations_hold_on_random_pairs(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            f1 = rng.uniform(-3, 3, (n, n))
            f2 = rng.uniform(-3, 3, (n, n))
            C = f1.T @ f1 + 0.1 * np.eye(n)
            B = f2.T @ f2 + 0.1 * np.eye(n)
            k = compute_constants(AgentCosts(C=C, B=B, l=np.ones(n), M=1.0))
            assert abs(k.mu_F - 0.5 * min(k.mu_c, k.mu_t)) <= 1e-12
            assert abs(k.L_c * k.mu_c - 1.0) <= 1e-12
            assert abs(k.L_t * k.mu_t - 1.0) <= 1e-12
            assert 0.0 < k.eta <= 2.0 * k.mu_F


class TestPriceDomain:
    def test_orthant_projection(self):
        dom = PriceDomain.orthant()
        np.testing.assert_allclose(dom.project([1.0, -2.0]), [1.0, 0.0])

    def test_box_projection(self):
        dom = PriceDomain.box([0.0, 0.0], [10.0, 10.0])
        np.testing.assert_allclose(dom.project([12.0, 5.0]), [10.0, 5.0])

    def test_bad_box_bounds(self):
        with pytest.raises(ValueError):
            PriceDomain.box([1.0], [0.0])

    def test_orthant_refuses_bounds(self):
        with pytest.raises(ValueError):
            PriceDomain(kind="orthant", lower=np.zeros(1), upper=np.ones(1))


class TestValidateInstance:
    def test_combined_fixture_is_clean(self, combined_1d):
        assert validate_instance(combined_1d) == []

    def test_demand_infeasible_reported(self):
        # With b=1 the whole strategy set has l'x <= 1 < M = 2.
        inst = ModelInstance.build(
            costs_1d(), FeasibleSet(A=[[1.0]], b=[1.0]), PriceDomain.orthant(), [4.0]
        )
        report = validate_instance(inst)
        assert any(issue.code == "DemandInfeasible" for issue in report)
        assert any(i.severity == "error" for i in report)

    def test_empty_feasible_set_reported(self):
        inst = ModelInstance.build(
            costs_1d(), FeasibleSet(A=[[1.0]], b=[-1.0]), PriceDomain.orthant(), [4.0]
        )
        report = validate_instance(inst)
        assert any(issue.code == "EmptyFeasibleSet" for issue in report)

    def test_p0_projected_is_warning_not_error(self):
        inst = ModelInstance.build(
            costs_1d(), FeasibleSet(A=[[1.0]], b=[10.0]), PriceDomain.orthant(), [-5.0]
        )
        assert inst.p0_projected
        np.testing.assert_allclose(inst.p0, [0.0])
        report = validate_instance(inst)
        assert any(issue.code == "P0Projected" for issue in report)
        assert not any(i.severity == "error" for i in report)

    def test_instance_arrays_are_readonly(self, combined_1d):
        with pytest.raises(ValueError):
            combined_1d.p0[0] = 99.0
        with pytest.raises(ValueError):
            combined_1d.costs.C[0, 0] = 99.0


class TestSupplyLipschitz:
    def test_diagonal_costs_meet_derived_constant(self, rng):
        # C diagonal makes the supply map componentwise and the constant
        # L_c = 1/mu_c tight.
        inst = ModelInstance.build(
            AgentCosts(C=[[2.0, 0.0], [0.0, 0.5]], B=np.eye(2), l=[1.0, 1.0], M=0.5),
            FeasibleSet(A=[[1.0, 1.0]], b=[50.0]),
            PriceDomain.orthant(),
            [1.0, 1.0],
        )
        ev = maps.ExcessEvaluator(inst)
        L = inst.constants.L_c
        for _ in range(100):
            p1 = rng.uniform(0, 30, size=2)
            p2 = rng.uniform(0, 30, size=2)
            s1, s2 = ev.supply(p1), ev.supply(p2)
            assert np.linalg.norm(s1 - s2) <= L * np.linalg.norm(p1 - p2) + 1e-6


class TestJsonSchema:
    def test_round_trip(self, combined_1d):
        doc = instance_to_json(combined_1d)
        again = instance_from_json(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(again.costs.C, combined_1d.costs.C)
        np.testing.assert_array_equal(again.p0, combined_1d.p0)
        assert again.constants == combined_1d.constants
        assert again.domain.kind == combined_1d.domain.kind

    def test_box_round_trip(self):
        inst = ModelInstance.build(
            costs_1d(),
            FeasibleSet(A=[[1.0]], b=[10.0]),
            PriceDomain.box([0.0], [50.0]),
            [4.0],
        )
        again = instance_from_json(instance_to_json(inst))
        np.testing.assert_array_equal(again.domain.lower, [0.0])
        np.testing.assert_array_equal(again.domain.upper, [50.0])

    def test_missing_key_is_named(self, combined_1d):
        doc = instance_to_json(combined_1d)
        del doc["C"]
        with pytest.raises(InstanceFormatError, match="'C'"):
            instance_from_json(doc)

    def test_wrong_shape_is_named(self, combined_1d):
        doc = instance_to_json(combined_1d)
        doc["A"] = [[1.0, 2.0]]
        with pytest.raises(InstanceFormatError, match="'A'"):
            instance_from_json(doc)

    def test_unknown_domain_kind(self, combined_1d):
        doc = instance_to_json(combined_1d)
        doc["domain"] = {"kind": "simplex"}
        with pytest.raises(InstanceFormatError, match="simplex"):
            instance_from_json(doc)

    def test_non_finite_entries_rejected(self, combined_1d):
        doc = instance_to_json(combined_1d)
        doc["C"] = [[float("nan")]]
        with pytest.raises(InstanceFormatError, match="finite"):
            instance_from_json(doc)

    def test_gen_block_is_tolerated(self, combined_1d):
        doc = instance_to_json(combined_1d, gen={"seed": 1})
        assert instance_from_json(doc).n == combined_1d.n

    def test_dimension_mismatch_raises_at_build(self):
        with pytest.raises(ValueError):
            ModelInstance.build(
                costs_1d(),
                FeasibleSet(A=[[1.0, 1.0]], b=[10.0]),
                PriceDomain.orthant(),
                [4.0],
            )
