"""Model data types, derived constants, validation and the JSON schema."""

import copy
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqprice import maps
from eqprice.gen import GenConfig, random_instance
from eqprice.model import (
    AgentCosts,
    FeasibleSet,
    InstanceFormatError,
    ModelInstance,
    NotPositiveDefinite,
    PriceDomain,
    ValidationIssue,
    compute_constants,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    validate_instance,
)
from eqprice.qp import QpProblem
from eqprice.solver import Objective
from conftest import make_combined_1d


def costs_1d(c=1.0, b=1.0, l=1.0, m_floor=2.0) -> AgentCosts:
    return AgentCosts(C=[[c]], B=[[b]], l=[l], M=m_floor)


class TestComputeConstants:
    def test_unit_scalars(self):
        """1x1 forms x^2: modulus 2, Lipschitz 1/2, step defaults to mu_F"""
        k = compute_constants(costs_1d())
        assert k.mu_c == 2.0 and k.mu_t == 2.0
        assert k.mu_F == 1.0
        assert 1.0 / k.mu_c == 0.5 and 1.0 / k.mu_t == 0.5
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
            assert 0.0 < k.eta <= 2.0 * k.mu_F


class TestPriceDomain:
    def test_bad_box_bounds(self):
        with pytest.raises(ValueError):
            PriceDomain.box([1.0], [0.0])

    def test_orthant_refuses_bounds(self):
        with pytest.raises(ValueError):
            PriceDomain(kind="orthant", lower=np.zeros(1), upper=np.ones(1))


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: PriceDomain(kind="simplex"), ValueError, "unknown domain kind 'simplex'",
            id="domain-kind",
        ),
        pytest.param(
            lambda: AgentCosts(C=[[1.0, 0.0]], B=[[1.0]], l=[1.0], M=1.0),
            ValueError, "C must be square", id="C-not-square",
        ),
        pytest.param(
            lambda: compute_constants(costs_1d(b=-1.0)),
            NotPositiveDefinite, r"B has smallest eigenvalue -1\.000e\+00", id="B-indefinite",
        ),
        pytest.param(
            lambda: ModelInstance.build(
                costs_1d(), FeasibleSet(A=[[1.0]], b=[10.0]),
                PriceDomain.box([0.0, 0.0], [1.0, 1.0]), [1.0],
            ),
            ValueError, "box bounds do not match dimension n", id="box-length",
        ),
        pytest.param(
            lambda: QpProblem(Q=[[1.0, 0.0]], q=[0.0], A=[[1.0]], b=[10.0]),
            ValueError, "Q must be square", id="Q-not-square",
        ),
    ],
)
def test_constructors_refuse_inconsistent_data(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


class TestValidateInstance:
    def test_combined_fixture_is_clean(self, combined_1d):
        assert validate_instance(combined_1d) == []

    def test_demand_infeasible_reported(self):
        # With b=1 the whole strategy set has l'x <= 1 < M = 2.
        inst = ModelInstance.build(
            costs_1d(), FeasibleSet(A=[[1.0]], b=[1.0]), PriceDomain.orthant(), [4.0]
        )
        # validate_instance reports errors only, so a finding is one.
        assert [issue.code for issue in validate_instance(inst)] == ["DemandInfeasible"]

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
        # The instance records the projection; validation reports errors only.
        assert inst.p0_projected
        np.testing.assert_allclose(inst.p0, [0.0])
        assert validate_instance(inst) == []

    def test_dimensions_are_read_from_the_data(self, combined_1d):
        inst = combined_1d
        assert (inst.n, inst.m) == (inst.costs.n, inst.feasible.m) == (1, 1)
        assert not {"n", "m"} & {f.name for f in dataclasses.fields(ModelInstance)}

    def test_instance_arrays_are_readonly(self, combined_1d):
        with pytest.raises(ValueError):
            combined_1d.p0[0] = 99.0
        with pytest.raises(ValueError):
            combined_1d.costs.C[0, 0] = 99.0


class TestInnerPrograms:
    """The row layout of the two inner programs, ``prepared = (H, G, h)``."""

    @staticmethod
    def assert_same_bits(got, expected):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.bits
    def test_row_layout_is_pinned(self):
        inst = random_instance(GenConfig(n=10, m=8, seed=42))
        A, b, n, m = inst.feasible.A, inst.feasible.b, inst.n, inst.m
        C, B, l, M = inst.costs.C, inst.costs.B, inst.costs.l, inst.costs.M
        supply, demand = inst.supply_program.prepared, inst.demand_program.prepared
        G = np.vstack([A, -np.eye(n)])
        h = np.concatenate([b, np.zeros(n)])
        for got, expected in zip(supply, (C + C.T, G, h)):
            self.assert_same_bits(got, expected)
        G = np.vstack([A, -l, -np.eye(n)])
        h = np.concatenate([b, [-M], np.zeros(n)])
        for got, expected in zip(demand, (B + B.T, G, h)):
            self.assert_same_bits(got, expected)
        # Row m is the utility row l'x >= M.
        assert demand[1].shape == (m + 1 + n, n)
        self.assert_same_bits(demand[1][m], -l)
        assert demand[2][m] == -M

    @staticmethod
    def without_rows() -> ModelInstance:
        return ModelInstance.build(
            AgentCosts(C=np.eye(2), B=np.eye(2), l=[1.0, 2.0], M=3.0),
            FeasibleSet(A=[], b=[]),
            PriceDomain.orthant(),
            [1.0, 1.0],
        )

    def test_without_rows_the_utility_row_is_the_only_one(self):
        inst = self.without_rows()
        assert inst.feasible.A.shape == (0, 2)
        assert inst.supply_program.A.shape == (0, 2)
        np.testing.assert_array_equal(inst.demand_program.A, [[-1.0, -2.0]])
        np.testing.assert_array_equal(inst.demand_program.b, [-3.0])
        assert validate_instance(inst) == []

    def test_saved_instance_without_rows_keeps_its_programs(self, tmp_path):
        # The saved empty A loads as the 0 x n matrix the built instance holds.
        inst = self.without_rows()
        path = tmp_path / "rowless.json"
        save_instance(path, inst)
        loaded = load_instance(path)
        assert (loaded.n, loaded.m) == (2, 0)
        assert loaded.feasible.A.shape == (0, 2)
        for program in ("supply_program", "demand_program"):
            for got, expected in zip(
                getattr(loaded, program).prepared, getattr(inst, program).prepared
            ):
                self.assert_same_bits(got, expected)


class TestSupplyLipschitz:
    def test_diagonal_costs_meet_derived_constant(self, rng):
        # C diagonal makes the supply map componentwise and its
        # Lipschitz constant 1/mu_c tight.
        inst = ModelInstance.build(
            AgentCosts(C=[[2.0, 0.0], [0.0, 0.5]], B=np.eye(2), l=[1.0, 1.0], M=0.5),
            FeasibleSet(A=[[1.0, 1.0]], b=[50.0]),
            PriceDomain.orthant(),
            [1.0, 1.0],
        )
        ev = maps.ExcessEvaluator(inst)
        L = 1.0 / inst.constants.mu_c
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

    def test_integer_past_the_digit_limit_is_a_format_error(self, combined_1d, tmp_path):
        # json.loads refuses integer literals of over 4,300 digits with a plain
        # ValueError (Python 3.10.7 on; before that, float() overflows).
        doc = instance_to_json(combined_1d)
        doc["M"] = 0
        text = json.dumps(doc).replace('"M": 0', '"M": ' + "9" * 5000)
        path = tmp_path / "instance.json"
        path.write_text(text)
        with pytest.raises(InstanceFormatError, match="4300 digits|key 'M'"):
            load_instance(path)

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
        doc = instance_to_json(combined_1d)
        doc["gen"] = {"seed": 1}
        assert instance_from_json(doc).n == combined_1d.n

    @pytest.mark.parametrize(
        "edit, key",
        [
            ({"M": None}, "'M'"),
            ({"M": [2.0]}, "'M'"),
            ({"M": {"value": 2.0}}, "'M'"),
            ({"domain": {"kind": "box", "lower": ["a"], "upper": [50.0]}}, "'lower'"),
            ({"domain": {"kind": "box", "lower": [0.0], "upper": [float("nan")]}}, "'upper'"),
            ({"domain": {"kind": "box", "lower": [None], "upper": [50.0]}}, "'lower'"),
            ({"domain": {"kind": "box", "lower": None, "upper": [50.0]}}, "'lower'"),
            ({"domain": {"kind": "box", "lower": [60.0], "upper": [50.0]}}, "'lower'"),
            ({"n": 1.5}, "'n'"),
            ({"n": -1}, "'n'"),
            ({"m": 0.5}, "'m'"),
            ({"eta": [1.0]}, "'eta'"),
            ({"eta": True}, "'eta'"),
            ({"eta": "0.5"}, "'eta'"),
            ({"M": "2.0"}, "'M'"),
            ({"n": True}, "'n'"),
            ({"b": ["10"]}, "'b'"),
            ({"p0": [True]}, "'p0'"),
            (
                {
                    "n": 2,
                    "C": [[1.0, 0.0], [0.0, 1.0]],
                    "B": [[1.0, 0.0], [0.0, 1.0]],
                    "l": [1.5, True],
                    "A": [[1.0, 1.0]],
                    "p0": [1.0, 1.0],
                },
                "'l'",
            ),
        ],
        ids=[
            "M-null",
            "M-list",
            "M-object",
            "lower-text",
            "upper-nan",
            "lower-null-entry",
            "lower-null",
            "lower-above-upper",
            "n-fraction",
            "n-negative",
            "m-fraction",
            "eta-list",
            "eta-true",
            "eta-text",
            "M-text",
            "n-true",
            "b-entry-text",
            "p0-entry-bool",
            "l-mixed-bool",
        ],
    )
    def test_malformed_value_is_named(self, combined_1d, edit, key):
        doc = instance_to_json(combined_1d)
        doc.update(edit)
        with pytest.raises(InstanceFormatError, match=key):
            instance_from_json(doc)

    def test_dimension_mismatch_raises_at_build(self):
        with pytest.raises(ValueError):
            ModelInstance.build(
                costs_1d(),
                FeasibleSet(A=[[1.0, 1.0]], b=[10.0]),
                PriceDomain.orthant(),
                [4.0],
            )


class TestSharedRules:
    """A rule that the model and the maps both apply gives one verdict, in one text."""

    @pytest.mark.parametrize(
        "eta_of_mu, warns",
        [
            (lambda mu: 2.0 * mu, False),
            (lambda mu: 2.0 * mu + 1e-13, False),
            (lambda mu: 2.0 * mu + 1e-11, True),
            (lambda mu: 10.0 * mu, True),
        ],
        ids=["2mu", "2mu+1e-13", "2mu+1e-11", "10mu"],
    )
    def test_eta_range_reads_the_same(self, eta_of_mu, warns):
        # The instance's own step and an argument are checked alike.
        base = make_combined_1d()
        eta = eta_of_mu(base.constants.mu_F)
        inst = ModelInstance.build(base.costs, base.feasible, base.domain, base.p0, eta=eta)
        texts = []
        for instance, argument in ((inst, None), (base, eta)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                maps.ExcessEvaluator(instance).map_oracle(eta=argument)
            assert {w.category for w in caught} <= {maps.EtaOutOfRange}
            texts.append([str(w.message) for w in caught])
        assert texts[0] == texts[1]
        assert len(texts[0]) == warns

    @pytest.mark.parametrize(
        "eta, message",
        [
            (0.0, "eta must be positive"),
            (-1.0, "eta must be positive"),
            (np.nan, "eta must be finite"),
            (np.inf, "eta must be finite"),
            (-np.inf, "eta must be finite"),
            (True, "eta is not a number: True"),
            ("0.5", "eta is not a number: '0.5'"),
            (np.array([1.0, 1.0]), "eta has shape (2,), expected ()"),
            (10**400, "eta is not a number: int too large to convert to float"),
        ],
        ids=["zero", "negative", "nan", "inf", "minus-inf", "bool", "string", "array", "huge-int"],
    )
    def test_eta_error_reads_the_same(self, eta, message):
        # The number rule comes first, then finiteness, so NaN and -inf are
        # not reported as nonpositive; build reaches the rule through
        # compute_constants.
        base = make_combined_1d()
        with pytest.raises(ValueError) as built:
            ModelInstance.build(base.costs, base.feasible, base.domain, base.p0, eta=eta)
        with pytest.raises(ValueError) as mapped:
            maps.ExcessEvaluator(base).map_oracle(eta=eta)
        assert str(built.value) == str(mapped.value) == message

    @pytest.mark.parametrize(
        "price",
        [[1.0, 2.0], [np.nan], [np.inf], [True], ["4"], [None], 4.0, [[4.0]], [[]]],
        ids=["length", "nan", "inf", "bool", "string", "none", "scalar", "2-d", "empty-2-d"],
    )
    def test_price_check_reads_the_same(self, price):
        base = make_combined_1d()
        with pytest.raises(ValueError) as built:
            ModelInstance.build(base.costs, base.feasible, base.domain, price)
        with pytest.raises(ValueError) as evaluated:
            maps.ExcessEvaluator(base).supply(price)
        assert str(built.value) == str(evaluated.value)


def _with_first_entry(value, entry):
    if isinstance(value, list):
        return [_with_first_entry(value[0], entry), *value[1:]]
    return entry


class TestOneReader:
    """Every constructor reads its arrays through ``qp.as_floats``: a bool, a
    string, ``None``, NaN or a wrong shape is a ValueError naming the field."""

    # name in the message, a good value, and the constructor fed that value;
    # ModelInstance names its p0 as the evaluator names a price
    BUILDERS = {
        "AgentCosts": ("B", [[1.0]], lambda v: AgentCosts(C=[[1.0]], B=v, l=[1.0], M=2.0)),
        "FeasibleSet": ("b", [10.0], lambda v: FeasibleSet(A=[[1.0]], b=v)),
        "PriceDomain.box": ("upper", [50.0], lambda v: PriceDomain.box([0.0], v)),
        "QpProblem": ("q", [0.0], lambda v: QpProblem(Q=[[1.0]], q=v, A=[[1.0]], b=[10.0])),
        "ModelInstance.build": (
            "price vector",
            [4.0],
            lambda v: ModelInstance.build(
                costs_1d(), FeasibleSet(A=[[1.0]], b=[10.0]), PriceDomain.orthant(), v
            ),
        ),
        "Objective": ("anchor p0", [4.0], lambda v: Objective(p0=v)),
    }
    BAD = {
        "bool": lambda good: _with_first_entry(good, True),
        "text": lambda good: _with_first_entry(good, "1"),
        "none": lambda good: _with_first_entry(good, None),
        "nan": lambda good: _with_first_entry(good, float("nan")),
        "shape": lambda good: [good],
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_bad_entry_or_shape_names_the_field(self, builder, bad):
        name, good, build = self.BUILDERS[builder]
        build(good)
        with pytest.raises(ValueError, match=f"^{name} "):
            build(self.BAD[bad](good))


_VALID_DOC = instance_to_json(random_instance(GenConfig(n=5, m=3, seed=11)))
# Magnitudes past what HiGHS (1e15 in a matrix, 1e20 in a bound) or float()
# accept, and non-finite numbers.
_EXTREMES = [1e25, 10**400, -1e25, 1e15, 1e300, np.nan, np.inf, -np.inf]
_ARRAYS = ["A", "B", "C", "b", "l", "p0"]
_NUMERIC_KEYS = ["n", "m", "C", "B", "l", "M", "A", "b", "p0", "eta"]
_ODD_VALUES = st.one_of(
    st.sampled_from(_EXTREMES),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 6),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=2),
        st.sampled_from(["1.5", "10", "-2", "1e3"]),
        st.lists(st.floats(-10.0, 10.0), max_size=6),
        st.lists(st.lists(st.floats(-10.0, 10.0), max_size=6), max_size=6),
        st.fixed_dictionaries({"kind": st.sampled_from(["orthant", "box", "simplex"])}),
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_loader_and_validation_raise_only_instance_format_errors(data):
    """Mutations of a valid 5/3 document: one entry of an array replaced, or
    a key replaced or dropped.  Loading raises InstanceFormatError or
    builds an instance, whose validation returns findings; a document that
    loads holds only ints and floats, never a bool, where numbers belong."""
    doc = copy.deepcopy(_VALID_DOC)
    for _ in range(data.draw(st.integers(1, 2))):
        action = data.draw(st.sampled_from(["entry", "entry", "replace", "drop"]))
        keys = _ARRAYS if action == "entry" else sorted(_VALID_DOC)
        key = data.draw(st.sampled_from([k for k in keys if k in doc] or ["n"]))
        if action == "drop":
            doc.pop(key, None)
        elif action == "replace" or not isinstance(doc[key], list) or not doc[key]:
            doc[key] = data.draw(_ODD_VALUES)
        else:
            row = doc[key]
            i = data.draw(st.integers(0, len(row) - 1))
            if isinstance(row[i], list) and row[i]:
                row, i = row[i], data.draw(st.integers(0, len(row[i]) - 1))
            row[i] = data.draw(_ODD_VALUES)
    try:
        instance = instance_from_json(doc)
    except InstanceFormatError:
        return
    numbers = [doc[key] for key in _NUMERIC_KEYS if doc.get(key) is not None]
    if doc["domain"]["kind"] == "box":
        numbers += [doc["domain"]["lower"], doc["domain"]["upper"]]
    while numbers:
        value = numbers.pop()
        if isinstance(value, list):
            numbers += value
        else:
            assert type(value) in (int, float), value
    assert all(isinstance(issue, ValidationIssue) for issue in validate_instance(instance))
