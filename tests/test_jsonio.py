import json

import numpy as np
import pytest

from banalg.algebra import Algebra, validate
from banalg.constructions import direct_sum, finite_abelian_group_algebra, lau_product
from banalg.errors import SchemaError
from banalg.jsonio import (
    algebra_from_dict,
    algebra_to_dict,
    bundle_from_dict,
    bundle_to_dict,
    fmt_float,
    morphism_from_dict,
    morphism_to_dict,
    render_json,
    sigma_from_dict,
)

from conftest import diagonal_algebra, lau_c_c2, pointwise_semidirect, sigma_to_dict


def test_algebra_round_trip(c2):
    doc = algebra_to_dict(c2)
    back = algebra_from_dict(doc)
    assert back.dim == 2
    assert np.array_equal(back.weights, c2.weights)
    assert np.array_equal(back.structure, c2.structure)
    assert np.array_equal(back.unit, c2.unit)


def test_round_trip_is_bit_exact_through_text():
    alg = diagonal_algebra(3, weights=[0.1, 1 / 3, 2.718281828459045])
    text = render_json(algebra_to_dict(alg))
    back = algebra_from_dict(json.loads(text))
    assert np.array_equal(back.weights, alg.weights)  # bit-exact, not approx
    assert np.array_equal(back.structure, alg.structure)


def test_fmt_float_17_digits():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(1 / 3)) == 1 / 3
    with pytest.raises(ValueError):
        fmt_float(float("nan"))


def test_fmt_float_has_no_negative_zero():
    assert fmt_float(-0.0) == fmt_float(0.0) == "0"
    assert fmt_float(-1e-300) == "-1e-300"


def test_render_json_deterministic_sorted_keys():
    doc = {"b": 1, "a": [1.5, {"z": True, "y": None}]}
    assert render_json(doc) == render_json({"a": [1.5, {"y": None, "z": True}], "b": 1})


def test_schema_negative_weight():
    doc = {"name": "x", "dim": 1, "weights": [-1.0], "structure": []}
    with pytest.raises(SchemaError, match="weights"):
        algebra_from_dict(doc)


def test_schema_violations_enumerated():
    doc = {"name": "x", "dim": 2, "weights": [1.0, 2.0],
           "structure": [[0, 0, 9, 1, 0], [5, 0, 0, 1, 0], "junk"]}
    with pytest.raises(SchemaError) as err:
        algebra_from_dict(doc)
    assert len(err.value.violations) == 3


def test_schema_missing_fields():
    with pytest.raises(SchemaError) as err:
        algebra_from_dict({"name": "x"})
    assert any("dim" in v for v in err.value.violations)
    assert any("weights" in v for v in err.value.violations)


def test_morphism_round_trip(c2):
    A = diagonal_algebra(1, "A")
    phi = np.array([[1.0, 2.0 - 1.0j]])
    doc = morphism_to_dict(phi, c2, A)
    assert (doc["source"], doc["target"]) == (c2.name, A.name)
    back = morphism_from_dict(doc, c2, A)
    assert np.array_equal(back, phi)


def test_sigma_round_trip():
    values = np.array([1 + 2j, -0.25, 3j])
    back = sigma_from_dict(sigma_to_dict(values))
    assert np.array_equal(back, values)
    with pytest.raises(SchemaError):
        sigma_from_dict({"values": [[1, 0]]}, expected_len=2)


def round_trip(desc):
    """The bundle of desc rebuilt from its rendered text, checked bit for bit."""
    back = bundle_from_dict(json.loads(render_json(bundle_to_dict(desc))))
    assert back.contractive == desc.contractive
    assert np.array_equal(back.algebra.structure, desc.algebra.structure)
    assert np.array_equal(back.algebra.weights, desc.algebra.weights)
    return back


def forced_lau():
    """l1(Z2) with weights (1, 3), times C along b -> (d0 + d1)/2: ||phi|| = 2,
    and d0 (0, b) = ((d0 + d1)/2, 0) has norm 2 > ||d0|| ||b||, so only force
    admits it."""
    A = finite_abelian_group_algebra([2], name="Z2w")
    A = Algebra(A.name, np.array([1.0, 3.0]), A.structure, unit=A.unit)
    B = diagonal_algebra(1, "B")
    return lau_product(A, B, np.array([[0.5], [0.5]], dtype=complex), force=True)


def test_bundle_round_trip_lau():
    desc = lau_c_c2()
    back = round_trip(desc)
    assert back.kind == "lau"
    assert np.array_equal(back.phi, desc.phi)


def test_bundle_round_trip_semidirect():
    back = round_trip(pointwise_semidirect())
    assert back.kind == "semidirect"


def test_bundle_round_trip_direct_sum():
    back = round_trip(direct_sum(diagonal_algebra(1, "A"), diagonal_algebra(2, "B")))
    assert back.kind == "direct_sum"
    assert not np.any(back.phi)


def test_bundle_round_trip_forced_lau():
    desc = forced_lau()
    assert validate(desc.algebra).failures == ["submultiplicativity"]
    back = round_trip(desc)
    assert back.kind == "lau" and back.contractive is False
    assert np.array_equal(back.phi, desc.phi)


def test_bundle_tamper_detected():
    desc = lau_c_c2()
    doc = bundle_to_dict(desc)
    doc["algebra"]["weights"][0] = 5.0
    with pytest.raises(SchemaError, match="does not match"):
        bundle_from_dict(doc)
