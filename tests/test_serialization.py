import pytest
from fractions import Fraction as Q

from superhc.apoly import APoly
from superhc.builders import double_with_flip, gl12, osp12
from superhc.liesuper import verify_algebra
from superhc.scalars import scalar_to_string
from superhc.serialization import (SchemaError, algebra_from_json,
                                   algebra_to_json, dumps_canonical,
                                   poly_from_json, poly_to_json, uea_to_json)


def test_algebra_roundtrip_with_form_theta_and_certificate():
    g = double_with_flip(osp12())
    data = algebra_to_json(g)
    g2 = algebra_from_json(data)
    assert g2.names == g.names
    assert g2.parity == g.parity
    assert verify_algebra(g2) == []
    assert g2.form == g.form
    assert g2.theta == g.theta
    assert algebra_to_json(g2) == data


def test_loader_rejects_unknown_fields():
    data = algebra_to_json(gl12())
    data["extra"] = []
    with pytest.raises(SchemaError):
        algebra_from_json(data)
    data = algebra_to_json(gl12())
    data["basis"][0]["spin"] = 1
    with pytest.raises(SchemaError):
        algebra_from_json(data)


def test_loader_rejects_bad_indices_and_parities():
    # a JSON string or bool is not an index or a parity
    for i in (99, "0", True):
        data = algebra_to_json(gl12())
        data["brackets"][0]["i"] = i
        with pytest.raises(SchemaError):
            algebra_from_json(data)
    for parity in (2, True):
        data = algebra_to_json(gl12())
        data["basis"][0]["parity"] = parity
        with pytest.raises(SchemaError):
            algebra_from_json(data)


def test_loader_keeps_redundant_bracket_entries_for_validation():
    data = algebra_to_json(gl12())
    data["brackets"].append({"i": 1, "j": 0, "out": [{"k": 0, "coeff": "5"}]})
    g = algebra_from_json(data)
    report = verify_algebra(g)
    assert any(v["check"] == "antisymmetry" for v in report)


def test_poly_roundtrip():
    names = ["a", "b"]
    p = APoly(2, {(2, 0): Q(1, 3), (0, 1): Q(-2), (0, 0): Q(7)})
    data = poly_to_json(p, names)
    assert poly_from_json(data, names) == p
    with pytest.raises(SchemaError):
        poly_from_json({"terms": [{"exps": {"zz": 1}, "coeff": "1"}]}, names)


def test_int_coefficients_print_like_fractions():
    # straightening keeps integral coefficients as ints; every printer gives
    # an int the bytes of the equal Fraction
    for x in (0, 1, -1, 3, -12):
        assert scalar_to_string(x) == scalar_to_string(Q(x))
    as_int = {(): 2, (1,): 3, (0, 2): -1}
    as_fraction = {m: Q(c) for m, c in as_int.items()}
    assert dumps_canonical(uea_to_json(as_int)) \
        == dumps_canonical(uea_to_json(as_fraction))
    names = ["a", "b"]
    assert poly_to_json(APoly(2, {(2, 0): 3, (0, 1): -1}), names) \
        == poly_to_json(APoly(2, {(2, 0): Q(3), (0, 1): Q(-1)}), names)


def test_dumps_canonical_is_stable():
    payload = {"b": 1, "a": [2, {"y": 0, "x": 1}]}
    assert dumps_canonical(payload) == '{"a":[2,{"x":1,"y":0}],"b":1}\n'
