"""JSON schemas: algebras, explicit entries, enveloping-algebra elements,
polynomials.

The wire formats are strict (unknown fields are rejected) and canonical
(sorted keys, reduced scalar strings), so serialised output is byte-stable
and usable in golden tests.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .apoly import APoly
from .linalg import ScalarMatrix
from .liesuper import LieSuperalgebra, SuperVector
from .pbw import UEAElement
from .scalars import ScalarLike, scalar_from_string, scalar_to_string

class SchemaError(ValueError):
    pass


def _expect_keys(obj: dict, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}")


def _expect(obj, kind: type, what: str):
    """obj, if it is a kind (a bool is not an int here); else SchemaError."""
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise SchemaError(f"{what} must be {kind.__name__}, got {obj!r}")
    return obj


def _matrix_to_json(m: ScalarMatrix) -> List[List[str]]:
    return [[scalar_to_string(m.entry(i, j)) for j in range(m.ncols)]
            for i in range(m.nrows)]


def _matrix_from_json(rows: List[List[str]], dim: int) -> ScalarMatrix:
    if len(_expect(rows, list, "matrix")) != dim \
            or any(len(_expect(r, list, "matrix row")) != dim for r in rows):
        raise SchemaError("matrix has wrong shape")
    return ScalarMatrix.from_rows(
        [[scalar_from_string(x) for x in row] for row in rows])


def _vector_to_json(v: SuperVector) -> List[str]:
    return [scalar_to_string(x) for x in v.dense()]


def _vector_from_json(coords: List[str], g: LieSuperalgebra) -> SuperVector:
    if len(_expect(coords, list, "vector")) != g.dim:
        raise SchemaError("vector has wrong length")
    vals = [scalar_from_string(x) for x in coords]
    return SuperVector(g, {i: x for i, x in enumerate(vals) if x})


def algebra_to_json(g: LieSuperalgebra) -> dict:
    brackets = []
    for (i, j) in sorted(g.brackets):
        out = g.brackets[(i, j)]
        brackets.append({
            "i": i, "j": j,
            "out": [{"k": k, "coeff": scalar_to_string(out[k])}
                    for k in sorted(out)]})
    data = {
        "basis": [{"name": n, "parity": p} for n, p in zip(g.names, g.parity)],
        "brackets": brackets,
        "form": _matrix_to_json(g.form) if g.form is not None else None,
        "theta": _matrix_to_json(g.theta) if g.theta is not None else None,
        "decomposition": None,
    }
    if g.decomposition is not None:
        data["decomposition"] = {
            "center": [_vector_to_json(v) for v in g.decomposition["center"]],
            "ideals": [[_vector_to_json(v) for v in ideal]
                       for ideal in g.decomposition["ideals"]],
        }
    return data


def algebra_from_json(data: dict) -> LieSuperalgebra:
    _expect_keys(data, ["basis", "brackets"], ["form", "theta", "decomposition"])
    names, parity = [], []
    for entry in _expect(data["basis"], list, "basis"):
        _expect_keys(entry, ["name", "parity"])
        if _expect(entry["parity"], int, "parity") not in (0, 1):
            raise SchemaError(f"bad parity {entry['parity']!r}")
        names.append(_expect(entry["name"], str, "basis name"))
        parity.append(entry["parity"])
    dim = len(names)
    brackets: Dict = {}
    for entry in _expect(data["brackets"], list, "brackets"):
        _expect_keys(entry, ["i", "j", "out"])
        i, j = _expect(entry["i"], int, "i"), _expect(entry["j"], int, "j")
        if not (0 <= i < dim and 0 <= j < dim):
            raise SchemaError(f"bracket index out of range: ({i}, {j})")
        out = {}
        for term in _expect(entry["out"], list, "bracket output"):
            _expect_keys(term, ["k", "coeff"])
            if not 0 <= _expect(term["k"], int, "k") < dim:
                raise SchemaError(f"output index out of range: {term['k']}")
            out[term["k"]] = scalar_from_string(term["coeff"])
        if (i, j) in brackets:
            raise SchemaError(f"duplicate bracket entry ({i}, {j})")
        brackets[(i, j)] = out
    form = theta = None
    if data.get("form") is not None:
        form = _matrix_from_json(data["form"], dim)
    if data.get("theta") is not None:
        theta = _matrix_from_json(data["theta"], dim)
    g = LieSuperalgebra(names, parity, brackets, form=form, theta=theta)
    if data.get("decomposition") is not None:
        dec = data["decomposition"]
        _expect_keys(dec, ["center", "ideals"])
        g.decomposition = {
            "center": [_vector_from_json(v, g)
                       for v in _expect(dec["center"], list, "center")],
            "ideals": [[_vector_from_json(v, g)
                        for v in _expect(ideal, list, "ideal")]
                       for ideal in _expect(dec["ideals"], list, "ideals")],
        }
    return g


def entry_from_json(data: dict) -> Tuple[LieSuperalgebra, List[SuperVector],
                                         Optional[List[str]], str, int]:
    """An explicit entry: (algebra, a-basis vectors, a-basis names, name,
    default degree).

    The a-basis names are None when the entry gives none, and otherwise
    distinct strings, one per a-basis vector.  name defaults to "explicit"
    and the default degree to 3."""
    _expect_keys(data, ["algebra", "a_basis"],
                 ["a_names", "name", "default_degree"])
    g = algebra_from_json(data["algebra"])
    a_vectors = [_vector_from_json(coords, g)
                 for coords in _expect(data["a_basis"], list, "a_basis")]
    a_names = None
    if "a_names" in data:
        a_names = [_expect(n, str, "a-basis name")
                   for n in _expect(data["a_names"], list, "a_names")]
        if len(a_names) != len(a_vectors) or len(set(a_names)) != len(a_names):
            raise SchemaError(f"a_names must be {len(a_vectors)} distinct "
                              f"names, one per a-basis vector, got {a_names}")
    name = _expect(data.get("name", "explicit"), str, "entry name")
    degree = _expect(data.get("default_degree", 3), int, "default_degree")
    if degree < 0:
        raise SchemaError(f"default_degree must be non-negative, got {degree}")
    return g, a_vectors, a_names, name, degree


def words_from_json(data: dict) -> List[Tuple[List[str], ScalarLike]]:
    """An element given as words of generator names: (names, scalar) per
    term, the names not yet resolved against any basis."""
    _expect_keys(data, ["terms"])
    terms = []
    for term in _expect(data["terms"], list, "terms"):
        _expect_keys(term, ["word", "coeff"])
        names = [_expect(n, str, "generator name")
                 for n in _expect(term["word"], list, "word")]
        terms.append((names, scalar_from_string(term["coeff"])))
    return terms


def uea_to_json(u: UEAElement) -> list:
    return [{"monomial": list(m), "coeff": scalar_to_string(u[m])}
            for m in sorted(u, key=lambda m: (len(m), m))]


def poly_to_json(p: APoly, names: Sequence[str]) -> dict:
    terms = []
    for e in sorted(p.terms, key=lambda e: (sum(e), e)):
        exps = {names[i]: k for i, k in enumerate(e) if k}
        terms.append({"exps": exps, "coeff": scalar_to_string(p.terms[e])})
    return {"terms": terms}


def conditions_to_json(conditions: Dict[tuple, ScalarLike]) -> list:
    """Ring conditions (see rings.ring_conditions), sorted by key, each as
    {"kind", "root" or "generator", "indices", "value"}: kind "W" names a
    Weyl generator by its index, the others ("I", "J", "iso") an odd root
    by its coordinates; indices are the key's remaining entries, tuples as
    lists."""
    out = []
    for key in sorted(conditions):
        kind, owner, *rest = key
        row = {"kind": kind,
               "indices": [list(x) if isinstance(x, tuple) else x for x in rest],
               "value": scalar_to_string(conditions[key])}
        if kind == "W":
            row["generator"] = owner
        else:
            row["root"] = [scalar_to_string(x) for x in owner]
        out.append(row)
    return out


def poly_from_json(data: dict, names: Sequence[str]) -> APoly:
    _expect_keys(data, ["terms"])
    pos = {n: i for i, n in enumerate(names)}
    out = APoly.zero(len(names))
    for entry in _expect(data["terms"], list, "terms"):
        _expect_keys(entry, ["exps", "coeff"])
        e = [0] * len(names)
        for n, k in _expect(entry["exps"], dict, "exps").items():
            if n not in pos:
                raise SchemaError(f"unknown variable {n!r} (have {list(names)})")
            if _expect(k, int, "exponent") < 0:
                raise SchemaError(f"bad exponent {k!r}")
            e[pos[n]] = k
        out = out + APoly(len(names), {tuple(e): scalar_from_string(entry["coeff"])})
    return out


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
