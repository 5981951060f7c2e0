"""Bounded fuzz of the CLI contract.

On any argv and any explicit-entry file, `main` returns 0, 1 or 2 without
raising, a usage error (2) says so on an `error:` line, and running the
same command twice prints the same bytes.  Examples are derandomized, so
the suite draws the same cases on every run.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from superhc.builders import double_with_flip, sl2
from superhc.catalog import CATALOG
from superhc.cli import main
from superhc.serialization import algebra_to_json

ENTRIES = sorted(CATALOG)
FUZZ = settings(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

SCALARS = st.sampled_from(["0", "1", "-2", "1/2", "1/0", "", "x", "1*sqrt(2)",
                           "1+1*sqrt(2)", "2-1/3*sqrt(5)", "1+sqrt(2)"])
LEAVES = (st.none() | st.booleans() | st.integers(-2, 6) | SCALARS
          | st.text(max_size=3))


def json_values(keys):
    """Arbitrary JSON whose object keys are often the ones the schema knows."""
    names = st.sampled_from(sorted(keys)) | st.text(max_size=3)
    return st.recursive(
        LEAVES,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(names, inner, max_size=3),
        max_leaves=6)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.startswith("error:"), (argv, err)
    assert _run(argv) == (code, out, err), argv


_NAMES = {}


def _names(entry):
    """The a-coordinate names and the generator names of a catalog entry."""
    if entry not in _NAMES:
        analysis = CATALOG[entry].build()
        _NAMES[entry] = (list(analysis.a_names),
                         list(analysis.pair.g.names)
                         + list(analysis.ctx.adapted.names))
    return _NAMES[entry]


def _with_one_field_replaced(draw, valid, keys):
    if draw(st.booleans()):
        return valid
    path = draw(st.sampled_from(list(_paths(valid))))
    return _replaced(valid, path, draw(json_values(keys)))


@st.composite
def argv_lists(draw):
    command = draw(st.sampled_from(
        ["catalog", "roots", "membership", "gamma", "verify"]))
    if command == "catalog":
        return ["catalog", "list"]
    entry = draw(st.sampled_from(ENTRIES + ["no-such-entry", "@", "."]))
    argv = [command, entry]
    if draw(st.booleans()):
        direction = draw(st.sampled_from(
            ["1", "-1", "0", "1,2", "1,2,4", "1/2", "1+1*sqrt(2)", "x", ","])
            | st.text(alphabet="0123456789-/,", max_size=5))
        argv.append(f"--direction={direction}")
    a_names, gens = _names(entry) if entry in CATALOG else (["a"], ["a"])
    if command == "verify":
        argv += ["--degree", str(draw(st.integers(-1, 1)))]
    elif command == "membership":
        term = st.fixed_dictionaries({
            "exps": st.dictionaries(st.sampled_from(a_names + ["zz"]),
                                    st.integers(0, 4), max_size=2),
            "coeff": SCALARS})
        poly = {"terms": draw(st.lists(term, max_size=2))}
        poly = _with_one_field_replaced(draw, poly, {"terms", "exps", "coeff"})
        argv += ["--ring", draw(st.sampled_from(["I", "J"])),
                 f"--poly={json.dumps(poly)}"]
        if draw(st.booleans()):
            argv.append("--no-weyl")
    elif command == "gamma":
        term = st.fixed_dictionaries({
            "word": st.lists(st.sampled_from(gens + ["zz"]), max_size=3),
            "coeff": SCALARS})
        element = {"terms": draw(st.lists(term, max_size=2))}
        element = _with_one_field_replaced(draw, element,
                                           {"terms", "word", "coeff"})
        argv.append(f"--element={json.dumps(element)}")
    return argv


@settings(FUZZ, max_examples=60)
@given(argv=argv_lists())
def test_cli_contract_on_argv(argv):
    check_contract(argv)


VALID_ENTRY = {
    "name": "sl2-double",
    "algebra": algebra_to_json(double_with_flip(sl2())),
    "a_basis": [["0", "1", "0", "0", "-1", "0"]],
    "default_degree": 1,
}
ENTRY_KEYS = {k for p in _paths(VALID_ENTRY) for k in p if isinstance(k, str)}


@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_cli_contract_on_explicit_entries(data):
    # one field of a valid entry, at any depth, replaced by arbitrary JSON
    path = data.draw(st.sampled_from(list(_paths(VALID_ENTRY))[1:]))
    entry = _replaced(VALID_ENTRY, path, data.draw(json_values(ENTRY_KEYS)))
    command = data.draw(st.sampled_from(["roots", "verify", "invariants"]))
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "entry.json")
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        check_contract([command, file])
