import json
import re
import shlex
import time
from pathlib import Path

import pytest

from superhc.builders import sl2
from superhc.catalog import CATALOG
from superhc.cli import main
from superhc.scalars import scalar_to_string
from superhc.harish import invariants_up_to_degree
from superhc.serialization import (algebra_to_json, dumps_canonical,
                                   poly_to_json, uea_to_json)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    data = json.loads(out)
    names = {e["name"] for e in data["entries"]}
    assert {"rank1-aniso-q1", "rank1-aniso-q2", "rank1-iso-q1",
            "group-sl2", "group-osp12", "group-gl12"} <= names


def test_validate_good_file(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(algebra_to_json(sl2())), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_planted_defect_exits_one(tmp_path, capsys):
    data = algebra_to_json(sl2())
    # plant [f, e] = h alongside [e, f] = h: antisymmetry violation
    data["brackets"].append(
        {"i": 2, "j": 0, "out": [{"k": 1, "coeff": "1"}]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert any(v["check"] == "antisymmetry" for v in report["violations"])


def test_validate_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error" in err


def test_validate_unknown_field_exits_two(tmp_path, capsys):
    data = algebra_to_json(sl2())
    data["surprise"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


def test_unknown_entry_exits_two(capsys):
    code, _, err = run(capsys, "roots", "no-such-entry")
    assert code == 2
    assert "error" in err


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "group-osp12")
    assert code == 0
    data = json.loads(out)
    ms = sorted((r["m0"], r["m1"]) for r in data["roots"])
    assert ms == [(0, 2), (0, 2), (2, 0), (2, 0)]
    assert data["rho"] == ["1"]


def test_verify_command_and_determinism(capsys):
    code, out1, _ = run(capsys, "--seed", "3", "verify", "rank1-aniso-q1",
                        "--degree", "3")
    assert code == 0
    code, out2, _ = run(capsys, "--seed", "3", "verify", "rank1-aniso-q1",
                        "--degree", "3")
    assert code == 0
    assert out1 == out2  # byte-identical reports
    report = json.loads(out1)
    assert report["ok"] is True
    assert "timing_seconds" not in report
    # --timing adds a stderr line and leaves stdout as it is
    code, out3, err = run(capsys, "--seed", "3", "verify", "rank1-aniso-q1",
                          "--degree", "3", "--timing")
    assert code == 0 and out3 == out1
    assert re.fullmatch(r"verify rank1-aniso-q1: \d+\.\d{3}s\n", err)


def test_membership_command_negative(capsys):
    poly = json.dumps({"terms": [{"exps": {"a": 1}, "coeff": "1"}]})
    code, out, _ = run(capsys, "membership", "rank1-aniso-q1",
                       "--poly", poly, "--ring", "J")
    assert code == 1
    assert json.loads(out)["member"] is False


def test_membership_command_positive(capsys):
    # a^2 - 1 is the even generator of J for q = 1
    poly = json.dumps({"terms": [{"exps": {"a": 2}, "coeff": "1"},
                                 {"exps": {}, "coeff": "-1"}]})
    code, out, _ = run(capsys, "membership", "rank1-aniso-q1",
                       "--poly", poly, "--ring", "J")
    assert code == 0
    assert json.loads(out)["member"] is True


@pytest.mark.parametrize("entry, ring, poly, violated", [
    # a0^2/2 is W0-invariant on group-gl12, but its derivative along each
    # isotropic root is not divisible by A_lam
    ("group-gl12", "J", {"a0": 2},
     '[{"indices":[1,[0,1,0]],"kind":"iso","root":["-1","0","1"],"value":"1"},'
     '{"indices":[1,[0,1,0]],"kind":"iso","root":["-1","1","0"],"value":"1"}]'),
    # a0^3/2 is odd, so the one Weyl generator of group-sl2 moves it
    ("group-sl2", "I", {"a0": 3},
     '[{"generator":0,"indices":[[3]],"kind":"W","value":"-1"}]'),
], ids=["gl12-iso", "sl2-weyl"])
def test_membership_prints_each_violated_condition_as_an_object(
        capsys, entry, ring, poly, violated):
    # the bytes of violated_conditions: kind, owning root or Weyl generator,
    # the key's other indices as lists, and the value, sorted by key
    arg = json.dumps({"terms": [{"exps": poly, "coeff": "1/2"}]})
    code, out, _ = run(capsys, "membership", entry, "--poly", arg,
                       "--ring", ring)
    assert code == 1
    assert f'"violated_conditions":{violated}' in out
    assert json.loads(out)["member"] is False


@pytest.mark.parametrize("exps, codes", [
    ({"a0": 64}, (0, 1)),
    ({"a0": 65}, (2,)),
    ({"a0": 33, "a1": 32}, (2,)),
], ids=["degree-64", "degree-65", "total-degree-65"])
def test_membership_poly_degree_is_bounded(capsys, exps, codes):
    poly = json.dumps({"terms": [{"exps": exps, "coeff": "1"}]})
    code, out, err = run(capsys, "membership", "group-gl12",
                         "--poly", poly, "--ring", "J")
    assert code in codes
    if code == 2:
        assert out == "" and err.startswith("error:")
    else:
        assert json.loads(out)["member"] is (code == 0)


def test_gamma_command(capsys):
    elem = json.dumps({"terms": [{"word": ["a", "a"], "coeff": "1"}]})
    code, out, _ = run(capsys, "gamma", "rank1-aniso-q1", "--element", elem)
    assert code == 0
    data = json.loads(out)
    # projection of a^2 is a^2; gamma shifts a -> a - 1
    assert data["projection"] == {
        "terms": [{"coeff": "1", "exps": {"a": 2}}]}
    assert data["gamma"] == {"terms": [
        {"coeff": "1", "exps": {}},
        {"coeff": "-2", "exps": {"a": 1}},
        {"coeff": "1", "exps": {"a": 2}}]}


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "rank1-aniso-q1", "--degree", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dim_invariants"] == 3
    assert data["dim_ideal_part"] == 1
    assert len(data["invariants"]) == 3


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_invariants_report_is_the_whole_report_dumped(capsys, name):
    """The report written one invariant at a time has the bytes of
    dumps_canonical of the whole report, built as one dict."""
    code, out, _ = run(capsys, "invariants", name)
    analysis = CATALOG[name].build()
    ctx = analysis.ctx
    basis = invariants_up_to_degree(ctx, analysis.default_degree)
    want = {
        "entry": analysis.name,
        "degree": analysis.default_degree,
        "adapted_basis": list(ctx.adapted.names),
        "blocks": ctx.blocks,
        "dim_invariants": len(basis.invariants),
        "dim_ideal_part": len(basis.companion),
        "invariants": [uea_to_json(v) for v in basis.invariants],
        "ideal_part": [uea_to_json(v) for v in basis.companion],
        "gamma_images": [poly_to_json(ctx.hc_gamma(v), analysis.a_names)
                         for v in basis.invariants],
    }
    assert code == 0
    assert out == dumps_canonical(want)


def test_explicit_entry_via_file(tmp_path, capsys):
    from superhc.builders import double_with_flip
    g = double_with_flip(sl2())
    entry = {
        "name": "explicit-sl2",
        "algebra": algebra_to_json(g),
        "a_basis": [["0", "1", "0", "0", "-1", "0"]],
        "default_degree": 2,
    }
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(entry), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_roots_with_direction_flag(capsys):
    code, out, _ = run(capsys, "roots", "group-sl2", "--direction", "-1")
    assert code == 0
    data = json.loads(out)
    positives = [r["lambda"] for r in data["roots"] if r["positive"]]
    assert positives == [["-2"]]


@pytest.mark.parametrize("argv, given, rank", [
    (["roots", "group-sl2", "--direction", "1,2"], 2, 1),
    (["verify", "group-gl12", "--direction=-1"], 1, 3),
], ids=["roots-too-many", "verify-too-few"])
def test_direction_of_the_wrong_length_is_a_usage_error(capsys, argv, given,
                                                        rank):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"length {given}" in err and f"rank {rank}" in err


def test_direction_on_a_wall_names_the_root_in_scalar_strings(capsys):
    # (0, 1) vanishes on the root (-1, 0); its coordinates print as scalar
    # strings, not as Fraction reprs
    code, out, err = run(capsys, "roots", "rank1-iso-q1", "--direction", "0,1")
    assert code == 2
    assert out == ""
    assert err == "error: direction vanishes on root (-1, 0)\n"


def test_seed_flag_after_subcommand(capsys):
    code, out1, _ = run(capsys, "verify", "rank1-iso-q1", "--degree", "2",
                        "--seed", "9")
    assert code == 0
    code, out2, _ = run(capsys, "--seed", "9", "verify", "rank1-iso-q1",
                        "--degree", "2")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["roots", "group-sl2"],
    ["invariants", "group-sl2"],
    ["gamma", "rank1-aniso-q1",
     "--element", '{"terms":[{"word":["a","a"],"coeff":"1"}]}'],
    ["membership", "group-sl2", "--ring", "J",
     "--poly", '{"terms":[{"exps":{"a0":1},"coeff":"1"}]}'],
])
def test_seed_is_an_option_of_verify_only(capsys, argv):
    # only verify samples at random; the other subcommands take no --seed
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert main(argv) in (0, 1)


def test_negative_degree_is_a_usage_error(capsys):
    for command in ("verify", "invariants"):
        code, out, err = run(capsys, command, "group-sl2", "--degree", "-1")
        assert code == 2, command
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_negative_default_degree_of_explicit_entry_is_a_usage_error(
        tmp_path, capsys):
    from superhc.builders import double_with_flip
    # JSON true is not the degree 1 either
    for degree in (-2, True):
        entry = {
            "algebra": algebra_to_json(double_with_flip(sl2())),
            "a_basis": [["0", "1", "0", "0", "-1", "0"]],
            "default_degree": degree,
        }
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(entry), encoding="utf-8")
        # rejected when the entry is read, by commands that take no degree too
        for command in ("invariants", "roots"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2, (command, degree)
            assert out == "" and err.startswith("error:")


def _sl2_double_entry(**fields):
    from superhc.builders import double_with_flip
    entry = {"algebra": algebra_to_json(double_with_flip(sl2())),
             "a_basis": [["0", "1", "0", "0", "-1", "0"]]}
    entry.update(fields)
    return entry


# a = (e + 2f).l - (e + 2f).r: a rational a whose ad(a) has eigenvalues
# +-2 sqrt(2), which the rational eigenvalue search does not find
IRRATIONAL_A = _sl2_double_entry(a_basis=[["1", "0", "2", "-1", "0", "-2"]])


def _with_algebra_field(edit):
    entry = _sl2_double_entry()
    edit(entry["algebra"])
    return entry


@pytest.mark.parametrize("command", ["roots", "verify"])
@pytest.mark.parametrize("entry", [
    _sl2_double_entry(a_basis=5),
    _sl2_double_entry(a_basis=[5]),
    _sl2_double_entry(a_basis="010010"),
    _sl2_double_entry(a_basis=[[0, 1, 0, 0, -1, 0]]),
    _sl2_double_entry(a_basis=[["0", "1"]]),
    _sl2_double_entry(a_basis=[["0"] * 6]),
    {"algebra": algebra_to_json(sl2()), "a_basis": [["0", "1", "0"]]},
    _sl2_double_entry(algebra=dict(_sl2_double_entry()["algebra"],
                                   form=None)),
    _with_algebra_field(lambda a: a["form"][0].__setitem__(0, 1)),
    _with_algebra_field(lambda a: a["form"][0].__setitem__(0, "1/0")),
    _with_algebra_field(lambda a: a["brackets"][0].__setitem__("i", "0")),
    _with_algebra_field(lambda a: a["basis"][0].__setitem__("name", ["x"])),
    _with_algebra_field(lambda a: a["basis"][0].__setitem__("parity", True)),
    _sl2_double_entry(name=["x"]),
    _sl2_double_entry(a_names="a"),
    _sl2_double_entry(a_names=None),
    _sl2_double_entry(a_names=[1]),
    _sl2_double_entry(a_names=[]),
    _sl2_double_entry(a_names=["a", "b"]),
    _sl2_double_entry(a_basis=[["0", "1", "0", "0", "-1", "0"],
                               ["0", "1", "0", "0", "1", "0"]],
                      a_names=["a", "a"]),
    5,
    IRRATIONAL_A,
], ids=["a_basis-int", "a_basis-list-of-int", "a_basis-string",
        "a_basis-int-coords", "a_basis-short", "a_basis-zero",
        "no-involution", "no-form", "form-int", "form-zero-denominator",
        "bracket-index-string", "basis-name-list", "parity-bool",
        "name-list", "a_names-string", "a_names-null", "a_names-int",
        "a_names-empty", "a_names-too-many", "a_names-repeated", "entry-int",
        "a_basis-irrational"])
def test_malformed_explicit_entry_is_a_usage_error(tmp_path, capsys, command,
                                                   entry):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(entry), encoding="utf-8")
    extra = ["--degree", "1"] if command == "verify" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    if entry is IRRATIONAL_A:
        assert err == ("error: the eigenvalues are not rational: the "
                       "characteristic polynomial does not split over the "
                       "rationals\n")


def test_large_eigenvalues_are_found_or_refused_at_once(tmp_path, capsys):
    # a = 10^6 (h.l - h.r) has ad-eigenvalues 0 and +-2*10^6, and the
    # irrational a of IRRATIONAL_A scaled by 10^6 has +-2*10^6 sqrt(2): a
    # search that trial-divides the constant term runs for hours on either
    c = 10 ** 6
    scaled = [[str(c * int(x)) for x in v] for v in IRRATIONAL_A["a_basis"]]
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(_sl2_double_entry(
        a_basis=[["0", str(c), "0", "0", str(-c), "0"]])), encoding="utf-8")
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "roots", str(path))
    assert time.perf_counter() - t0 < 1
    assert code == 0
    assert [r["lambda"] for r in json.loads(out)["roots"]] == [
        ["-2000000"], ["2000000"]]
    path.write_text(json.dumps(_sl2_double_entry(a_basis=scaled)),
                    encoding="utf-8")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "roots", str(path))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: the eigenvalues are not rational")


@pytest.mark.parametrize("ring", ["I", "J"])
def test_no_weyl_drops_the_weyl_conditions_of_either_ring(capsys, ring):
    # a0 is not W0-invariant on group-sl2, and meets every odd-root condition
    poly = '{"terms":[{"exps":{"a0":1},"coeff":"1"}]}'
    head = ('{"entry":"group-sl2","gated_roots":[],"member":%s,"poly":'
            '{"terms":[{"coeff":"1","exps":{"a0":1}}]},"ring":"' + ring
            + '","violated_conditions":%s}\n')
    assert run(capsys, "membership", "group-sl2", "--ring", ring, "--poly",
               poly, "--no-weyl") == (0, head % ("true", "[]"), "")
    assert run(capsys, "membership", "group-sl2", "--ring", ring, "--poly",
               poly) == (1, head % ("false", '[{"generator":0,"indices":'
                                    '[[1]],"kind":"W","value":"-2"}]'), "")


def _entry_file_of(name, tmp_path):
    """The catalog entry name written out as an explicit entry file.  A
    rank-one entry names its a-basis (a; h0, Al), so its file carries them
    as a_names; a group entry's are the default a0, a1, and its file leaves
    them out."""
    analysis = CATALOG[name].build()
    entry = {
        "name": name,
        "algebra": algebra_to_json(analysis.pair.g),
        "a_basis": [[scalar_to_string(x) for x in v.dense()]
                    for v in analysis.pair.a_basis],
        "default_degree": CATALOG[name].default_degree,
    }
    if name.startswith("rank1-"):
        entry["a_names"] = analysis.a_names
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(entry), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name, argv", [
    (name, argv) for name in CATALOG
    for argv in ([["roots"], ["invariants", "--degree", "2"], ["verify"]]
                 if name.startswith("group-") else [["verify"]])] + [
    (name, argv) for name in CATALOG if name.startswith("rank1-")
    for argv in [["roots"], ["invariants", "--degree", "2"]]] + [
    ("rank1-iso-q1", ["membership", "--ring", "J", "--poly",
                      '{"terms":[{"exps":{"h0":1},"coeff":"1"}]}'])])
def test_entry_file_of_a_catalog_entry_reports_the_same(tmp_path, capsys,
                                                         name, argv):
    path = _entry_file_of(name, tmp_path)
    by_name = run(capsys, argv[0], name, *argv[1:])
    by_file = run(capsys, argv[0], path, *argv[1:])
    assert by_file[:2] == by_name[:2]


def test_explicit_entry_without_name_reports_explicit(tmp_path, capsys):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(_sl2_double_entry()), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--degree", "1")
    assert code == 0
    assert json.loads(out)["entry"] == "explicit"


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "catalog", "list"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gamma", "rank1-aniso-q1", "--element", '{"terms": 5}'],
    ["gamma", "rank1-aniso-q1", "--element", '{"terms": [5]}'],
    ["gamma", "rank1-aniso-q1", "--element",
     '{"terms": [{"word": 5, "coeff": "1"}]}'],
    ["gamma", "group-sl2", "--element",
     '{"terms": [{"word": [["e.l"]], "coeff": "1"}]}'],
    ["gamma", "rank1-aniso-q1", "--element",
     '{"terms": [{"word": ["a"], "coeff": 1}]}'],
    ["membership", "rank1-aniso-q1", "--ring", "J", "--poly", '{"terms": 5}'],
    ["membership", "rank1-aniso-q1", "--ring", "J", "--poly",
     '{"terms": [{"exps": 5, "coeff": "1"}]}'],
    ["membership", "rank1-aniso-q1", "--ring", "J", "--poly",
     '{"terms": [{"exps": {"a": 1}, "coeff": 1}]}'],
    ["membership", "rank1-aniso-q1", "--ring", "J", "--poly",
     '{"terms": [{"exps": {"a": true}, "coeff": "1"}]}'],
    ["membership", "rank1-aniso-q1", "--ring", "J", "--poly",
     '{"terms": [{"exps": {"a": 1}, "coeff": "1e9"}]}'],
    ["roots", "group-sl2", "--direction", "1+1*sqrt(2)"],
    ["roots", "group-sl2", "--direction", "1/0"],
    ["gamma", "group-sl2", "--element",
     '{"terms":[{"word":["h.l"],"coeff":"1 2"}]}'],
], ids=["terms-int", "term-int", "word-int", "word-of-lists", "coeff-int",
        "poly-terms-int", "exps-int", "poly-coeff-int", "exponent-bool",
        "poly-coeff-exponent-notation",
        "direction-irrational", "direction-zero-denominator",
        "coeff-inner-space"])
def test_malformed_json_argument_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["gamma", "rank1-aniso-q1", "--element",
     '{"terms":[{"word":["a"],"coeff":"1"},'
     '{"word":["a","a"],"coeff":"1+1*sqrt(2)"}]}'],
    ["membership", "group-gl12", "--ring", "I", "--poly",
     '{"terms":[{"exps":{"a0":1},"coeff":"1"},'
     '{"exps":{"a1":1},"coeff":"1+1*sqrt(2)"}]}'],
], ids=["gamma", "membership"])
def test_sqrt_coefficient_is_a_usage_error(capsys, argv):
    # scalars are rational: a sqrt( string is malformed
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad scalar string") and \
        "Traceback" not in err


def readme_examples():
    """(argv, exit code) of each line of the sh block under "Examples:" in
    README.md: continuation lines are joined, and each command ends in a
    comment "# exit N"."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^Examples\b.*?```sh\n(.*?)```", text,
                      re.MULTILINE | re.DOTALL).group(1)
    out = []
    for line in block.replace("\\\n", " ").splitlines():
        command, code = re.fullmatch(r"(.*?)\s*# exit (\d)", line).groups()
        words = shlex.split(command)
        assert words[0] == "superhc"
        out.append((words[1:], int(code)))
    return out


@pytest.mark.parametrize("argv, code", readme_examples())
def test_readme_examples_run(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    json.loads(out)
