import json

import pytest

from superhc.builders import sl2
from superhc.cli import main
from superhc.serialization import algebra_to_json


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


def test_seed_flag_after_subcommand(capsys):
    code, out1, _ = run(capsys, "verify", "rank1-iso-q1", "--degree", "2",
                        "--seed", "9")
    assert code == 0
    code, out2, _ = run(capsys, "--seed", "9", "verify", "rank1-iso-q1",
                        "--degree", "2")
    assert out1 == out2


def test_negative_degree_is_a_usage_error(capsys):
    for command in ("verify", "invariants"):
        code, out, err = run(capsys, command, "group-sl2", "--degree", "-1")
        assert code == 2, command
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_negative_default_degree_of_explicit_entry_is_a_usage_error(
        tmp_path, capsys):
    from superhc.builders import double_with_flip
    entry = {
        "algebra": algebra_to_json(double_with_flip(sl2())),
        "a_basis": [["0", "1", "0", "0", "-1", "0"]],
        "default_degree": -2,
    }
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(entry), encoding="utf-8")
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:")


def _sl2_double_entry(**fields):
    from superhc.builders import double_with_flip
    entry = {"algebra": algebra_to_json(double_with_flip(sl2())),
             "a_basis": [["0", "1", "0", "0", "-1", "0"]]}
    entry.update(fields)
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
], ids=["a_basis-int", "a_basis-list-of-int", "a_basis-string",
        "a_basis-int-coords", "a_basis-short", "a_basis-zero",
        "no-involution", "no-form"])
def test_malformed_explicit_entry_is_a_usage_error(tmp_path, capsys, command,
                                                   entry):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(entry), encoding="utf-8")
    extra = ["--degree", "1"] if command == "verify" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
