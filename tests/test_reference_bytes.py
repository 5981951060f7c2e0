"""CLI output against the benchmark's reference captures.

perfbench/reference.json holds the SHA-256 of the stdout of every verify and
invariants job the benchmark runs, and the membership verdicts on the
rank-one generator images.  A change that alters those bytes or verdicts fails here, in the
ordinary test run, instead of only in the benchmark's correctness check.
The file is only read.  One stretch job past the benchmark's ladders,
rank1-aniso-q2 at degree 6, is pinned by its own hash here.  So is every
word of the gamma-session pool, the output of `superhc gamma` on it, and
every filtered dimension the gamma session asks for.
"""

import hashlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from superhc.catalog import CATALOG
from superhc.cli import main
from superhc.rings import (filtered_dimension, generators, membership_I,
                           membership_J, ring_conditions)
from superhc.serialization import (dumps_canonical, poly_from_json,
                                   poly_to_json, uea_to_json)
from support import oracle_ring_conditions

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))

VERIFY_AT_SEED_0 = sorted(key.rsplit(":", 1)[0] for key in REFERENCE["verify"]
                          if key.endswith(":0"))


@pytest.mark.parametrize("job", VERIFY_AT_SEED_0)
def test_verify_stdout_matches_reference(capsys, job):
    entry, degree = job.split(":")
    code = main(["verify", entry, "--degree", degree, "--seed", "0"])
    out = capsys.readouterr().out
    want = REFERENCE["verify"][f"{job}:0"]
    assert code == want["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"]


def test_invariants_stretch_stdout_matches_reference(capsys):
    # the top of the group-gl12 ladder, a stretch degree for the invariants
    code = main(["invariants", "group-gl12", "--degree", "4"])
    out = capsys.readouterr().out
    want = REFERENCE["invariants"]["group-gl12:4"]
    assert code == want["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"]


def test_invariants_stretch_stdout_rank1_aniso_q2_6(capsys):
    # a stretch degree past the top of the rank1-aniso-q2 ladder; the hash
    # is of the stdout that the Fraction elimination produced
    code = main(["invariants", "rank1-aniso-q2", "--degree", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == "c705307a2372192ca1224add49f635895a221733b4b907a4041ed5a198743fd5"
    report = json.loads(out)
    assert (len(report["invariants"]), len(report["ideal_part"])) == (20, 15)


def test_membership_verdicts_match_reference():
    analyses = {}
    verdicts = {}
    for key in REFERENCE["membership"]:
        entry, i, ring = key.split(":")
        if entry not in analyses:
            analyses[entry] = CATALOG[entry].build()
        an = analyses[entry]
        p = poly_from_json(REFERENCE["gamma_of_sym"][f"{entry}:{i}"]["gamma"],
                           an.a_names)
        member = membership_J if ring == "J" else membership_I
        verdicts[key] = member(p, an.data, an.weyl)
    assert len(verdicts) == 34
    assert verdicts == {key: row["member"]
                        for key, row in REFERENCE["membership"].items()}


def test_gamma_of_sym_matches_reference_and_full_supersymmetrisation():
    # the 17 rank-one generators the gamma-session benchmark queries: the
    # projection-only Gamma equals Gamma of the full supersymmetrisation and
    # prints the reference bytes
    kl = [(k, ell) for k in range(4) for ell in range(4) if ell >= min(k, 1)]
    seen = 0
    for name in ("rank1-aniso-q1", "rank1-aniso-q2", "rank1-iso-q1"):
        an = CATALOG[name].build()
        gens = generators(an.model, kl=kl) if name == "rank1-iso-q1" \
            else generators(an.model)
        for i, p in enumerate(gens):
            img = an.ctx.gamma_of_sym(p)
            assert img == an.ctx.hc_gamma(an.ctx.beta_from_g(p)), (name, i)
            text = dumps_canonical({"entry": name, "generator": i,
                                    "gamma": poly_to_json(img, an.a_names)})
            want = REFERENCE["gamma_of_sym"][f"{name}:{i}"]["sha256"]
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want
            seen += 1
    assert seen == len(REFERENCE["gamma_of_sym"]) == 17


def test_image_tables_give_the_conditions_of_the_reference_images():
    # every reference image through the tables of monomial images and of
    # condition rows the entry's data and Weyl group keep, warm across rings
    # and images, against the conditions read off each image as a whole
    for entry in sorted({key.split(":")[0] for key in REFERENCE["membership"]}):
        an = CATALOG[entry].build()
        images = [poly_from_json(row["gamma"], an.a_names)
                  for key, row in REFERENCE["gamma_of_sym"].items()
                  if key.startswith(entry + ":")]
        for ring in ("J", "I"):
            for p in images:
                assert ring_conditions(p, ring, an.data, an.weyl) \
                    == oracle_ring_conditions(p, ring, an.data, an.weyl)


def _session_jobs():
    """The gamma-session job list at workload seed 0, from the benchmark's
    own job generator."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.job_list("gamma-session", 0, REFERENCE)


def test_filtered_dimensions_and_verdicts_in_session_order():
    # the 162 filtered dimensions and 34 membership verdicts of the gamma
    # session, in its seed-0 order on one analysis per entry, so each
    # entry's tables of monomial images stay warm from job to job as they
    # do in a long session; each job prints the benchmark's bytes
    analyses = {}
    seen = Counter()
    for job in _session_jobs():
        kind, entry = job[0], job[1]
        if kind not in ("filtered_dimension", "membership"):
            continue
        if entry not in analyses:
            analyses[entry] = CATALOG[entry].build()
        an = analyses[entry]
        if kind == "filtered_dimension":
            _, _, ring, d = job
            out = {"entry": entry, "kind": ring, "degree": d,
                   "dim": filtered_dimension(ring, an.data, an.weyl, an.rank,
                                             d)}
            want = REFERENCE["filtered_dimension"][f"{entry}:{ring}:{d}"]
        else:
            _, _, i, ring = job
            p = poly_from_json(REFERENCE["gamma_of_sym"][f"{entry}:{i}"]
                               ["gamma"], an.a_names)
            member = membership_J if ring == "J" else membership_I
            out = {"entry": entry, "generator": i, "ring": ring,
                   "member": member(p, an.data, an.weyl)}
            want = REFERENCE["membership"][f"{entry}:{i}:{ring}"]
        assert _sha256(dumps_canonical(out)) == want["sha256"], job
        seen[kind] += 1
    assert seen == {"filtered_dimension": 162, "membership": 34}
    assert len(REFERENCE["filtered_dimension"]) == 162


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_word_pool_matches_reference():
    # every word the gamma-session benchmark asks for, computed as `superhc
    # gamma ENTRY --element` does, one build per entry; the first two words
    # of each entry also through the CLI itself
    seen = 0
    for entry, rows in sorted(REFERENCE["words"].items()):
        an = CATALOG[entry].build()
        g = an.pair.g
        for i, row in enumerate(rows):
            elem = an.ctx.word([g.basis(name) for name in row["word"]])
            text = dumps_canonical({
                "entry": entry, "element": uea_to_json(elem),
                "projection": poly_to_json(an.ctx.project_to_a(elem),
                                           an.a_names),
                "gamma": poly_to_json(an.ctx.hc_gamma(elem), an.a_names)})
            assert _sha256(text) == row["sha256"], (entry, i, row["word"])
            seen += 1
    assert seen == 384


@pytest.mark.parametrize("entry", sorted(REFERENCE["words"]))
def test_word_pool_through_the_cli(capsys, entry):
    for row in REFERENCE["words"][entry][:2]:
        element = json.dumps({"terms": [{"word": row["word"], "coeff": "1"}]})
        code = main(["gamma", entry, "--element", element])
        assert code == row["exit"]
        assert _sha256(capsys.readouterr().out) == row["sha256"]
