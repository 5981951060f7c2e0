"""The three benchmark workloads: job lists, how a job runs, how it is checked.

Every workload is a closed loop with one client: a job is sent only after
the previous one has returned.  A *pass* is the workload's whole job list,
generated from the workload seed; the program only ever sees the generated
argv (``superhc.cli.main``) or library inputs.

Jobs are drawn from finite pools whose outputs were captured once, by
``capture_reference.py``, into ``reference.json``; every job's output is
compared byte for byte (by SHA-256) with that reference, and verdicts are
also checked against the hand-written ``expected_verdicts.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
EXPECTED = HERE / "expected_verdicts.json"

# The workload seed sets the order of every job list; the jobs themselves
# are the same for every seed, so that a seed changes no metric.
#
# verify-cold: every catalog entry at its default degree plus four stretch
# jobs, each (entry, degree) with every per-job seed in VERIFY_SEEDS.  The
# multiplicativity sample makes one job's cost swing up to 25x with its
# seed (group-osp12:4 takes 0.24-6.3 s over seeds 0-15), so per-job seeds
# drawn from the workload seed (3 of 16) would move wall_s by 20% between
# workload seeds (interquartile range over median).
VERIFY_JOBS = [
    ("rank1-aniso-q1", 3), ("rank1-aniso-q2", 3), ("rank1-iso-q1", 3),
    ("group-sl2", 4), ("group-osp12", 4), ("group-gl12", 2),
    ("group-sl2", 5), ("group-gl12", 3), ("rank1-aniso-q1", 5),
    ("rank1-iso-q1", 5),
]
VERIFY_SEEDS = (0, 1, 2)

# invariants-deep: every degree from 1 up to the top of each ladder
INVARIANT_LADDER = {
    "group-gl12": 4, "group-sl2": 8, "group-osp12": 6,
    "rank1-aniso-q2": 5, "rank1-iso-q1": 8,
}

# gamma-session
ENTRIES = ["rank1-aniso-q1", "rank1-aniso-q2", "rank1-iso-q1",
           "group-sl2", "group-osp12", "group-gl12"]
RANK_ONE = ["rank1-aniso-q1", "rank1-aniso-q2", "rank1-iso-q1"]
ISO_KL = [(k, ell) for k in range(4) for ell in range(4) if ell >= min(k, 1)]
# every pass asks for every word of the pool, in seeded order: drawing a
# subset per seed moved peak_rss_mib by 10% between seeds
WORD_POOL = 64
WORD_LENGTHS = (4, 8)
FDIM_KINDS = ("J", "I", "SW0")
FDIM_MAX_DEGREE = 8
RINGS = ("J", "I")

WORKLOADS = ("verify-cold", "invariants-deep", "gamma-session")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- job lists -------------------------------------------------------------

def job_list(workload: str, seed: int, reference: dict) -> List[tuple]:
    """The pass for a workload seed: a list of hashable job tuples."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-cold":
        jobs = [("verify", e, d, s) for e, d in VERIFY_JOBS for s in VERIFY_SEEDS]
    elif workload == "invariants-deep":
        jobs = [("invariants", e, d) for e, top in INVARIANT_LADDER.items()
                for d in range(1, top + 1)]
    elif workload == "gamma-session":
        jobs = []
        for entry in ENTRIES:
            for i in range(len(reference["words"][entry])):
                jobs.append(("word", entry, i))
        # one job per rank-one generator the reference holds an image of
        for key in reference["gamma_of_sym"]:
            entry, i = key.rsplit(":", 1)
            jobs.append(("gamma_of_sym", entry, int(i)))
            for ring in RINGS:
                jobs.append(("membership", entry, int(i), ring))
        for entry in ENTRIES:
            for kind in FDIM_KINDS:
                for d in range(FDIM_MAX_DEGREE + 1):
                    jobs.append(("filtered_dimension", entry, kind, d))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def job_key(job: tuple) -> str:
    return ":".join(str(x) for x in job)


def job_list_sha256(jobs: List[tuple]) -> str:
    return sha256(json.dumps([job_key(j) for j in jobs]))


# -- running jobs ------------------------------------------------------------

def run_cli(argv: List[str]) -> Tuple[str, int]:
    from superhc import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), code


def cli_argv(job: tuple) -> List[str]:
    if job[0] == "verify":
        _, entry, degree, seed = job
        return ["verify", entry, "--degree", str(degree), "--seed", str(seed)]
    _, entry, degree = job
    return ["invariants", entry, "--degree", str(degree)]


class Session:
    """gamma-session: every catalog entry built once, queried warm."""

    def __init__(self, reference: dict):
        from superhc.catalog import CATALOG
        from superhc.rings import generators
        from superhc.serialization import poly_from_json
        self.analyses = {name: CATALOG[name].build() for name in ENTRIES}
        self.gens = {}
        for name in RANK_ONE:
            model = self.analyses[name].model
            self.gens[name] = generators(model, kl=ISO_KL) \
                if name == "rank1-iso-q1" else generators(model)
        self.words = {}
        for name in ENTRIES:
            g = self.analyses[name].pair.g
            self.words[name] = [[g.basis(x) for x in row["word"]]
                                for row in reference["words"][name]]
        # membership queries take the reference image, as `superhc
        # membership --poly` would, so they do not depend on job order
        self.images = {}
        for key, row in reference.get("gamma_of_sym", {}).items():
            name = key.rsplit(":", 1)[0]
            self.images[key] = poly_from_json(row["gamma"],
                                              self.analyses[name].a_names)

    def run(self, job: tuple) -> Tuple[str, int]:
        from superhc.rings import filtered_dimension, membership_I, membership_J
        from superhc.serialization import (dumps_canonical, poly_to_json,
                                           uea_to_json)
        kind, entry = job[0], job[1]
        an = self.analyses[entry]
        if kind == "word":
            # the same computation and bytes as `superhc gamma ENTRY --element`
            elem = an.ctx.word(self.words[entry][job[2]])
            out = {"entry": entry, "element": uea_to_json(elem),
                   "projection": poly_to_json(an.ctx.project_to_a(elem),
                                              an.a_names),
                   "gamma": poly_to_json(an.ctx.hc_gamma(elem), an.a_names)}
        elif kind == "gamma_of_sym":
            img = an.ctx.gamma_of_sym(self.gens[entry][job[2]])
            out = {"entry": entry, "generator": job[2],
                   "gamma": poly_to_json(img, an.a_names)}
        elif kind == "membership":
            _, _, i, ring = job
            p = self.images[f"{entry}:{i}"]
            member = membership_J(p, an.data, an.weyl) if ring == "J" \
                else membership_I(p, an.data, an.weyl)
            out = {"entry": entry, "generator": i, "ring": ring,
                   "member": member}
        else:
            _, _, ring_kind, d = job
            out = {"entry": entry, "kind": ring_kind, "degree": d,
                   "dim": filtered_dimension(ring_kind, an.data, an.weyl,
                                             an.rank, d)}
        return dumps_canonical(out), 0


# -- checking ----------------------------------------------------------------

def reference_row(reference: dict, job: tuple) -> Optional[dict]:
    kind = job[0]
    if kind == "word":
        rows = reference["words"].get(job[1], [])
        return rows[job[2]] if job[2] < len(rows) else None
    return reference[kind].get(job_key(job[1:]))


def check(job: tuple, text: str, code: int, reference: dict,
          expected: dict) -> Optional[str]:
    """None when the output is correct, else a one-line reason."""
    row = reference_row(reference, job)
    if row is None:
        return "no reference output for this job"
    if sha256(text) != row["sha256"]:
        return "output differs from the reference bytes"
    if code != row.get("exit", 0):
        return f"exit code {code}, reference {row.get('exit', 0)}"
    if job[0] == "verify":
        want = expected["verify"][f"{job[1]}:{job[2]}"]
        report = json.loads(text)
        got = {"ok": report["ok"],
               "dims_consistent": report["flags"]["dims_consistent"]}
        for key, value in got.items():
            if value != want[key]:
                return f"{key} is {value}, expected-verdict table says {want[key]}"
        if code != (0 if report["ok"] else 1):
            return f"exit code {code} disagrees with ok={report['ok']}"
    if job[0] == "membership":
        want = expected["membership"][job_key(job[1:])]["member"]
        if json.loads(text)["member"] != want:
            return "membership verdict differs from the expected-verdict table"
    return None
