"""Capture reference.json: the output of every job the workloads can draw.

Run once per program version whose outputs are the reference, from the
root of the repository:

    python3 perfbench/capture_reference.py

Each job runs untraced in this fresh process.  Word queries are captured
through ``superhc gamma`` (a fresh build per word), so the warm session of
gamma-session is checked against an independent path; membership verdicts
are cross-checked against ``superhc membership``.  The captured verify and
membership verdicts must agree with expected_verdicts.json, or nothing is
written.
"""

from __future__ import annotations

import json
import random
import sys

import run
import workloads as W


def capture() -> dict:
    run.import_package()
    from superhc.catalog import CATALOG
    ref = {"source_sha256": run.source_sha256(),
           "verify": {}, "invariants": {}, "words": {}, "gamma_of_sym": {},
           "membership": {}, "filtered_dimension": {}}
    for entry, degree in W.VERIFY_JOBS:
        for seed in W.VERIFY_SEEDS:
            text, code = W.run_cli(W.cli_argv(("verify", entry, degree, seed)))
            report = json.loads(text)
            ref["verify"][f"{entry}:{degree}:{seed}"] = {
                "sha256": W.sha256(text), "exit": code, "ok": report["ok"],
                "dims_consistent": report["flags"]["dims_consistent"]}
    for entry, top in W.INVARIANT_LADDER.items():
        for degree in range(1, top + 1):
            text, code = W.run_cli(W.cli_argv(("invariants", entry, degree)))
            ref["invariants"][f"{entry}:{degree}"] = {
                "sha256": W.sha256(text), "exit": code}
    for entry in W.ENTRIES:
        names = CATALOG[entry].build().pair.g.names
        rng = random.Random(f"words:{entry}")
        rows = []
        for _ in range(W.WORD_POOL):
            word = [names[rng.randrange(len(names))]
                    for _ in range(rng.randint(*W.WORD_LENGTHS))]
            element = json.dumps({"terms": [{"word": word, "coeff": "1"}]})
            text, code = W.run_cli(["gamma", entry, "--element", element])
            rows.append({"word": word, "sha256": W.sha256(text), "exit": code})
        ref["words"][entry] = rows
    session = W.Session(ref)
    for entry in W.RANK_ONE:
        for i in range(len(session.gens[entry])):
            text, _ = session.run(("gamma_of_sym", entry, i))
            ref["gamma_of_sym"][f"{entry}:{i}"] = {
                "sha256": W.sha256(text), "gamma": json.loads(text)["gamma"]}
    session = W.Session(ref)
    for entry in W.RANK_ONE:
        for i in range(len(session.gens[entry])):
            poly = json.dumps(ref["gamma_of_sym"][f"{entry}:{i}"]["gamma"])
            for ring in W.RINGS:
                text, _ = session.run(("membership", entry, i, ring))
                member = json.loads(text)["member"]
                cli_text, _ = W.run_cli(["membership", entry, "--poly", poly,
                                         "--ring", ring])
                if json.loads(cli_text)["member"] != member:
                    raise SystemExit(f"membership {entry}:{i}:{ring}: session "
                                     "and CLI verdicts differ")
                ref["membership"][f"{entry}:{i}:{ring}"] = {
                    "sha256": W.sha256(text), "member": member}
    for entry in W.ENTRIES:
        for kind in W.FDIM_KINDS:
            for d in range(W.FDIM_MAX_DEGREE + 1):
                text, _ = session.run(("filtered_dimension", entry, kind, d))
                ref["filtered_dimension"][f"{entry}:{kind}:{d}"] = {
                    "sha256": W.sha256(text), "dim": json.loads(text)["dim"]}
    return ref


def disagreements(ref: dict, expected: dict) -> list:
    out = []
    for key, row in ref["verify"].items():
        want = expected["verify"][key.rsplit(":", 1)[0]]
        for flag in ("ok", "dims_consistent"):
            if row[flag] != want[flag]:
                out.append(f"verify {key}: {flag}={row[flag]}")
    for key, row in ref["membership"].items():
        if row["member"] != expected["membership"][key]["member"]:
            out.append(f"membership {key}: member={row['member']}")
    return out


def main() -> int:
    ref = capture()
    bad = disagreements(ref, W.load_json(W.EXPECTED))
    if bad:
        sys.stderr.write("captured verdicts disagree with the expected-verdict "
                         "table:\n  " + "\n  ".join(bad) + "\n")
        return 1
    with open(W.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
