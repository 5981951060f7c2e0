"""Command-line interface: validation, root data, invariants, membership.

All results are printed to stdout as canonical JSON (sorted keys); exit
status is 0 when every requested check holds, 1 on a verification failure
or negative verdict, 2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .catalog import CATALOG, Analysis, roots_report, verify_main_theorem
from .harish import invariants_up_to_degree
from .liesuper import verify_algebra
from .pairs import build_pair
from .pbw import accumulate
from .rings import ring_conditions
from .scalars import scalar_from_string, scalar_to_string
from .serialization import (algebra_from_json, conditions_to_json,
                            dumps_canonical, entry_from_json, poly_from_json,
                            poly_to_json, uea_to_json, words_from_json,
                            write_canonical)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# membership substitutes into each term, at a cost that grows steeply with
# its degree; 64 is 8 times the highest degree any test or benchmark asks
MAX_POLY_DEGREE = 64


class InputError(ValueError):
    pass


def _load_json_arg(arg: str):
    try:
        if arg.startswith("@"):
            with open(arg[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(arg)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON: {exc}") from exc


def _resolve_entry(name: str, direction) -> Analysis:
    """The built Analysis of a catalog name or an explicit entry file."""
    if name in CATALOG:
        return CATALOG[name].build(direction)
    try:
        data = _load_json_arg("@" + name if not name.startswith("@") else name)
    except InputError:
        raise InputError(f"unknown entry {name!r} "
                         f"(catalog: {sorted(CATALOG)}) and not a readable file")
    g, a_vectors, a_names, entry_name, default_degree = entry_from_json(data)
    violations = verify_algebra(g)
    if violations:
        raise InputError(f"algebra fails validation: {violations[:3]}")
    return Analysis(build_pair(g, a_vectors), direction, a_names=a_names,
                    name=entry_name, default_degree=default_degree)


def _degree(args, default_degree: int) -> int:
    if args.degree is None:
        return default_degree
    if args.degree < 0:
        raise InputError(f"degree must be a non-negative integer, "
                         f"got {args.degree!r}")
    return args.degree


def _parse_direction(arg: Optional[str]):
    if arg is None:
        return None
    return [scalar_from_string(x) for x in arg.split(",")]


def cmd_catalog(args) -> int:
    rows = [{"name": e.name, "description": e.description,
             "default_degree": e.default_degree}
            for e in CATALOG.values()]
    sys.stdout.write(dumps_canonical({"entries": rows}))
    return EXIT_OK


def cmd_validate(args) -> int:
    data = _load_json_arg("@" + args.file)
    g = algebra_from_json(data)
    violations = verify_algebra(g)
    out = {
        "file": args.file,
        "dim": g.dim,
        "valid": not violations,
        "violations": [
            {"check": v["check"], "at": list(v["at"])} for v in violations],
    }
    sys.stdout.write(dumps_canonical(out))
    return EXIT_OK if not violations else EXIT_FAIL


def cmd_roots(args) -> int:
    analysis = _resolve_entry(args.entry, _parse_direction(args.direction))
    sys.stdout.write(dumps_canonical(roots_report(analysis)))
    return EXIT_OK


def cmd_invariants(args) -> int:
    analysis = _resolve_entry(args.entry, _parse_direction(args.direction))
    degree = _degree(args, analysis.default_degree)
    basis = invariants_up_to_degree(analysis.ctx, degree)
    adapted = analysis.ctx.adapted
    # each invariant and companion is built as JSON text, written and
    # dropped in turn (write_canonical); everything else is computed before
    # the first byte is written
    out = {
        "entry": analysis.name,
        "degree": degree,
        "adapted_basis": list(adapted.names),
        "blocks": analysis.ctx.blocks,
        "dim_invariants": len(basis.invariants),
        "dim_ideal_part": len(basis.companion),
        "invariants": map(uea_to_json, basis.invariants),
        "ideal_part": map(uea_to_json, basis.companion),
        "gamma_images": [poly_to_json(analysis.ctx.hc_gamma(v), analysis.a_names)
                         for v in basis.invariants],
    }
    write_canonical(sys.stdout, out)
    return EXIT_OK


def cmd_gamma(args) -> int:
    analysis = _resolve_entry(args.entry, _parse_direction(args.direction))
    terms = words_from_json(_load_json_arg(args.element))
    g = analysis.pair.g
    adapted = analysis.ctx.adapted
    elem = {}
    for names, coeff in terms:
        factors = []
        for name in names:
            if name in g._index:
                factors.append(g.basis(name))
            elif name in adapted._index:
                factors.append(adapted.basis(name))
            else:
                raise InputError(f"unknown generator {name!r}")
        accumulate(elem, analysis.ctx.word(factors), coeff)
    projection = analysis.ctx.project_to_a(elem)
    out = {
        "entry": analysis.name,
        "element": uea_to_json(elem),
        "projection": poly_to_json(projection, analysis.a_names),
        # Gamma is the projection, rho-shifted (IwasawaContext.hc_gamma)
        "gamma": poly_to_json(analysis.ctx.rho_shift(projection),
                              analysis.a_names),
    }
    sys.stdout.write(dumps_canonical(out))
    return EXIT_OK


def cmd_membership(args) -> int:
    analysis = _resolve_entry(args.entry, _parse_direction(args.direction))
    poly = poly_from_json(_load_json_arg(args.poly), analysis.a_names)
    if poly.degree() > MAX_POLY_DEGREE:
        raise InputError(f"membership takes polynomials of degree at most "
                         f"{MAX_POLY_DEGREE}, got {poly.degree()}")
    conditions = conditions_to_json(ring_conditions(
        poly, args.ring, analysis.data, analysis.weyl,
        include_weyl=not args.no_weyl))
    out = {
        "entry": analysis.name,
        "ring": args.ring,
        "poly": poly_to_json(poly, analysis.a_names),
        "member": not conditions,
        "violated_conditions": conditions,
        "gated_roots": [[scalar_to_string(x) for x in d.lam]
                        for d in analysis.data if d.gated],
    }
    sys.stdout.write(dumps_canonical(out))
    return EXIT_FAIL if conditions else EXIT_OK


def cmd_verify(args) -> int:
    analysis = _resolve_entry(args.entry, _parse_direction(args.direction))
    degree = _degree(args, analysis.default_degree)
    seed = args.seed_local if args.seed_local is not None else args.seed
    t0 = time.monotonic()
    report = verify_main_theorem(analysis, degree=degree, seed=seed)
    if args.timing:
        sys.stderr.write(f"verify {analysis.name}: "
                         f"{time.monotonic() - t0:.3f}s\n")
    sys.stdout.write(dumps_canonical(report))
    return EXIT_OK if report["ok"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superhc",
        description="Exact Harish-Chandra toolkit for symmetric superpairs")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property sampling")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("validate", help="validate an algebra JSON file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    for name, fn, extra in [
            ("roots", cmd_roots, []),
            ("invariants", cmd_invariants, ["degree"]),
            ("gamma", cmd_gamma, ["element"]),
            ("membership", cmd_membership, ["poly", "ring"]),
            ("verify", cmd_verify, ["degree", "seed", "timing"])]:
        p = sub.add_parser(name)
        p.add_argument("entry", help="catalog entry name or explicit JSON file")
        p.add_argument("--direction", default=None,
                       help="comma-separated coordinates of the positivity "
                            "direction in a")
        if "seed" in extra:
            p.add_argument("--seed", type=int, default=None, dest="seed_local",
                           help="seed for randomized property sampling")
        if "degree" in extra:
            p.add_argument("--degree", type=int, default=None)
        if "element" in extra:
            p.add_argument("--element", required=True,
                           help="JSON (or @file) with words of generator names")
        if "poly" in extra:
            p.add_argument("--poly", required=True,
                           help="JSON (or @file) exponent map over the a-basis")
            p.add_argument("--ring", choices=["I", "J"], required=True)
            p.add_argument("--no-weyl", action="store_true",
                           help="drop the Weyl-invariance conditions")
        if "timing" in extra:
            p.add_argument("--timing", action="store_true",
                           help="print wall time to stderr")
        p.set_defaults(func=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    # every bad-input exception of the package derives from ValueError
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
