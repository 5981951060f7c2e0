"""Acceptance criteria, one test per criterion, each printing PASS/FAIL lines.

All identities are exact (tolerance zero).  Criterion 1 pins the images
of the rank-one generators: Gamma(beta(P_2)) = a^2 - q^2 and
Gamma(beta(P_{2q+1})) = a(a^2 - 1)...(a^2 - q^2).  The odd image is
confirmed independently of the PBW straightening by the matrix-built
osp(2|2q) of tests/test_realizations.py, which also rules out the value
(a - q)(a^2 - q^2)^q this criterion once stated.
"""

import json
import random
import time
import zlib
from fractions import Fraction as Q

from superhc.apoly import APoly
from superhc.builders import sl2
from superhc.catalog import CATALOG, verify_main_theorem
from superhc.cli import main as cli_main
from superhc.harish import invariants_up_to_degree
from superhc.liesuper import centralizer, verify_algebra
from superhc.pairs import iwasawa_check
from superhc.rings import (OddRootDatum, filtered_dimension, generators,
                           membership_J)
from superhc.serialization import algebra_to_json
from support import (anticenter_product, in_local_ring, rightmost_normal_form,
                     shift_by_substitute, solve_membership, substitute)

ENTRIES = ["rank1-aniso-q1", "rank1-aniso-q2", "rank1-iso-q1",
           "group-sl2", "group-osp12", "group-gl12"]

_cache = {}


def built(name):
    if name not in _cache:
        _cache[name] = CATALOG[name].build()
    return _cache[name]


def report_criterion(number, checks):
    ok = all(flag for _, flag in checks)
    for label, flag in checks:
        print(f"  [{'PASS' if flag else 'FAIL'}] {label}")
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: " + \
        ", ".join(label for label, flag in checks if not flag)


def test_criterion_1_rank_one_identities():
    checks = []
    for q in (1, 2):
        start = time.monotonic()
        analysis = built(f"rank1-aniso-q{q}")
        ctx = analysis.ctx
        p2, p2q1 = generators(analysis.model)
        a = APoly.variable(1, 0)
        u = a * a - APoly.const(1, Q(q * q))
        beta2 = ctx.beta_from_g(p2)
        checks.append((
            f"q={q}: project_to_a(beta(P2)) == a^2 + 2qa",
            ctx.project_to_a(beta2) == a * a + a.scale(Q(2 * q))))
        checks.append((
            f"q={q}: hc_gamma(beta(P2)) == a^2 - q^2",
            ctx.hc_gamma(beta2) == u))
        gamma_odd = ctx.hc_gamma(ctx.beta_from_g(p2q1))
        checks.append((
            f"q={q}: hc_gamma(beta(P{2*q+1})) == a(a^2-1)...(a^2-q^2)",
            gamma_odd == anticenter_product(q)))
        if q == 1:
            checks.append((
                "q=1: hc_gamma(beta(P3)) - hc_gamma(beta(P2)) == (a-1)(a^2-1)",
                gamma_odd - ctx.hc_gamma(beta2)
                == (a - APoly.const(1, Q(1))) * u))
        elapsed = time.monotonic() - start
        checks.append((f"q={q}: runtime {elapsed:.2f}s < 10s", elapsed < 10))
    report_criterion(1, checks)


def test_criterion_2_main_theorem_rank_one():
    start = time.monotonic()
    analysis = built("rank1-aniso-q1")
    report = verify_main_theorem(analysis, degree=3)
    basis = invariants_up_to_degree(analysis.ctx, 3)
    images = [analysis.ctx.hc_gamma(v) for v in basis.invariants]
    checks = [
        ("dim Gamma(U^k_{<=3}) == dim J(a)_{<=3}",
         report["rows"][-1]["dim_image"] == report["rows"][-1]["dim_J"]),
        ("every image polynomial passes membership_J",
         all(membership_J(p, analysis.data, analysis.weyl) for p in images)),
        ("kernel basis maps to 0 under Gamma",
         all(not analysis.ctx.hc_gamma(v).terms for v in basis.companion)),
    ]
    elapsed = time.monotonic() - start
    checks.append((f"runtime {elapsed:.1f}s < 60s", elapsed < 60))
    report_criterion(2, checks)


def test_criterion_3_group_type_I_equals_J():
    start = time.monotonic()
    report = verify_main_theorem("group-osp12", degree=4)
    checks = []
    for row in report["rows"]:
        d = row["degree"]
        checks.append((
            f"degree {d}: dim I == dim J == dim image "
            f"({row['dim_I']}, {row['dim_J']}, {row['dim_image']})",
            row["dim_I"] == row["dim_J"] == row["dim_image"]))
    elapsed = time.monotonic() - start
    checks.append((f"runtime {elapsed:.1f}s < 600s", elapsed < 600))
    report_criterion(3, checks)


def test_criterion_4_weyl_invariance():
    checks = []
    for name, degree in [("rank1-aniso-q1", 3), ("group-osp12", 4)]:
        analysis = built(name)
        basis = invariants_up_to_degree(analysis.ctx, degree)
        ok = True
        for v in basis.invariants:
            p = analysis.ctx.hc_gamma(v)
            for w in analysis.weyl.elements:
                if substitute(p, [APoly.linear(row) for row in w]) != p:
                    ok = False
        checks.append((f"{name}: w . Gamma(D) == Gamma(D) for all w, D", ok))
    report_criterion(4, checks)


def test_criterion_5_multiplicativity():
    rng = random.Random(2024)
    checks = []
    for name in ENTRIES:
        analysis = built(name)
        degree = CATALOG[name].default_degree
        basis = invariants_up_to_degree(analysis.ctx, degree)
        ctx = analysis.ctx
        ok = True
        for _ in range(50):
            u = basis.invariants[rng.randrange(len(basis.invariants))]
            v = basis.invariants[rng.randrange(len(basis.invariants))]
            if ctx.hc_gamma(ctx.uea.multiply(u, v)) \
                    != ctx.hc_gamma(u) * ctx.hc_gamma(v):
                ok = False
                break
        checks.append((f"{name}: Gamma(DD') == Gamma(D)Gamma(D') x50", ok))
    report_criterion(5, checks)


def _structural_suite(name):
    analysis = built(name)
    g = analysis.pair.g
    ctx = analysis.ctx
    uea = ctx.uea
    rng = random.Random(zlib.crc32(name.encode()))
    results = {}
    results["jacobi scan"] = verify_algebra(g) == []
    ok_confl = True
    ok_assoc = True
    for _ in range(200):
        w = tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 5)))
        if uea.normal_form_word(w) != rightmost_normal_form(uea, w):
            ok_confl = False
            break
    for _ in range(200):
        elems = []
        for _ in range(3):
            w = tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 2)))
            elems.append({w: Q(rng.randint(-2, 2) or 1)})
        a, b, c = [uea.multiply(e, uea.one()) for e in elems]
        if uea.multiply(uea.multiply(a, b), c) \
                != uea.multiply(a, uea.multiply(b, c)):
            ok_assoc = False
            break
    results["confluence x200"] = ok_confl
    results["associativity x200"] = ok_assoc
    from support import degree_drop_all
    results["degree-drop law (S(p) monomials deg <= 3)"] = \
        degree_drop_all(analysis)
    results["m1 even for all roots"] = all(
        r.m1 % 2 == 0 for r in analysis.system.roots)
    k1 = [v for v in analysis.pair.k_basis if v.parity == 1]
    p1 = [v for v in analysis.pair.p_basis if v.parity == 1]
    p0 = [v for v in analysis.pair.p_basis if v.parity == 0]
    ok_cent = True
    for _ in range(20):
        x = g.zero()
        for w in p0:
            x = x + w.scale(Q(rng.randint(-3, 3)))
        if len(centralizer(g, [x], k1)) - len(centralizer(g, [x], p1)) \
                != len(k1) - len(p1):
            ok_cent = False
            break
    results["centralizer dimension formula x20"] = ok_cent
    spaces = {r.lam: r.space0 + r.space1 for r in analysis.system.roots}
    ok_theta = True
    for lam, vs in spaces.items():
        opp = tuple(-x for x in lam)
        span = [v.c for v in spaces[opp]]
        for v in vs:
            if solve_membership(g.theta_apply(v).c, span) is None:
                ok_theta = False
    results["theta maps root spaces to opposites"] = ok_theta
    return results


def test_criterion_6_structural_suites():
    checks = []
    for name in ENTRIES:
        start = time.monotonic()
        results = _structural_suite(name)
        elapsed = time.monotonic() - start
        for label, ok in results.items():
            checks.append((f"{name}: {label}", ok))
        checks.append((f"{name}: runtime {elapsed:.1f}s < 60s", elapsed < 60))
    report_criterion(6, checks)


def test_criterion_7_invariant_ring_internals():
    checks = []
    for q in (1, 2):
        analysis = built(f"rank1-aniso-q{q}")
        ok = all(
            filtered_dimension("J", analysis.data, analysis.weyl, 1, d)
            == filtered_dimension("I", analysis.data, analysis.weyl, 1, d)
            for d in range(7))
        checks.append((f"q={q}: dim J_<=d == dim I_<=d for d <= 6", ok))
    for q in (1, 2):
        # the images of the two generators satisfy
        # f^2 = (u + q^2) prod_{j=1..q} (u + q^2 - j^2)^2
        analysis = built(f"rank1-aniso-q{q}")
        ctx = analysis.ctx
        p2, p2q1 = generators(analysis.model)
        u = ctx.hc_gamma(ctx.beta_from_g(p2))
        f = ctx.hc_gamma(ctx.beta_from_g(p2q1))
        rhs = u + APoly.const(1, Q(q * q))
        for j in range(1, q + 1):
            factor = u + APoly.const(1, Q(q * q - j * j))
            rhs = rhs * factor * factor
        checks.append((f"q={q}: f^2 == (u+q^2) prod_j (u+q^2-j^2)^2",
                       f * f == rhs))
    for q in (1, 2):
        from superhc.rings import ISOTROPIC, build_rank_one_model, odd_root_data
        from superhc.pairs import restricted_roots
        model = build_rank_one_model(q, ISOTROPIC, Q(0))
        system = restricted_roots(model.pair)
        datum = odd_root_data(system)[0]
        h0, al = APoly.variable(2, 0), APoly.variable(2, 1)
        ok = True
        for k in range(4):
            for ell in range(4):
                if ell < min(k, q):
                    continue
                if not in_local_ring("I", shift_by_substitute(
                        h0 ** k * al ** ell, datum.lam), datum):
                    ok = False
        checks.append((f"q={q}: isotropic shift stability", ok))
    analysis = built("rank1-iso-q1")
    datum = analysis.data[0]
    kl = [(k, ell) for k in range(4) for ell in range(4) if ell >= min(k, 1)]
    ok = all(
        in_local_ring("I", analysis.ctx.hc_gamma(analysis.ctx.beta_from_g(p)),
                      datum)
        for p in generators(analysis.model, kl=kl))
    checks.append(("q=1: Gamma(beta(p_kl)) in I for k,l <= 3", ok))
    report_criterion(7, checks)


def test_criterion_8_negative_controls(tmp_path, capsys):
    checks = []
    # planted Jacobi/antisymmetry defect detected through the CLI, exit 1
    data = algebra_to_json(sl2())
    data["brackets"].append({"i": 2, "j": 0, "out": [{"k": 1, "coeff": "1"}]})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code = cli_main(["validate", str(bad)])
    out = json.loads(capsys.readouterr().out)
    checks.append(("planted bracket defect: validate exits 1",
                   code == 1 and not out["valid"]))

    analysis = built("group-osp12")
    trunc = analysis.system.n_basis()[:-1]
    rep = iwasawa_check(analysis.pair, analysis.system, n_basis=trunc)
    checks.append(("truncated n: dimension mismatch reported", not rep["ok"]))

    analysis = built("rank1-aniso-q1")
    good = analysis.data[0]
    bad_datum = OddRootDatum(good.lam, good.q + 1, good.iso_class, good.c,
                             good.A_coords, good.a_coords, good.h0_coords,
                             good.a_perp, good.gated)
    report = verify_main_theorem(analysis, degree=3)
    dim_img = report["rows"][-1]["dim_image"]
    dim_bad = filtered_dimension("J", [bad_datum], analysis.weyl, 1, 3)
    checks.append(("planted wrong multiplicity: dims_match false",
                   dim_img != dim_bad and report["flags"]["dims_match"]))
    report_criterion(8, checks)
