"""Regressions pinning computed values where the source identities conflict.

The identity Gamma(beta(P_{2q+1})) = (a-q)(a^2-q^2)^q once stated for the
odd rank-one generator does not hold under the bracket relations the
rank-one models are built from.  The abstract models and the matrix-built
osp(2|2) and osp(2|4) of tests/test_realizations.py agree on the image
a(a^2-1)...(a^2-q^2), which that module also confirms by evaluating
beta(P_{2q+1}) on tensor powers of the natural representation.  These tests
freeze what the computation yields, its J-membership (which fails for
q = 2; see the README) and the point where the derivation of the old
identity breaks, so any future drift is caught explicitly.
"""

from fractions import Fraction as Q

from superhc.apoly import APoly
from superhc.catalog import CATALOG, Analysis, verify_main_theorem
from superhc.rings import (ANISOTROPIC, build_rank_one_model, generators,
                           membership_J)
from support import anticenter_product


def test_gamma_of_odd_generator_is_anticenter_product():
    for q in (1, 2):
        analysis = CATALOG[f"rank1-aniso-q{q}"].build()
        ctx = analysis.ctx
        _, p2q1 = generators(analysis.model)
        assert ctx.hc_gamma(ctx.beta_from_g(p2q1)) == anticenter_product(q)


def test_gamma_of_generators_q3():
    # the q = 3 model (dim g = 34); its J verdict is left open, as the
    # anisotropic J condition is (ROADMAP item 1)
    model = build_rank_one_model(3, ANISOTROPIC, Q(1))
    ctx = Analysis(model.pair, a_names=["a"], model=model).ctx
    p2, p7 = generators(model)
    a = APoly.variable(1, 0)
    assert ctx.gamma_of_sym(p2) == a * a - APoly.const(1, Q(9))
    assert ctx.gamma_of_sym(p7) == anticenter_product(3)


def test_verify_main_theorem_q3_degree_4():
    # the q = 3 model (dim g = 34) at degree 4, about 0.5 s: the largest
    # elimination tier-1 affords, with its dimensions frozen row by row
    model = build_rank_one_model(3, ANISOTROPIC, Q(1))
    report = verify_main_theorem(Analysis(model.pair, model=model), 4)
    assert report["ok"]
    rows = report["rows"]
    for key in ("dim_image", "dim_J", "dim_I"):
        assert [row[key] for row in rows] == [1, 1, 2, 2, 3], key
    assert [row["dim_invariants"] for row in rows] == [1, 1, 3, 3, 8]
    assert [row["dim_kernel"] for row in rows] == [0, 0, 1, 1, 5]


def test_anticenter_product_membership():
    # for q = 1 the computed image generates the same ring as the stated
    # one (a*u = v + u), so membership holds; for q = 2 the two rings
    # genuinely differ in degree 5 and membership fails
    a1 = CATALOG["rank1-aniso-q1"].build()
    assert membership_J(anticenter_product(1), a1.data, a1.weyl)
    a2 = CATALOG["rank1-aniso-q2"].build()
    assert not membership_J(anticenter_product(2), a2.data, a2.weyl)


def test_component_of_a_L2_is_not_invariant():
    # the S(p)-component of a * beta(P2) modulo the right ideal U(g)k is
    # a^3 + 2aW - (4/3)a, which the odd part of k does not annihilate;
    # this is the precise point where the stated generator-image identity
    # breaks down
    from support import solve_membership
    from superhc.pbw import sym_adjoint
    from support import sym_monomials_up_to
    analysis = CATALOG["rank1-aniso-q1"].build()
    g = analysis.pair.g
    ctx = analysis.ctx
    p2 = generators(analysis.model)[0]
    aL2 = ctx.uea.multiply(ctx.word([g.basis("a")]), ctx.beta_from_g(p2))
    gens = [g.index("a"), g.index("w1"), g.index("wt1")]
    monos = sym_monomials_up_to(g.parity, gens, 3)
    betas = [ctx.beta_from_g({m: Q(1)}) for m in monos]
    lo_k = ctx.lo_k
    all_m = sorted(set().union(*[set(b) for b in betas]) | set(aL2))
    kmonos = [m for m in all_m if any(i >= lo_k for i in m)]
    cols = betas + [{km: Q(1)} for km in kmonos]
    coords = solve_membership(aL2, cols)
    assert coords is not None
    component = {monos[t]: c for t, c in coords.items() if t < len(monos)}
    ia, iw, iwt = gens
    assert component == {(ia, ia, ia): Q(1), (ia, iw, iwt): Q(2),
                         (ia,): Q(-4, 3)}
    assert sym_adjoint(g, g.basis("v1"), component) != {}
    # the projection itself still matches the shifted product from the
    # homomorphism property: Gamma(a L2) = (a - 1)(a^2 - 1)
    a = APoly.variable(1, 0)
    assert ctx.hc_gamma(aL2) == (a - APoly.const(1, Q(1))) \
        * (a * a - APoly.const(1, Q(1)))
