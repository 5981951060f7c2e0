import random
from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from superhc.apoly import APoly, Substitution, monomials_up_to
from superhc.catalog import CATALOG
from superhc.harish import gr_restriction, invariants_up_to_degree
from superhc.linalg import accumulate, kernel, span_basis
from superhc.liesuper import verify_algebra
from superhc.pairs import a_perp_in_p, even_weyl_group, restricted_roots
from superhc.pbw import sym_adjoint, sym_adjoint_index, sym_multiply
from superhc.rings import (ANISOTROPIC, ISOTROPIC, BadIsoClass,
                           InconsistentRelations, OddRootDatum,
                           build_rank_one_model, coefficient_aNk,
                           filtered_dimension, generators, membership_I,
                           membership_J, odd_root_data, ring_conditions,
                           ring_degrees)
from support import (adjoint, change_basis, in_local_ring,
                     oracle_ring_conditions,
                     oracle_ring_degrees, shift_by_substitute, substitute,
                     sym_monomials_up_to)


def aniso_datum(q):
    analysis = CATALOG[f"rank1-aniso-q{q}"].build()
    return analysis, analysis.data[0]


def iso_datum():
    analysis = CATALOG["rank1-iso-q1"].build()
    return analysis, analysis.data[0]


# -- closed-form coefficients --------------------------------------------------

def test_coefficient_aNk_examples():
    assert coefficient_aNk(3, 1) == 3
    assert coefficient_aNk(5, 1) == 5
    # empty summation range gives zero
    assert coefficient_aNk(0, 1) == 0


# -- model construction ---------------------------------------------------------

def test_rank_one_q1_anisotropic_shape():
    model = build_rank_one_model(1, ANISOTROPIC, Q(1))
    g = model.algebra
    assert verify_algebra(g) == []
    # one even p generator and 2+2 odd generators
    p_even = [n for n, p in zip(g.names, g.parity)
              if p == 0 and g.theta.rows[g.index(n)].get(g.index(n)) == Q(-1)]
    assert p_even == ["a"]
    assert sum(g.parity) == 4
    # the even zero-weight part is the span of the bracket operators; the
    # relations force three independent ones at q = 1 (sp(2))
    m0 = [n for n in g.names if n[0] in "MN"]
    assert len(m0) == 3


def test_rank_one_q1_isotropic_shape():
    model = build_rank_one_model(1, ISOTROPIC, Q(0))
    g = model.algebra
    assert verify_algebra(g) == []
    assert len(model.pair.a_basis) == 2  # a_lam = span{h0, A_lam}
    # all [[y,y],y]-type triple brackets vanish
    for n1 in ("y1", "yt1"):
        for n2 in ("y1", "yt1"):
            for n3 in ("y1", "yt1"):
                inner = g.bracket(g.basis(n1), g.basis(n2))
                assert not g.bracket(inner, g.basis(n3))


def test_rank_one_q2_anisotropic_multiplicity_and_symplectic():
    model = build_rank_one_model(2, ANISOTROPIC, Q(1))
    g = model.algebra
    assert verify_algebra(g) == []
    system = restricted_roots(model.pair)
    assert sorted(r.m1 for r in system.roots) == [4, 4]
    # b^theta(x_i, x~_j) = 2 delta_ij on the symplectic basis x_i = v_i + w_i
    for i in (1, 2):
        xi = g.basis(f"v{i}") + g.basis(f"w{i}")
        for j in (1, 2):
            xtj = g.basis(f"vt{j}") + g.basis(f"wt{j}")
            assert g.b(xi, g.theta_apply(xtj)) == (Q(2) if i == j else Q(0))
            xj = g.basis(f"v{j}") + g.basis(f"w{j}")
            assert g.b(xi, g.theta_apply(xj)) == 0


def test_rank_one_bad_iso_class():
    with pytest.raises(BadIsoClass):
        build_rank_one_model(1, ISOTROPIC, Q(1))
    with pytest.raises(BadIsoClass):
        build_rank_one_model(1, ANISOTROPIC, Q(0))
    with pytest.raises(BadIsoClass):
        build_rank_one_model(1, "SOMETHING", Q(1))


@pytest.mark.parametrize("c", [Q(1), Q(2), Q(1, 3), Q(5)])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_aniso_model_from_supermatrices_has_the_rank_one_relations(q, c):
    g = build_rank_one_model(q, ANISOTROPIC, c).algebra
    x = g.basis
    br = g.bracket
    a = x("a")
    for i in range(1, q + 1):
        v, vt, w, wt = x(f"v{i}"), x(f"vt{i}"), x(f"w{i}"), x(f"wt{i}")
        assert (br(a, v), br(a, vt), br(a, w), br(a, wt)) == (w, wt, v, vt)
        for j in range(1, q + 1):
            vj, vtj, wj, wtj = x(f"v{j}"), x(f"vt{j}"), x(f"w{j}"), x(f"wt{j}")
            delta = a if i == j else g.zero()
            assert br(v, wtj) == -delta
            assert br(vt, wj) == delta
            assert not br(v, wj) and not br(vt, wtj)
            lo, hi = min(i, j), max(i, j)
            m, n, mt = x(f"M{lo}{hi}"), x(f"N{i}{j}"), x(f"Mt{lo}{hi}")
            assert (br(v, vj), br(v, vtj), br(vt, vtj)) == (m, n, mt)
            assert (br(w, wj), br(w, wtj), br(wt, wtj)) == (-m, -n, -mt)
        assert g.b(a, a) == g.b(v, vt) == -g.b(w, wt) == 1 / c
    minus = [n for i, n in enumerate(g.names) if g.theta.rows[i] == {i: Q(-1)}]
    plus = [n for i, n in enumerate(g.names) if g.theta.rows[i] == {i: Q(1)}]
    assert minus == ["a"] + [f"w{i}" for i in range(1, q + 1)] \
        + [f"wt{i}" for i in range(1, q + 1)]
    assert len(plus) == g.dim - len(minus)
    if q <= 2:
        assert verify_algebra(g) == []


# -- generators -----------------------------------------------------------------

def test_generators_q1_closed_form():
    model = build_rank_one_model(1, ANISOTROPIC, Q(1))
    g = model.algebra
    p2, p3 = generators(model)
    ia, iw, iwt = g.index("a"), g.index("w1"), g.index("wt1")
    assert p2 == {(ia, ia): Q(1), (iw, iwt): Q(2)}
    # P3 = a^3 + 3 a W  (evaluating a_{3,1} = 3)
    assert p3 == {(ia, ia, ia): Q(1), (ia, iw, iwt): Q(3)}


def test_generators_are_k_invariant():
    for q in (1, 2):
        model = build_rank_one_model(q, ANISOTROPIC, Q(1))
        g = model.algebra
        for p in generators(model):
            for n in range(1, q + 1):
                assert sym_adjoint(g, g.basis(f"v{n}"), p) == {}
                assert sym_adjoint(g, g.basis(f"vt{n}"), p) == {}


def test_generators_degree_2q_plus_1_is_the_unique_invariant():
    # brute-force oracle: the degree-(2q+1) invariant space of S(p) is
    # one-dimensional and spanned by the returned generator
    from superhc.linalg import ScalarMatrix, nullspace
    from support import sym_monomials_up_to
    for q in (1, 2):
        model = build_rank_one_model(q, ANISOTROPIC, Q(1))
        g = model.algebra
        p_gens = [g.index("a")] + [g.index(f"w{j+1}") for j in range(q)] \
            + [g.index(f"wt{j+1}") for j in range(q)]
        monos = [m for m in sym_monomials_up_to(g.parity, p_gens, 2 * q + 1)
                 if len(m) == 2 * q + 1]
        gens = [g.basis(f"v{j+1}") for j in range(q)] \
            + [g.basis(f"vt{j+1}") for j in range(q)]
        rows = {}
        for t, m in enumerate(monos):
            for gi, x in enumerate(gens):
                for tm, c in sym_adjoint(g, x, {m: Q(1)}).items():
                    rows.setdefault((gi, tm), {})[t] = c
        kern = nullspace(ScalarMatrix(len(rows), len(monos),
                                      [rows[k] for k in sorted(rows, key=repr)]))
        assert len(kern) == 1
        sol = {monos[t]: c for t, c in kern[0].items()}
        p2q1 = generators(model)[1]
        lead = tuple([g.index("a")] * (2 * q + 1))
        scale = p2q1[lead] / sol[lead]
        assert {m: scale * c for m, c in sol.items()} == p2q1


def test_generators_isotropic_p21():
    model = build_rank_one_model(1, ISOTROPIC, Q(0))
    g = model.algebra
    (p21,) = generators(model, kl=[(2, 1)])
    ih, ial, iz, izt = (g.index(n) for n in ("h0", "Al", "z1", "zt1"))
    # p_{2,1} = h0^2 A_lam + 2 h0 Z
    assert p21 == {(ih, ih, ial): Q(1), (ih, iz, izt): Q(2)}


def test_generators_isotropic_invariance():
    model = build_rank_one_model(2, ISOTROPIC, Q(0))
    g = model.algebra
    ps = generators(model, kl=[(2, 2), (3, 2), (1, 1)])
    for p in ps:
        for n in (1, 2):
            assert sym_adjoint(g, g.basis(f"y{n}"), p) == {}
            assert sym_adjoint(g, g.basis(f"yt{n}"), p) == {}


def test_adjoint_annihilates_p2_in_enveloping_algebra():
    # ad(y_n)(beta(P2)) = 0, asserted by direct computation
    analysis = CATALOG["rank1-aniso-q1"].build()
    ctx = analysis.ctx
    g = analysis.pair.g
    b2 = ctx.beta_from_g(generators(analysis.model)[0])
    assert adjoint(ctx.uea, ctx.to_adapted(g.basis("v1")), b2) == {}
    assert adjoint(ctx.uea, ctx.to_adapted(g.basis("vt1")), b2) == {}


# -- membership -----------------------------------------------------------------

def poly1(coeffs):
    """Univariate polynomial from a coefficient list, low degree first."""
    return APoly(1, {(k,): Q(c) for k, c in enumerate(coeffs) if c})


def test_membership_constants():
    _, datum = aniso_datum(1)
    assert in_local_ring("I", APoly.const(1, Q(7)), datum)
    assert in_local_ring("J", APoly.const(1, Q(7)), datum)


def test_membership_I_anisotropic_q1():
    _, datum = aniso_datum(1)
    a = APoly.variable(1, 0)
    assert not in_local_ring("I", a, datum)
    assert in_local_ring("I", a ** 3, datum)
    assert in_local_ring("I", a ** 2, datum)
    assert not in_local_ring("I", a ** 5 + a, datum)


def test_membership_J_anisotropic_generators():
    for q in (1, 2):
        _, datum = aniso_datum(q)
        a = APoly.variable(1, 0)
        u = a * a - APoly.const(1, Q(q * q))
        v = (a - APoly.const(1, Q(q))) * u ** q
        assert in_local_ring("J", u, datum)
        assert in_local_ring("J", v, datum)
        assert not in_local_ring("J", a, datum)


def test_membership_J_products_of_generators_up_to_degree_8():
    for q in (1, 2):
        _, datum = aniso_datum(q)
        a = APoly.variable(1, 0)
        u = a * a - APoly.const(1, Q(q * q))
        v = (a - APoly.const(1, Q(q))) * u ** q
        for i in range(5):
            for j in range(3):
                prod = u ** i * v ** j
                if prod.degree() <= 8:
                    assert in_local_ring("J", prod, datum)


def test_membership_isotropic_q1():
    analysis, datum = iso_datum()
    # coordinates: h0 is variable 0, A_lam is variable 1
    h0 = APoly.variable(2, 0)
    al = APoly.variable(2, 1)
    assert in_local_ring("I", h0 * h0 * al, datum)
    assert not in_local_ring("I", h0 * h0, datum)
    assert in_local_ring("I", al, datum)
    assert not in_local_ring("I", h0, datum)


def test_membership_isotropic_spanning_set():
    # h0^k A_lam^l with l >= min(k, q) lies in the ring; l < min(k, q) not
    for q in (1, 2):
        model = build_rank_one_model(q, ISOTROPIC, Q(0))
        system = restricted_roots(model.pair)
        datum = odd_root_data(system)[0]
        h0 = APoly.variable(2, 0)
        al = APoly.variable(2, 1)
        for k in range(5):
            for ell in range(5):
                p = h0 ** k * al ** ell
                assert in_local_ring("I", p, datum) \
                    == (ell >= min(k, q))


def test_odd_multiplicity_names_the_root_in_scalar_strings():
    # one odd root vector dropped from the positive odd root (1, 0) of
    # rank1-iso-q1 leaves it with odd multiplicity 1; the message prints
    # its coordinates as scalar strings, not as Fraction reprs
    system = restricted_roots(build_rank_one_model(1, ISOTROPIC, Q(0)).pair)
    root = next(r for r, pos in zip(system.roots, system.positive)
                if r.m1 and pos)
    del root.space1[1:]
    with pytest.raises(InconsistentRelations) as err:
        odd_root_data(system)
    assert str(err.value) == "odd multiplicity of (1, 0) is odd"


def test_isotropic_shift_stability():
    # the shift p -> p(. + lam) preserves the ring on the spanning set
    for q in (1, 2):
        model = build_rank_one_model(q, ISOTROPIC, Q(0))
        system = restricted_roots(model.pair)
        datum = odd_root_data(system)[0]
        h0 = APoly.variable(2, 0)
        al = APoly.variable(2, 1)
        for k in range(4):
            for ell in range(4):
                if ell < min(k, q):
                    continue
                p = h0 ** k * al ** ell
                shifted = shift_by_substitute(p, datum.lam)
                assert in_local_ring("I", shifted, datum)


def test_gamma_of_isotropic_generators_lands_in_ring():
    # Gamma(beta(p_kl)) in I_{lam, m_lam} for k, l <= 3, q = 1
    analysis, datum = iso_datum()
    ctx = analysis.ctx
    kl = [(k, ell) for k in range(4) for ell in range(4)
          if ell >= min(k, 1)]
    for p in generators(analysis.model, kl=kl):
        gamma = ctx.hc_gamma(ctx.beta_from_g(p))
        assert in_local_ring("I", gamma, datum)


def test_membership_J_full_system():
    analysis = CATALOG["group-gl12"].build()
    one = APoly.const(3, Q(1))
    assert membership_J(one, analysis.data, analysis.weyl)
    # a W0-non-invariant linear polynomial is rejected
    t2 = APoly.variable(3, 1)
    assert not membership_J(t2, analysis.data, analysis.weyl)
    # the central direction t1+t2+t3 is invariant and isotropic-compatible
    central = APoly.linear([Q(1), Q(1), Q(1)])
    assert membership_J(central, analysis.data, analysis.weyl)


def test_membership_J_matches_gamma_of_casimir_group_osp12():
    analysis = CATALOG["group-osp12"].build()
    from superhc.harish import invariants_up_to_degree
    basis = invariants_up_to_degree(analysis.ctx, 2)
    images = [analysis.ctx.hc_gamma(v) for v in basis.invariants]
    quadratics = [p for p in images if p.degree() == 2]
    assert quadratics
    for p in quadratics:
        assert membership_J(p, analysis.data, analysis.weyl)


# -- filtered dimensions ---------------------------------------------------------

def test_filtered_dimension_degree_zero():
    analysis, _ = aniso_datum(1)
    assert filtered_dimension("J", analysis.data, analysis.weyl, 1, 0) == 1
    assert filtered_dimension("I", analysis.data, analysis.weyl, 1, 0) == 1
    assert filtered_dimension("SW0", analysis.data, analysis.weyl, 1, 0) == 1


def test_filtered_dimension_rank_one_q1():
    analysis, _ = aniso_datum(1)
    # J up to degree 2 is span{1, a^2 - q^2}; I up to degree 3 adds a^3
    assert filtered_dimension("J", analysis.data, analysis.weyl, 1, 2) == 2
    assert filtered_dimension("I", analysis.data, analysis.weyl, 1, 3) == 3


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_ring_degrees_match_per_monomial_substitution(name):
    # the tables of monomial images the odd-root data and the Weyl group
    # keep, warm from one call to the next, against every monomial's
    # conditions substituted on its own; degrees run up on one analysis and
    # down on another, so that there every lower degree reads the prefix of
    # the Weyl group's basis of S(a)^W0 kept at the top degree
    analyses = [CATALOG[name].build() for _ in range(2)]
    top = 8 if analyses[0].model is not None else 6
    for analysis, degrees in zip(analyses,
                                 (range(top + 1), range(top, -1, -1))):
        for ring, include_weyl in (("J", True), ("I", True), ("SW0", True),
                                   ("I", False)):
            for d in degrees:
                args = (ring, analysis.data, analysis.weyl, analysis.rank, d,
                        include_weyl)
                assert ring_degrees(*args) == oracle_ring_degrees(*args), args


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_kept_ring_spans_answer_degrees_in_any_order(name):
    # one analysis asked in a shuffled degree order, so its kept spans grow,
    # are read below their top, and grow again; each answer against the
    # oracle on a fresh analysis at the top degree, cut at d (its basis runs
    # by degree); then the spans without W0 on the same Weyl group
    analysis, fresh = CATALOG[name].build(), CATALOG[name].build()
    top = 8 if analysis.model is not None else 6
    order = (3, 0, 5, top, 2, top)
    for ring, include_weyl in (("J", True), ("I", True), ("SW0", True),
                               ("I", False), ("J", False)):
        want = oracle_ring_degrees(ring, fresh.data, fresh.weyl, fresh.rank,
                                   top, include_weyl)
        for d in order:
            got = ring_degrees(ring, analysis.data, analysis.weyl,
                               analysis.rank, d, include_weyl)
            assert got == [t for t in want if t <= d], (ring, include_weyl, d)
            if include_weyl:
                assert filtered_dimension(ring, analysis.data, analysis.weyl,
                                          analysis.rank, d) == len(got)
    assert len(analysis.weyl.ring_spans) == 5


def test_a_hand_built_datum_list_gets_its_own_span():
    # a wrong multiplicity on the Weyl group of a warm analysis: the bad
    # list must not read the good data's span, nor the good list the bad
    analysis, fresh = CATALOG["rank1-aniso-q1"].build(), \
        CATALOG["rank1-aniso-q1"].build()

    def bad(good):
        return OddRootDatum(good.lam, good.q + 1, good.iso_class, good.c,
                            good.A_coords, good.a_coords, good.h0_coords,
                            good.a_perp, good.gated)

    weyl = analysis.weyl
    good_dim = filtered_dimension("J", analysis.data, weyl, 1, 6)
    bad_data = [bad(analysis.data[0])]
    bad_dim = filtered_dimension("J", bad_data, weyl, 1, 6)
    assert bad_dim != good_dim
    assert bad_dim == len(oracle_ring_degrees(
        "J", [bad(fresh.data[0])], fresh.weyl, 1, 6))
    assert filtered_dimension("J", analysis.data, weyl, 1, 6) == good_dim
    assert len(weyl.ring_spans) == 2


@lru_cache(maxsize=None)
def built(name):
    """One analysis per entry, shared by the examples of a test, so that its
    tables stay warm from one example to the next."""
    return CATALOG[name].build()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_ring_conditions_match_the_conditions_of_the_whole_polynomial(data):
    # each monomial's rows from the tables of the Weyl group and of the
    # odd-root data, summed over a polynomial of degree <= 6, against the
    # conditions read off the polynomial as a whole
    name = data.draw(st.sampled_from(sorted(CATALOG)))
    ring = data.draw(st.sampled_from(["I", "J", "SW0"]))
    include_weyl = data.draw(st.booleans())
    analysis = built(name)
    r = analysis.rank
    monos = monomials_up_to(r, 6)
    p = APoly(r, data.draw(st.dictionaries(
        st.sampled_from(monos),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        max_size=6)))
    args = (ring, analysis.data, analysis.weyl, include_weyl)
    assert ring_conditions(p, *args) == oracle_ring_conditions(p, *args)


def test_gamma_of_P5_stays_outside_J_through_the_tables():
    # rank1-aniso-q2: the J conditions of Gamma(beta(P_5)) do not vanish
    # (ROADMAP item 1), warm or cold, and equal those of the whole image
    analysis = CATALOG["rank1-aniso-q2"].build()
    image = analysis.ctx.gamma_of_sym(generators(analysis.model)[1])
    args = ("J", analysis.data, analysis.weyl)
    want = oracle_ring_conditions(image, *args)
    assert want
    for _ in range(2):
        assert ring_conditions(image, *args) == want
        assert not membership_J(image, analysis.data, analysis.weyl)


def tables(analysis):
    """(row tables, image tables): the tables of condition rows (with the
    Weyl group's basis of S(a)^W0 and its spans of each ring's rows) and of
    monomial images (with the context's Gamma o beta of S(g) monomials) an
    analysis keeps."""
    rows = [analysis.weyl._rows, analysis.weyl._basis,
            analysis.weyl.ring_spans]
    images = [analysis.ctx._beta_table]
    images += [s._table for s in analysis.weyl.generator_substitutions]
    for datum in analysis.data:
        rows += datum._rows.values()
        images.append(datum.coordinate_change._table)
    return rows, images


def sizes(analysis):
    return [[len(t) for t in kind] for kind in tables(analysis)]


def test_tables_start_empty_and_belong_to_one_analysis():
    for name in sorted(CATALOG):
        first, second = CATALOG[name].build(), CATALOG[name].build()
        # no condition rows, no basis of S(a)^W0, no ring span and no
        # Gamma o beta yet; a substitution's table holds only the image of
        # the constant monomial
        rows, images = sizes(first)
        beta, *substitutions = images
        assert set(rows) == {0} and beta == 0 and set(substitutions) <= {1}
        for kind in ("I", "J", "SW0"):
            filtered_dimension(kind, first.data, first.weyl, first.rank, 4)
        letters = {(i,): Q(1) for i in range(first.pair.g.dim)}
        first.ctx.gamma_of_sym(letters)
        (weyl_rows, weyl_basis, spans, *_), (beta, *_) = sizes(first)
        assert weyl_rows and weyl_basis and spans == 3
        assert beta == first.pair.g.dim
        assert sizes(second) == [rows, images]
        ids = {id(t) for kind in tables(first) for t in kind}
        assert not ids & {id(t) for kind in tables(second) for t in kind}
        # the oracles read each polynomial whole and fill no table
        for kind in ("I", "J", "SW0"):
            oracle_ring_degrees(kind, second.data, second.weyl, second.rank, 4)
        second.ctx.hc_gamma(second.ctx.beta_from_g(letters))
        assert sizes(second) == [rows, images]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_substitution_matches_the_power_oracle(data):
    # several polynomials through one Substitution and one
    # Substitution.linear, against the oracle substitute, with images of
    # degree <= 2
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    coeff = st.integers(-3, 3).map(Q)

    def poly(k, degree):
        exps = st.lists(st.integers(0, degree), min_size=k, max_size=k)
        return APoly(k, data.draw(st.dictionaries(exps.map(tuple), coeff,
                                                  max_size=4)))

    images = [poly(m, 2) for _ in range(n)]
    mat = [[data.draw(coeff) for _ in range(n)] for _ in range(n)]
    sub, linear = Substitution(images), Substitution.linear(mat)
    for _ in range(3):
        p = poly(n, 3)
        assert sub(p) == substitute(p, images)
        assert linear(p) == substitute(p, [APoly.linear(row) for row in mat])


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_substitutions_of_an_entry_match_the_power_oracle(name):
    # each substitution an entry owns -- the coordinate change of every odd
    # root, the action of every Weyl generator, and Gamma's rho shift -- and
    # the action of every Weyl element, against the oracle on images built
    # without it, on every monomial of degree <= 6 and on dense polynomials,
    # twice over, so the second pass reads warm tables
    analysis = CATALOG[name].build()
    r, weyl, ctx = analysis.rank, analysis.weyl, analysis.ctx
    cases = [(d.coordinate_change, d.coordinate_change.images)
             for d in analysis.data]
    for subs, mats in (([Substitution.linear(w) for w in weyl.elements],
                        weyl.elements),
                       (weyl.generator_substitutions, weyl.generators)):
        cases += [(s, [APoly.linear(row) for row in w])
                  for s, w in zip(subs, mats, strict=True)]
    cases.append((ctx.rho_shift, [APoly.variable(r, i) + APoly.const(r, x)
                                  for i, x in enumerate(ctx.rho)]))
    monos = monomials_up_to(r, 6)
    rng = random.Random(f"substitutions:{name}")
    polys = [APoly(r, {e: Q(1)}) for e in monos] + [
        APoly(r, {e: Q(rng.randint(-3, 3), rng.randint(1, 3)) for e in monos})
        for _ in range(3)]
    for _ in range(2):
        for sub, images in cases:
            for p in polys:
                assert sub(p) == substitute(p, images), (sub.images, p)


def test_gr_J_equals_I_dimensionwise():
    # dim J_{<= d} = dim I_{<= d} for d <= 6, q in {1, 2}
    for q in (1, 2):
        analysis, _ = aniso_datum(q)
        for d in range(7):
            dim_j = filtered_dimension("J", analysis.data, analysis.weyl, 1, d)
            dim_i = filtered_dimension("I", analysis.data, analysis.weyl, 1, d)
            assert dim_j == dim_i, (q, d)


def test_generator_relation_v2():
    # v^2 + 2q u^q v - u^{2q+1} = 0 for q = 1, 2, 3
    a = APoly.variable(1, 0)
    for q in (1, 2, 3):
        u = a * a - APoly.const(1, Q(q * q))
        v = (a - APoly.const(1, Q(q))) * u ** q
        zero = v * v + u ** q * v.scale(Q(2 * q)) - u ** (2 * q + 1)
        assert zero == APoly.zero(1)


def test_gated_roots_are_skipped():
    analysis = CATALOG["group-osp12"].build()
    assert all(d.gated for d in analysis.data)
    # membership then reduces to Weyl invariance
    t = APoly.variable(1, 0)
    assert not membership_J(t, analysis.data, analysis.weyl)
    assert membership_J(t * t, analysis.data, analysis.weyl)


@pytest.mark.parametrize("name", ["group-sl2", "group-osp12"])
def test_group_type_rings_are_the_polynomials_in_a_squared(name):
    # rank one with W0 = {1, -1}: I(a) and J(a) are C[a^2].  group-sl2 has
    # no odd root; the one odd root of group-osp12 is gated (2 lam is a
    # root), so it adds no condition.  a^k lies in each ring exactly when k
    # is even, and the degree <= d parts have dimension floor(d/2) + 1, so
    # each ring equals C[a^2] up to degree 8
    analysis = CATALOG[name].build()
    data, weyl = analysis.data, analysis.weyl
    a = APoly.variable(1, 0)
    for k in range(9):
        assert membership_J(a ** k, data, weyl) == (k % 2 == 0), k
        assert membership_I(a ** k, data, weyl) == (k % 2 == 0), k
    for d in range(9):
        for ring in ("J", "I"):
            assert filtered_dimension(ring, data, weyl, 1, d) == d // 2 + 1
    # and Gamma of each invariant at the default degree is even in a
    ctx = analysis.ctx
    basis = invariants_up_to_degree(ctx, CATALOG[name].default_degree)
    for v in basis.invariants:
        assert all(e[0] % 2 == 0 for e in ctx.hc_gamma(v).terms), v


def partitions(n, largest=None):
    """The partitions of n into parts of at most largest, as tuples."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1)
            for rest in partitions(n - k, k)]


def test_group_gl12_rings_are_spanned_by_super_power_sums():
    # group-gl12 has rank 3 and two isotropic odd roots.  Its J and I are
    # the algebra generated by p_k = a0^k - (-a1)^k - (-a2)^k: each product
    # p_lam with |lam| <= 6 lies in both rings, and the degree <= d parts of
    # their span and of each ring have the dimension of the supersymmetric
    # polynomials in (x | y1, y2), the number of partitions of size <= d in
    # the (1|2)-hook, lam_2 <= 2
    analysis = CATALOG["group-gl12"].build()
    data, weyl, top = analysis.data, analysis.weyl, 6
    a = [APoly.variable(3, i) for i in range(3)]
    power_sums = [None] + [a[0] ** k - (-a[1]) ** k - (-a[2]) ** k
                           for k in range(1, top + 1)]
    column = {e: t for t, e in enumerate(monomials_up_to(3, top))}
    products = []
    for n in range(top + 1):
        for lam in partitions(n):
            p = APoly.const(3, Q(1))
            for k in lam:
                p = p * power_sums[k]
            assert membership_J(p, data, weyl), lam
            assert membership_I(p, data, weyl), lam
            products.append({column[e]: c for e, c in p.terms.items()})
        hook = sum(1 for m in range(n + 1) for lam in partitions(m)
                   if len(lam) < 2 or lam[1] <= 2)
        assert len(span_basis(products)) == hook, n
        for ring in ("J", "I"):
            assert filtered_dimension(ring, data, weyl, 3, n) == hook, (ring, n)
    assert hook == 29


def test_odd_root_datum_fields():
    analysis, datum = aniso_datum(1)
    assert datum.iso_class == ANISOTROPIC
    assert datum.q == 1 and datum.c == Q(1)
    assert datum.a_coords == (Q(1),)
    analysis2, datum2 = iso_datum()
    assert datum2.iso_class == ISOTROPIC
    assert datum2.c == 0
    # lam(h0) = 1 and b(h0, h0) = 0
    lam = datum2.lam
    h0 = datum2.h0_coords
    assert sum((x * y for x, y in zip(lam, h0)), Q(0)) == Q(1)


# -- I(a) from its definition: the restriction of S(p)^k ------------------------

def chevalley_restriction(pair, d):
    """For n = 0..d, the restriction to S(a) of the degree-n part of S(p)^k.

    S(p) is taken over the basis a + a-perp of p, in an algebra rebased to
    that basis followed by k; S(p)^k is the kernel of k acting on S(p) by
    superderivations, and the restriction drops every monomial with a
    letter in a-perp.  Where p is spanned by letters of g, each restriction
    is also taken by gr_restriction, over the letters of g.
    """
    g, rank = pair.g, pair.rank
    p_basis = list(pair.a_basis) + a_perp_in_p(pair)
    alg = change_basis(g, p_basis + list(pair.k_basis),
                       [f"x{i}" for i in range(g.dim)])
    k_letters = range(len(p_basis), g.dim)
    letters = None
    if all(list(v.c.values()) == [1] for v in p_basis):
        # the letter of g that each basis vector of p is
        letters = [next(iter(v.c)) for v in p_basis]
    monos = sym_monomials_up_to(alg.parity, range(len(p_basis)), d)
    out = []
    for n in range(d + 1):
        degree_n = [m for m in monos if len(m) == n]
        restricted = []
        for v in kernel({(x, mt): c for x in k_letters
                         for mt, c in sym_adjoint_index(alg, x, {m: 1}).items()}
                        for m in degree_n):
            terms = {}
            for t, c in v.items():
                m = degree_n[t]
                if all(i < rank for i in m):
                    terms[tuple(m.count(i) for i in range(rank))] = c
            poly = APoly(rank, terms)
            if letters is not None:
                elem = {}
                for t, c in v.items():
                    prod = {(): c}
                    for i in degree_n[t]:
                        prod = sym_multiply(g.parity, prod, {(letters[i],): 1})
                    accumulate(elem, prod)
                assert gr_restriction(pair, elem) == poly
            restricted.append(poly)
        out.append(restricted)
    return out


def rank_one_pair(q):
    return build_rank_one_model(q, ANISOTROPIC, Q(1)).pair


@pytest.mark.parametrize("build, d", [
    (lambda: CATALOG["group-sl2"].build().pair, 6),
    (lambda: CATALOG["group-osp12"].build().pair, 6),
    (lambda: CATALOG["group-gl12"].build().pair, 4),
    (lambda: CATALOG["rank1-aniso-q1"].build().pair, 7),
    (lambda: CATALOG["rank1-iso-q1"].build().pair, 6),
    (lambda: CATALOG["rank1-aniso-q2"].build().pair, 7),
    (lambda: rank_one_pair(3), 9),
], ids=["group-sl2", "group-osp12", "group-gl12", "rank1-aniso-q1",
        "rank1-iso-q1", "rank1-aniso-q2", "rank1-aniso-q3"])
def test_I_conditions_cut_out_the_restriction_of_S_p_k(build, d):
    """In each degree, the restriction of S(p)^k to S(a), the paper's I(a),
    spans the kernel of the rings "I" conditions: every restriction meets
    them, and the two spaces have the same dimension."""
    pair = build()
    system = restricted_roots(pair)
    weyl, data = even_weyl_group(system), odd_root_data(system)
    images = chevalley_restriction(pair, d)
    for n, restricted in enumerate(images):
        assert all(not ring_conditions(p, "I", data, weyl) for p in restricted)
        monos = [e for e in monomials_up_to(pair.rank, n) if sum(e) == n]
        ring = kernel(ring_conditions(APoly(pair.rank, {e: Q(1)}), "I", data,
                                      weyl) for e in monos)
        assert len(span_basis(p.terms for p in restricted)) == len(ring), n
