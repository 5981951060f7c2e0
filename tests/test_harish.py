import random
import zlib
from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from superhc import harish
from superhc.apoly import APoly, Substitution
from superhc.catalog import CATALOG
from superhc.harish import (GeneratorsMissK, OrderNotIwasawa, gr_restriction,
                            invariants_up_to_degree, k_generating_letters,
                            verify_exact_sequence)
from superhc.linalg import kernel, linear_solver, span_basis
from superhc.liesuper import SuperVector
from superhc.pbw import accumulate
from superhc.rings import ANISOTROPIC, build_rank_one_model, generators
from superhc.scalars import Quad
from support import (adjoint, beta_of_vectors, gamma_preimage,
                     invariants_from_all_letters, oracle_adjoint,
                     shift_by_substitute)


def test_project_unit_and_pure_a():
    analysis = CATALOG["group-sl2"].build()
    ctx = analysis.ctx
    assert ctx.project_to_a(ctx.uea.one()) == APoly.const(1, Q(1))
    h = ctx.uea.generator(ctx.lo_a)
    assert ctx.project_to_a(h) == APoly.variable(1, 0)


def test_projection_refuses_what_is_not_in_iwasawa_order():
    # a word that is not a PBW monomial: a letter of a before one of n
    ctx = CATALOG["group-sl2"].build().ctx
    assert ctx.lo_a and ctx.rank
    with pytest.raises(OrderNotIwasawa):
        ctx.project_to_a({(ctx.lo_a, 0): Q(1)})


def test_project_and_gamma_rank_one_p2():
    # projection of beta(P2) is a^2 + 2qa; its rho shift is a^2 - q^2
    for q in (1, 2):
        model = build_rank_one_model(q, ANISOTROPIC, Q(1))
        analysis = CATALOG[f"rank1-aniso-q{q}"].build()
        ctx = analysis.ctx
        p2 = generators(analysis.model)[0]
        b2 = ctx.beta_from_g(p2)
        a = APoly.variable(1, 0)
        assert ctx.project_to_a(b2) == a * a + a.scale(Q(2 * q))
        assert ctx.hc_gamma(b2) == a * a - APoly.const(1, Q(q * q))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_shift_matches_substitute_on_the_catalog_images(name):
    # shifts through warm tables against the oracle substitution, on the
    # pure-a parts of the invariants at the entry's default degree, twice
    # over: by rho through the context's own rho_shift (as Gamma shifts), by
    # -rho and by a point with a zero coordinate
    entry = CATALOG[name]
    ctx = entry.build().ctx
    parts = [ctx.project_to_a(v) for v in
             invariants_up_to_degree(ctx, entry.default_degree).invariants]
    assert any(p.degree() >= 2 for p in parts)
    r = ctx.rank
    shifts = [(ctx.rho, ctx.rho_shift)]
    for values in ([-x for x in ctx.rho], [Q(3, 2)] + [0] * (r - 1)):
        shifts.append((values, Substitution(
            [APoly.variable(r, i) + APoly.const(r, x)
             for i, x in enumerate(values)])))
    for p in parts + parts:
        for values, shift in shifts:
            got = shift(p)
            want = shift_by_substitute(p, values)
            assert got == want and got.pretty() == want.pretty(), (p, values)


def test_gamma_linear_shift():
    analysis = CATALOG["group-osp12"].build()
    ctx = analysis.ctx
    h = ctx.uea.generator(ctx.lo_a)
    assert ctx.hc_gamma(h) == APoly.variable(1, 0) \
        + APoly.const(1, ctx.rho_triple[0][0])
    assert ctx.hc_gamma(ctx.uea.one()) == APoly.const(1, Q(1))


def test_invariants_degree_zero():
    analysis = CATALOG["group-sl2"].build()
    basis = invariants_up_to_degree(analysis.ctx, 0)
    assert len(basis.invariants) == 1
    assert basis.invariants[0] == {(): Q(1)}
    assert basis.companion == []


def test_invariants_group_sl2_contains_casimir():
    # the diagonal Casimir ef + fe + h^2/2 is invariant; found by the
    # nullspace and re-checked by the adjoint action
    analysis = CATALOG["group-sl2"].build()
    ctx = analysis.ctx
    g = analysis.pair.g
    basis = invariants_up_to_degree(ctx, 2)
    e = g.vector({"e.l": Q(1), "e.r": Q(1)})
    f = g.vector({"f.l": Q(1), "f.r": Q(1)})
    h = g.vector({"h.l": Q(1), "h.r": Q(1)})
    cas = ctx.word([e, f])
    for m, c in ctx.word([f, e]).items():
        cas[m] = cas.get(m, Q(0)) + c
    for m, c in ctx.word([h, h]).items():
        cas[m] = cas.get(m, Q(0)) + Q(1, 2) * c
    cas = {m: c for m, c in cas.items() if c}
    for x in analysis.pair.k_basis:
        assert adjoint(ctx.uea, ctx.to_adapted(x), cas) == {}
    # membership of cas in the span of the computed invariants
    from superhc.linalg import solve_membership
    assert solve_membership(cas, basis.invariants) is not None


def test_invariants_rank_one_q1_contains_beta_p2():
    analysis = CATALOG["rank1-aniso-q1"].build()
    ctx = analysis.ctx
    basis = invariants_up_to_degree(ctx, 2)
    b2 = ctx.beta_from_g(generators(analysis.model)[0])
    for x in analysis.pair.k_basis:
        assert adjoint(ctx.uea, ctx.to_adapted(x), b2) == {}
    from superhc.linalg import solve_membership
    assert solve_membership(b2, basis.invariants) is not None


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_to_adapted_gives_integral_coordinates_as_ints(name):
    # so the U(g) factor of a letter, and every word straightened from it,
    # builds no Fraction over integral coordinates
    ctx = CATALOG[name].build().ctx
    g = ctx.pair.g
    coords = [c for i in range(g.dim)
              for c in ctx.to_adapted(g.basis(i)).c.values()]
    assert any(type(c) is int for c in coords)
    assert not [c for c in coords if isinstance(c, Q) and c.denominator == 1]


@lru_cache(maxsize=None)
def context_and_solver(name):
    """The entry's Iwasawa context and a solver into its adapted basis,
    built apart from the context's table of letter coordinates."""
    ctx = CATALOG[name].build().ctx
    vectors = [*ctx.system.n_basis(), *ctx.pair.a_basis, *ctx.pair.k_basis]
    return ctx, linear_solver([v.c for v in vectors])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_to_adapted_equals_the_solver_on_rational_vectors(data):
    # the table of each letter's adapted coordinates, summed, against a
    # solve of the whole vector; integral coordinates come back as ints and
    # the others as Fractions
    ctx, solve = context_and_solver(data.draw(st.sampled_from(sorted(CATALOG))))
    dim = ctx.pair.g.dim
    coeffs = data.draw(st.dictionaries(
        st.integers(0, dim - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=dim))
    v = SuperVector(ctx.pair.g, coeffs)
    got = ctx.to_adapted(v)
    assert got.alg is ctx.adapted
    assert got.c == solve(v.c)
    for c in got.c.values():
        assert type(c) is int or (type(c) is Q and c.denominator != 1)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_invariants_and_gamma_hold_fractions_or_quads(name):
    # straightening runs on ints where it can; the invariants, their
    # companion basis and Gamma of each invariant or straightened word are
    # results, and hold Fractions or Quads only, as the results of linalg do
    ctx = CATALOG[name].build().ctx
    basis = invariants_up_to_degree(ctx, 3)
    assert basis.companion
    words = [ctx.uea.normal_form_word(m[::-1])
             for m in ctx.uea.monomials_up_to(3)]
    values = [c for v in basis.invariants + basis.companion for c in v.values()]
    values += [c for v in basis.invariants + words
               for c in ctx.hc_gamma(v).terms.values()]
    assert values
    assert all(isinstance(c, (Q, Quad)) for c in values), \
        {type(c) for c in values}


def test_companion_basis_lies_in_right_ideal_and_kernel():
    analysis = CATALOG["rank1-aniso-q1"].build()
    ctx = analysis.ctx
    basis = invariants_up_to_degree(ctx, 3)
    lo_k = ctx.lo_k
    for v in basis.companion:
        assert all(any(i >= lo_k for i in m) for m in v)
        assert ctx.hc_gamma(v) == APoly.zero(1)


def test_gr_restriction_pure_a_is_identity():
    analysis = CATALOG["group-sl2"].build()
    pair = analysis.pair
    g = pair.g
    # a itself: h.l - h.r
    ia = None
    p = {}
    # use the S(g) monomial (a-vector expanded over basis is not a single
    # generator here) -- instead test with the rank-one model where a is a
    # basis element
    model_analysis = CATALOG["rank1-aniso-q1"].build()
    mg = model_analysis.pair.g
    ia = mg.index("a")
    p = {(ia, ia): Q(3)}
    out = gr_restriction(model_analysis.pair, p)
    assert out == APoly(1, {(2,): Q(3)})


def test_gr_restriction_kills_perp_generators():
    analysis = CATALOG["rank1-aniso-q1"].build()
    mg = analysis.pair.g
    iw = mg.index("w1")
    assert gr_restriction(analysis.pair, {(iw,): Q(1)}) == APoly.zero(1)


def test_gr_restriction_rejects_non_p_support():
    analysis = CATALOG["rank1-aniso-q1"].build()
    mg = analysis.pair.g
    iv = mg.index("v1")
    with pytest.raises(ValueError):
        gr_restriction(analysis.pair, {(iv,): Q(1)})


@pytest.mark.parametrize("name", ["rank1-aniso-q1", "rank1-iso-q1",
                                  "group-sl2", "group-osp12"])
def test_degree_drop_law(name):
    from support import degree_drop_all
    assert degree_drop_all(CATALOG[name].build())


def test_verify_exact_sequence_degree_zero():
    ctx = CATALOG["group-sl2"].build().ctx
    basis = invariants_up_to_degree(ctx, 0)
    report = verify_exact_sequence(
        ctx, basis, [ctx.hc_gamma(v) for v in basis.invariants])
    assert (report["dim_invariants"], report["dim_kernel"],
            report["dim_image"]) == (1, 0, 1)
    assert report["kernel_maps_to_zero"] and report["dims_consistent"]


def test_verify_exact_sequence_rank_one_q1():
    analysis = CATALOG["rank1-aniso-q1"].build()
    basis = invariants_up_to_degree(analysis.ctx, 2)
    images = [analysis.ctx.hc_gamma(v) for v in basis.invariants]
    report = verify_exact_sequence(analysis.ctx, basis, images)
    assert report["kernel_maps_to_zero"]
    assert report["dims_consistent"]
    # the image contains a^2 - q^2
    a = APoly.variable(1, 0)
    target = a * a - APoly.const(1, Q(1))
    from superhc.linalg import solve_membership
    assert solve_membership(target.terms, [p.terms for p in images]) is not None


def test_multiplicativity_on_random_invariant_pairs():
    rng = random.Random(17)
    for name in ["rank1-aniso-q1", "group-sl2"]:
        analysis = CATALOG[name].build()
        ctx = analysis.ctx
        basis = invariants_up_to_degree(ctx, 2)
        for _ in range(20):
            u = basis.invariants[rng.randrange(len(basis.invariants))]
            v = basis.invariants[rng.randrange(len(basis.invariants))]
            assert ctx.hc_gamma(ctx.uea.multiply(u, v)) \
                == ctx.hc_gamma(u) * ctx.hc_gamma(v)


def test_weyl_invariance_of_images():
    for name in ["group-sl2", "group-osp12"]:
        analysis = CATALOG[name].build()
        basis = invariants_up_to_degree(analysis.ctx, 2)
        for v in basis.invariants:
            p = analysis.ctx.hc_gamma(v)
            for w in analysis.weyl.substitutions:
                assert w(p) == p


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_exact_sequence_rows_match_independent_runs(name):
    """Each per-degree row equals a fresh computation at that degree."""
    entry = CATALOG[name]
    ctx = entry.build().ctx
    top = entry.default_degree
    basis = invariants_up_to_degree(ctx, top)
    rows = verify_exact_sequence(
        ctx, basis, [ctx.hc_gamma(v) for v in basis.invariants])["rows"]
    assert [row["degree"] for row in rows] == list(range(top + 1))
    for e in range(top + 1):
        basis = invariants_up_to_degree(ctx, e)
        images = [ctx.hc_gamma(v).terms for v in basis.invariants]
        assert rows[e] == {
            "degree": e,
            "dim_invariants": len(basis.invariants),
            "dim_kernel": len(basis.companion),
            "dim_image": len(images) - len(kernel(images)),
        }


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_generator_rows_match_all_letter_rows(name):
    """Rows for a generating set of k give the same bases, to the byte, as
    rows for every non-diagonal letter of k."""
    entry = CATALOG[name]
    ctx = entry.build().ctx
    basis = invariants_up_to_degree(ctx, entry.default_degree)
    invariants, companion = invariants_from_all_letters(ctx,
                                                        entry.default_degree)
    assert basis.invariants == invariants
    assert basis.companion == companion


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_letter_of_k_kills_the_invariants(name):
    # rows are taken only for generators of k: check each invariant against
    # every letter of k, through the commutator-form oracle with no memo
    entry = CATALOG[name]
    ctx = entry.build().ctx
    for v in invariants_up_to_degree(ctx, entry.default_degree).invariants:
        for y in ctx.k_indices():
            assert oracle_adjoint(ctx.adapted, y, v) == {}, (y, v)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_diagonal_letters_and_generators_generate_k(name):
    # dense oracle: bracket the span with itself until its rank stops growing
    ctx = CATALOG[name].build().ctx
    alg = ctx.adapted
    k = set(ctx.k_indices())
    diagonal, k_gens = k_generating_letters(ctx)
    letters = [*diagonal, *k_gens]
    assert set(letters) <= k and len(set(letters)) == len(letters)
    span = span_basis([alg.basis(x).c for x in letters])
    while True:
        vecs = [SuperVector(alg, v) for v in span]
        grown = span_basis(span + [alg.bracket(u, w).c
                                   for u in vecs for w in vecs])
        if len(grown) == len(span):
            break
        span = grown
    assert len(span) == len(k)
    assert all(i in k for v in span for i in v)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_generating_set_missing_a_letter_raises(name, monkeypatch):
    # without its last generator the letters generate a proper subalgebra,
    # whose annihilator would hold extra "invariants"
    ctx = CATALOG[name].build().ctx
    chosen = harish._k_generators
    monkeypatch.setattr(harish, "_k_generators",
                        lambda *args: chosen(*args)[:-1])
    with pytest.raises(GeneratorsMissK):
        k_generating_letters(ctx)
    with pytest.raises(GeneratorsMissK):
        invariants_up_to_degree(ctx, 1)


def test_invariants_at_stretch_degree_group_osp12_8():
    basis = invariants_up_to_degree(CATALOG["group-osp12"].build().ctx, 8)
    assert (len(basis.invariants), len(basis.companion)) == (45, 40)


def test_gamma_preimage_roundtrip():
    analysis = CATALOG["rank1-aniso-q1"].build()
    ctx = analysis.ctx
    a = APoly.variable(1, 0)
    target = a * a - APoly.const(1, Q(1))
    pre = gamma_preimage(ctx, target, 2)
    assert pre is not None
    assert ctx.hc_gamma(pre) == target
    # unreachable element (odd polynomial a) has no invariant preimage
    assert gamma_preimage(ctx, a, 2) is None


def _oracle_monomials(parity, rng):
    """Random S(g) monomials of degree <= 4, letters in random order.

    Besides random draws (odd letters distinct), the list always holds an
    even letter repeated, two distinct odd letters against basis order, and
    an odd letter repeated, whose supersymmetrisation is zero.
    """
    dim = len(parity)
    evens = [i for i in range(dim) if not parity[i]]
    odds = [i for i in range(dim) if parity[i]]
    monos = []
    for degree in range(5):
        for _ in range(3):
            letters = []
            while len(letters) < degree:
                i = rng.randrange(dim)
                if not (parity[i] and i in letters):
                    letters.append(i)
            monos.append(tuple(letters))
    e, f = rng.choice(evens), rng.choice(evens)
    monos.append((e, f, e, e))
    if odds:
        x = rng.choice(odds)
        monos.append((x, e, e))
        monos.append((x, e, x))
    if len(odds) > 1:
        x, y = sorted(rng.sample(odds, 2))
        monos.append((y, e, x, e))
    return monos


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_supersymmetrisation_matches_permutation_oracle(name):
    # beta_of_vectors averages all n! orderings through ctx.word
    analysis = CATALOG[name].build()
    ctx = analysis.ctx
    g = analysis.pair.g
    rng = random.Random(zlib.crc32(name.encode()))
    monos = _oracle_monomials(g.parity, rng)
    for m in monos:
        want = beta_of_vectors(ctx, [g.basis(i) for i in m])
        assert ctx.beta_from_g({m: Q(1)}) == want, m
    # linear in p, repeated letters weighted by the multiset count
    coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in monos]
    want = {}
    for m, c in zip(monos, coeffs):
        accumulate(want, beta_of_vectors(ctx, [g.basis(i) for i in m]), c)
    p = {}
    for m, c in zip(monos, coeffs):
        p[m] = p.get(m, Q(0)) + c
    assert ctx.beta_from_g(p) == want


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_projected_gamma_of_sym_matches_full_supersymmetrisation(name):
    # Gamma(beta(p)) three ways: the projection-only walk, the projection of
    # the full supersymmetrisation, and the permutation oracle
    analysis = CATALOG[name].build()
    ctx = analysis.ctx
    g = analysis.pair.g
    rng = random.Random(zlib.crc32(b"gamma_of_sym:" + name.encode()))
    # every product of two letters, and random monomials of degree <= 4
    monos = [(i, j) for i in range(g.dim) for j in range(i, g.dim)
             if not (i == j and g.parity[i])] + _oracle_monomials(g.parity, rng)
    nonzero = 0
    for m in monos:
        want = ctx.hc_gamma(beta_of_vectors(ctx, [g.basis(i) for i in m]))
        assert ctx.gamma_of_sym({m: Q(1)}) == want, m
        assert ctx.hc_gamma(ctx.beta_from_g({m: Q(1)})) == want, m
        nonzero += bool(want)
    assert nonzero >= 3
    p = {}
    for m in monos:
        p[m] = p.get(m, Q(0)) + Q(rng.randint(-3, 3), rng.randint(1, 3))
    assert ctx.gamma_of_sym(p) == ctx.hc_gamma(ctx.beta_from_g(p))


def test_uea_beta_matches_permutation_oracle_on_group_osp12():
    ctx = CATALOG["group-osp12"].build().ctx
    adapted = ctx.adapted
    rng = random.Random(12)
    for m in _oracle_monomials(adapted.parity, rng):
        want = beta_of_vectors(ctx, [adapted.basis(i) for i in m])
        assert ctx.uea.beta({m: Q(3, 2)}) == {k: Q(3, 2) * c
                                              for k, c in want.items()}, m


# -- the projection-only product against the full product ---------------------

@lru_cache(maxsize=None)
def _oracle_context(name):
    ctx = CATALOG[name].build().ctx
    return ctx, invariants_up_to_degree(ctx, 2).invariants


def _combination(data, elements):
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(elements),
                                max_size=len(elements)))
    out = {}
    for c, elem in zip(coeffs, elements):
        accumulate(out, elem, Q(c))
    return out


@pytest.mark.parametrize("name", sorted(CATALOG))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_gamma_of_product_matches_full_product(name, data):
    ctx, invariants = _oracle_context(name)
    u = _combination(data, invariants)
    v = _combination(data, invariants)
    assert ctx.gamma_of_product(u, v) == ctx.hc_gamma(ctx.uea.multiply(u, v))
    # the same with up to three degree <= 2 PBW monomials added to each
    # factor, so that neither is k-invariant
    monomials = st.sampled_from(ctx.uea.monomials_up_to(2))
    for w in (u, v):
        extra = data.draw(st.lists(monomials, max_size=3, unique=True))
        accumulate(w, _combination(data, [{m: Q(1)} for m in extra]))
    assert ctx.gamma_of_product(u, v) == ctx.hc_gamma(ctx.uea.multiply(u, v))


@pytest.mark.parametrize("name", sorted(CATALOG))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_project_word_is_pure_a_part_of_normal_form(name, data):
    # random words of length <= 6, half of them with an odd letter repeated
    ctx, _ = _oracle_context(name)
    parity = ctx.adapted.parity
    letters = st.integers(0, len(parity) - 1)
    word = data.draw(st.lists(letters, max_size=4))
    odds = [i for i, p in enumerate(parity) if p]
    if odds and data.draw(st.booleans()):
        x = data.draw(st.sampled_from(odds))
        for _ in range(2):
            word.insert(data.draw(st.integers(0, len(word))), x)
    lo, hi = ctx.lo_a, ctx.lo_k
    want = {m: c for m, c in ctx.uea.normal_form_word(word).items()
            if all(lo <= i < hi for i in m)}
    assert ctx.uea.unscaled(ctx.project_word(word),
                            ctx.uea.word_divisor(word)) == want
