import random
from fractions import Fraction as Q
from functools import lru_cache
from math import comb

import pytest

from superhc.builders import osp12, sl2
from superhc.catalog import CATALOG
from superhc.harish import invariants_up_to_degree, k_generating_letters
from superhc.pbw import (UEA, accumulate, sym_adjoint, sym_multiply,
                         uncompact)
from superhc.rings import ANISOTROPIC, ISOTROPIC, build_rank_one_model
from superhc.serialization import uea_to_json
from superhc.serialization import dumps_canonical
from superhc.catalog import verify_main_theorem
from support import (adjoint, change_basis, derived_bracket, oracle_adjoint,
                     oracle_degree, oracle_monomials_up_to, oracle_multiply,
                     oracle_normal_form, rightmost, rightmost_normal_form)


def random_element(uea, rng, max_len=3, terms=3):
    out = {}
    for _ in range(terms):
        w = tuple(rng.randrange(uea.dim) for _ in range(rng.randint(0, max_len)))
        accumulate(out, uea.normal_form_word(w), Q(rng.randint(-3, 3)))
    return out


def test_normal_form_single_letter():
    u = UEA(sl2())
    assert u.normal_form_word((1,)) == {(1,): Q(1)}


def test_normal_form_odd_square():
    # xi * xi = (1/2)[xi, xi]
    g = osp12()
    u = UEA(g)
    ix = g.index("x")
    br = g.bracket_indices(ix, ix)
    expected = {}
    for k, c in br.items():
        expected[(k,)] = Q(1, 2) * c
    assert u.normal_form_word((ix, ix)) == expected


def test_normal_form_two_step_reduction_oracle():
    # free-algebra two-step oracle: for odd x > y in the order,
    # xy = -yx + [x,y]
    m = build_rank_one_model(1, ANISOTROPIC, Q(1))
    g = m.algebra
    u = UEA(g)
    iyt, iz = g.index("vt1"), g.index("w1")  # vt1 < w1? check order below
    lo, hi = min(iyt, iz), max(iyt, iz)
    direct = u.normal_form_word((hi, lo))
    expected = {(lo, hi): Q(-1)}
    for k, c in g.bracket_indices(hi, lo).items():
        expected[(k,)] = expected.get((k,), Q(0)) + c
    expected = {k: v for k, v in expected.items() if v}
    assert direct == expected


def test_multiply_unit():
    u = UEA(sl2())
    v = u.normal_form_word((0, 1, 2))
    assert u.multiply(u.one(), v) == v
    assert u.multiply(v, u.one()) == v


def test_multiply_defining_relation():
    # xy - (-1)^{|x||y|} yx = [x, y]
    g = osp12()
    u = UEA(g)
    for i in range(g.dim):
        for j in range(g.dim):
            sign = Q(-1) if g.parity[i] and g.parity[j] else Q(1)
            lhs = u.multiply(u.generator(i), u.generator(j))
            accumulate(lhs, u.multiply(u.generator(j), u.generator(i)), -sign)
            rhs = {}
            for k, c in g.bracket_indices(i, j).items():
                rhs[(k,)] = c
            assert lhs == rhs


def test_associativity_on_random_triples():
    g = osp12()
    u = UEA(g)
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (random_element(u, rng, max_len=2, terms=2) for _ in range(3))
        assert u.multiply(u.multiply(a, b), c) == u.multiply(a, u.multiply(b, c))


def test_confluence_200_words():
    g = osp12()
    u = UEA(g)
    rng = random.Random(6)
    for _ in range(200):
        w = tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 5)))
        assert u.normal_form_word(w) == rightmost_normal_form(u, w)


def test_beta_degree_one_and_even_square():
    g = sl2()
    u = UEA(g)
    assert u.beta({(1,): Q(1)}) == {(1,): Q(1)}
    assert u.beta({(0, 0): Q(1)}) == u.multiply(u.generator(0), u.generator(0))


def test_beta_two_letters_vs_direct_definition():
    g = osp12()
    u = UEA(g)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            sign = Q(-1) if g.parity[i] and g.parity[j] else Q(1)
            direct = {}
            accumulate(direct, u.normal_form_word((i, j)), Q(1, 2))
            accumulate(direct, u.normal_form_word((j, i)), Q(1, 2) * sign)
            assert u.beta({(i, j): Q(1)}) == direct


def test_beta_of_int_coefficients_is_exact():
    # an int coefficient is a scalar like the equal Fraction: the Koszul
    # average divides it by n! exactly, never into a float
    g = osp12()
    u = UEA(g)
    for m in u.monomials_up_to(3):
        b = u.beta({m: 1})
        assert b == u.beta({m: Q(1)})
        assert not any(isinstance(c, float) for c in b.values()), m


def test_beta_is_filtered_section():
    # the image of beta(p) in gr equals p, for monomials of degree <= 3
    g = osp12()
    u = UEA(g)
    for m in u.monomials_up_to(3):
        b = u.beta({m: Q(1)})
        top = {w: c for w, c in b.items() if len(w) == len(m)}
        assert top == {m: Q(1)}


def test_adjoint_unit_and_degree_one():
    g = sl2()
    u = UEA(g)
    e = g.basis("e")
    assert adjoint(u, e, u.one()) == {}
    out = adjoint(u, e, u.generator("f"))
    expected = {(k,): c for k, c in g.bracket_indices(0, 2).items()}
    assert out == expected


def test_adjoint_is_graded_derivation():
    g = osp12()
    u = UEA(g)
    rng = random.Random(9)
    for _ in range(40):
        i = rng.randrange(g.dim)
        x = g.basis(i)
        a = random_element(u, rng, max_len=2, terms=2)
        b = random_element(u, rng, max_len=2, terms=2)
        lhs = adjoint(u, x, u.multiply(a, b))
        rhs = u.multiply(adjoint(u, x, a), b)
        # split b by parity for the Koszul sign
        for m, c in a.items():
            odd = sum(g.parity[t] for t in m) % 2
            sgn = Q(-1) if g.parity[i] and odd else Q(1)
            accumulate(rhs, u.multiply({m: sgn * c}, adjoint(u, x, b)))
        assert lhs == rhs


def test_adjoint_rank_one_paper_identity():
    # ad(y_n)(beta(Z)) = beta(A_lam z_n) with Z = z_1 z~_1 + ... + z_q z~_q
    m = build_rank_one_model(2, ISOTROPIC, Q(0))
    g = m.algebra
    u = UEA(g)
    Z = {}
    for j in (1, 2):
        Z[(g.index(f"z{j}"), g.index(f"zt{j}"))] = Q(1)
    y1 = g.basis("y1")
    lhs = adjoint(u, y1, u.beta(Z))
    rhs_sym = sym_multiply(g.parity, {(g.index("Al"),): Q(1)},
                           {(g.index("z1"),): Q(1)})
    assert lhs == u.beta(rhs_sym)
    # and the S(g)-level identity ad(y_n)(Z) = A_lam z_n itself
    assert sym_adjoint(g, y1, Z) == rhs_sym


def test_pbw_dimension_formula():
    # number of PBW monomials of degree <= d equals dim F_d from the
    # graded dimension of S(g)
    def sdim(m, n, d):
        return sum(comb(m + j - 1, j) * comb(n, d - j)
                   for j in range(max(0, d - n), d + 1))

    for g, (m, n) in [(sl2(), (3, 0)), (osp12(), (3, 2))]:
        u = UEA(g)
        for d in range(5):
            expected = sum(sdim(m, n, k) for k in range(d + 1))
            assert len(u.monomials_up_to(d)) == expected


def test_sym_multiply_signs():
    g = osp12()
    par = g.parity
    ix, iy = g.index("x"), g.index("y")
    # odd squares vanish in S(g)
    assert sym_multiply(par, {(ix,): Q(1)}, {(ix,): Q(1)}) == {}
    # odd swap costs a sign
    assert sym_multiply(par, {(iy,): Q(1)}, {(ix,): Q(1)}) == {(ix, iy): Q(-1)}


def test_serialization_golden():
    g = sl2()
    u = UEA(g)
    elem = u.multiply(u.generator("f"), u.generator("e"))
    payload = dumps_canonical(uea_to_json(elem))
    assert payload == ('[{"coeff":"-1","monomial":[1]},'
                       '{"coeff":"1","monomial":[0,2]}]\n')


def test_pbw_dimension_formula_catalog_algebras():
    from superhc.catalog import CATALOG

    def sdim(m, n, d):
        return sum(comb(m + j - 1, j) * comb(n, d - j)
                   for j in range(max(0, d - n), d + 1))

    for name in ["rank1-aniso-q1", "rank1-aniso-q2", "group-gl12"]:
        analysis = CATALOG[name].build()
        g = analysis.pair.g
        m = sum(1 for p in g.parity if p == 0)
        n = g.dim - m
        u = UEA(g)
        for d in range(5):
            expected = sum(sdim(m, n, k) for k in range(d + 1))
            assert len(u.monomials_up_to(d)) == expected


def test_weighted_monomials_are_the_weight_zero_ones():
    # the weights carried down the recursion against the sum over each
    # listed monomial, on the diagonal weights of k and on made-up ones
    for name in ["group-gl12", "group-osp12", "rank1-aniso-q2"]:
        ctx = CATALOG[name].build().ctx
        uea = ctx.uea
        rng = random.Random(f"weights:{name}")
        made_up = [[rng.randint(-1, 1) for _ in range(uea.dim)],
                   [Q(rng.randint(-2, 2), 2) for _ in range(uea.dim)]]
        diagonal, _ = k_generating_letters(ctx)
        for weights in [list(diagonal.values()), made_up]:
            for d in range(5):
                want = [m for m in uea.monomials_up_to(d)
                        if all(sum((w[i] for i in m), 0) == 0
                               for w in weights)]
                assert uea.monomials_up_to(d, weights) == want, (name, d)
    assert UEA(sl2()).monomials_up_to(-1, [[1, 0, -1]]) == []


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_monomials_match_the_combinations_oracle(name):
    # one degree past the default, with the diagonal weights of k and with
    # none: the recursion that ends on a table of letter pairs against
    # every multiset of letters, filtered and sorted
    entry = CATALOG[name]
    ctx = entry.build().ctx
    uea = ctx.uea
    d = entry.default_degree + 1
    weights = list(k_generating_letters(ctx)[0].values())
    assert uea.monomials_up_to(d, weights) \
        == oracle_monomials_up_to(uea.parity, d, weights)
    assert uea.monomials_up_to(d) == oracle_monomials_up_to(uea.parity, d)


# -- straightening against the Fraction-only oracle ----------------------------

STRAIGHTENING = sorted(CATALOG)


@lru_cache(maxsize=None)
def _analysis(name):
    return CATALOG[name].build()


def _random_word(parity, rng):
    """Up to four random letters; one time in three an odd letter is also
    inserted twice, so that odd squares get straightened."""
    word = [rng.randrange(len(parity)) for _ in range(rng.randint(0, 4))]
    odds = [i for i, p in enumerate(parity) if p]
    if odds and rng.randrange(3) == 0:
        x = rng.choice(odds)
        for _ in range(2):
            word.insert(rng.randint(0, len(word)), x)
    return tuple(word)


@pytest.mark.parametrize("name", STRAIGHTENING)
def test_bracket_indices_match_the_derivation(name):
    # the two-sided table against the super-antisymmetric derivation from
    # the stored pairs, for every pair; integral values come back as ints
    analysis = _analysis(name)
    for g in (analysis.pair.g, analysis.ctx.adapted):
        for i in range(g.dim):
            for j in range(g.dim):
                out = g.bracket_indices(i, j)
                assert out == derived_bracket(g, i, j), (i, j)
                assert not any(isinstance(v, Q) and v.denominator == 1
                               for v in out.values()), (i, j)


def _combination(g, rng):
    """Two random words' oracle normal forms with Fraction coefficients."""
    u = {}
    for _ in range(2):
        accumulate(u, oracle_normal_form(g, _random_word(g.parity, rng)),
                   Q(rng.randint(-3, 3), rng.choice((1, 2, 3))))
    return u


def _check_against_oracles(g, rng, project=None):
    """normal_form_word, multiply, normal_form and adjoint_index of a fresh
    UEA on g against the Fraction-only oracles, and normal_form_word against
    the rightmost oracle; project(word, want) checks more of each word and
    its normal form."""
    uea = UEA(g)
    for _ in range(100):
        word = _random_word(g.parity, rng)
        want = oracle_normal_form(g, word)
        assert uea.normal_form_word(word) == want, word
        assert rightmost_normal_form(uea, word) == want, word
        if project is not None:
            project(word, want)
    monomials = uea.monomials_up_to(3)
    for _ in range(30):
        i = rng.randrange(g.dim)
        m = rng.choice(monomials)
        # an int coefficient, as invariants_up_to_degree passes, and a
        # combination with Fraction coefficients
        assert uea.adjoint_index(i, {m: 1}) == oracle_adjoint(g, i, {m: Q(1)})
        u, v = _combination(g, rng), _combination(g, rng)
        assert uea.adjoint_index(i, u) == oracle_adjoint(g, i, u), (i, u)
        assert uea.multiply(u, v) == oracle_multiply(g, u, v), (u, v)
    for _ in range(10):
        factors = [g.vector({i: Q(rng.randint(-3, 3), rng.choice((1, 2)))
                             for i in rng.sample(range(g.dim), 2)})
                   for _ in range(rng.randint(0, 3))]
        want = {(): Q(1)}
        for x in factors:
            want = oracle_multiply(g, want, {(i,): c for i, c in x.c.items()})
        scaled = [uea.scaled(uea.from_vector(x)) for x in factors]
        assert uea.normal_form(scaled) == want, factors
    # degree-4 monomials holding two or more odd letters, acted on by odd
    # and even letters, so the Koszul sign of the derivation rule counts
    odd_letters = [i for i in range(g.dim) if g.parity[i]]
    pool = [m for m in uea.monomials_up_to(4)
            if len(m) == 4 and sum(g.parity[t] for t in m) >= 2]
    for t in range(12 if pool else 0):
        i = rng.choice(odd_letters) if t % 2 else rng.randrange(g.dim)
        m = rng.choice(pool)
        assert uea.adjoint_index(i, {m: 1}) == oracle_adjoint(g, i, {m: Q(1)}), \
            (i, m)
    return uea


@pytest.mark.parametrize("name", STRAIGHTENING)
def test_straightening_matches_the_fraction_oracle(name):
    ctx = _analysis(name).ctx
    g = ctx.adapted

    def project(word, want):
        # the word split at each place: the pure-a part of the product of
        # the two parts' normal forms is that of the word's
        for j in range(len(word) + 1):
            u, v = (oracle_normal_form(g, part)
                    for part in (word[:j], word[j:]))
            assert ctx.project_product_to_a(u, v) == ctx.project_to_a(want), \
                (word, j)

    _check_against_oracles(ctx.adapted, random.Random(f"straighten:{name}"),
                           project)


# -- the scaled basis ------------------------------------------------------------

def _rescaled(base, factors):
    """base rebased to its basis vectors times the given scalars."""
    g = base()
    return change_basis(g, [g.basis(n).scale(factors.get(n, Q(1)))
                            for n in g.names], g.names)


# algebras whose straightening needs a scale D > 1, with their D: h/3 in
# sl2; f/2 in sl2, whose halved constants give D = 2; the odd x/3 in osp12,
# whose square brings the halved odd square into D
RESCALED = {
    "sl2-h/3": (lambda: _rescaled(sl2, {"h": Q(1, 3)}), 3),
    "sl2-f/2": (lambda: _rescaled(sl2, {"f": Q(1, 2)}), 2),
    "osp12-x/3": (lambda: _rescaled(osp12, {"x": Q(1, 3)}), 9),
}


@pytest.mark.parametrize("name", sorted(RESCALED))
def test_scaled_straightening_matches_the_fraction_oracle(name):
    build, scale = RESCALED[name]
    g = build()
    uea = _check_against_oracles(g, random.Random(f"scaled:{name}"))
    assert uea.scale == scale
    # the memo holds the scaled basis' integral coefficients as ints; a
    # memo value is the compact normal form (w1, c1, w2, c2, ...), so its
    # coefficients are nf[1::2]
    for nf in uea._memo.values():
        for c in nf[1::2]:
            assert type(c) is int, c


def test_scale_of_the_catalog_algebras():
    # group type: a = h - h' and h + h' in k halve constants; anisotropic:
    # an odd square with an odd constant; the isotropic model needs none
    scales = {name: CATALOG[name].build().ctx.uea.scale for name in CATALOG}
    assert scales == {"group-gl12": 2, "group-osp12": 2, "group-sl2": 2,
                      "rank1-aniso-q1": 2, "rank1-aniso-q2": 2,
                      "rank1-aniso-q3": 2, "rank1-iso-q1": 1}


@lru_cache(maxsize=None)
def _warm_context(name):
    """The entry's context after verify at degree 2 and eight random words,
    so that the memo holds entries; tests only read it."""
    analysis = CATALOG[name].build()
    ctx = analysis.ctx
    verify_main_theorem(analysis, degree=2)
    g = analysis.pair.g
    rng = random.Random(f"words:{name}")
    for _ in range(8):
        ctx.word([g.basis(rng.randrange(g.dim)) for _ in range(4)])
    return ctx


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_memos_hold_ints_after_verify_and_words(name):
    ctx = _warm_context(name)
    uea = ctx.uea
    assert uea._memo
    for w, nf in uea._memo.items():
        # the coefficients of the compact form (w1, c1, w2, c2, ...)
        assert all(type(c) is int for c in nf[1::2]), w


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_memo_values_are_compact_normal_forms(name):
    """Every memo value is the flat tuple (w1, c1, w2, c2, ...) of words and
    nonzero coefficients with no repeated word, and holds the word's normal
    form."""
    uea = _warm_context(name).uea
    memo = uea._memo
    for w, nf in memo.items():
        assert type(nf) is tuple and len(nf) % 2 == 0, (w, nf)
        words, coeffs = nf[::2], nf[1::2]
        assert all(type(m) is tuple and all(type(i) is int for i in m)
                   for m in words), (w, nf)
        assert len(set(words)) == len(words), (w, nf)
        assert all(coeffs), (w, nf)
    # spot-check the content against the unmemoised straightening
    for w in list(memo)[::max(1, len(memo) // 40)]:
        assert uncompact(memo[w]) == rightmost(uea, w), w


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_public_results_are_fresh_dicts(name):
    # a caller that mutates a result must not change the next one: the
    # memo holds its own values, never the dicts it hands out, and the
    # projection of a product keeps nothing past its call
    ctx = CATALOG[name].build().ctx
    uea = ctx.uea
    top = uea.dim - 1
    words = [(), (0,), (top, 0), (0, top), (ctx.lo_a, top, 0),
             (top, ctx.lo_a), (ctx.lo_a, ctx.lo_a)]

    def project(word):
        # the pure-a part of the word's first letter times the rest
        return ctx.project_product_to_a(uea.normal_form_word(word[:1]),
                                        uea.normal_form_word(word[1:])).terms

    for call in (uea.normal_form_word, project):
        for word in words:
            first = call(word)
            want = dict(first)
            first[(99,)] = 7
            first.pop((), None)
            first.pop((0,) * ctx.rank, None)
            assert call(word) == want, (call.__name__, word)


# -- the straightening walk ------------------------------------------------------

def _one_letter_out_of_place(uea, weights, top):
    """(head, k, tail) for each word of length <= top that is a weight-zero
    PBW monomial with one letter appended or replaced."""
    out = set()
    for m in uea.monomials_up_to(top, weights):
        for k in range(uea.dim):
            if len(m) < top:
                out.add((m, k, ()))
            for j in range(len(m)):
                out.add((m[:j], k, m[j + 1:]))
    return sorted(out)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_walk_matches_the_rightmost_and_fraction_oracles(name):
    """Every word with one letter out of place, as the adjoint action and
    the products with a letter ask them, through the walk on a fresh UEA."""
    ctx = CATALOG[name].build().ctx
    uea, g = ctx.uea, ctx.adapted
    diagonal, _ = k_generating_letters(ctx)
    for head, k, tail in _one_letter_out_of_place(
            uea, list(diagonal.values()), oracle_degree(name, 4)):
        w = head + (k,) + tail
        got = uea.unscaled(uncompact(uea._placed(head, k, tail)),
                           uea.word_divisor(w))
        assert got == rightmost_normal_form(uea, w), w
        assert got == oracle_normal_form(g, w), w


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_walk_memoises_the_asked_word_and_shorter_ones(name):
    """A letter that moves two places left (appended) or right (replaced):
    the memo holds the word asked and words shorter than it, never the
    one-swap neighbour the walk passes through."""
    uea = CATALOG[name].build().ctx.uea
    for word, neighbour, straighten in [
            ((1, 2, 0), (1, 0, 2), lambda: uea.normal_form_word((1, 2, 0))),
            ((2, 0, 1), (0, 2, 1), lambda: uea._placed((), 2, (0, 1)))]:
        uea._memo.clear()
        straighten()
        assert word in uea._memo and neighbour not in uea._memo, word
        assert all(len(w) < len(word) for w in uea._memo if w != word), word
        assert uncompact(uea._memo[word]) == rightmost(uea, word), word


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_unkept_adjoint_matches_the_memoised_one(name):
    """ad(y_i) of every weight-zero monomial of the top degree, walked
    straight into the sum (keep false), has the terms the memoised adjoint
    gives, and leaves no word of that degree in the memo."""
    entry = CATALOG[name]
    top = entry.default_degree
    ctx = entry.build().ctx
    uea = ctx.uea
    weights = list(k_generating_letters(ctx)[0].values())
    monomials = [m for m in uea.monomials_up_to(top, weights)
                 if len(m) == top]
    assert monomials
    unkept = {(i, m): uea.scaled_adjoint(i, {m: 1}, keep=False)
              for m in monomials for i in range(uea.dim)}
    assert uea._memo
    assert all(len(w) < top for w in uea._memo)
    for (i, m), terms in unkept.items():
        assert terms == uea.scaled_adjoint(i, {m: 1}), (i, m)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_unkept_adjoint_matches_the_oracle(name):
    """ad(e_i) of every weight-zero monomial of the top default degree
    (capped as ORACLE_DEGREE_CAP says), walked from its pieces straight
    into the sum (keep false) and converted as adjoint_index converts it,
    against oracle_adjoint, which straightens e_i m and m e_i at the
    leftmost violation over Fractions and shares no walk with it."""
    entry = CATALOG[name]
    top = oracle_degree(name, entry.default_degree)
    ctx = entry.build().ctx
    uea = ctx.uea
    weights = list(k_generating_letters(ctx)[0].values())
    monomials = [m for m in uea.monomials_up_to(top, weights)
                 if len(m) == top]
    assert monomials
    for m in monomials:
        y, s = uea.scaled({m: 1})
        for i in range(uea.dim):
            got = uea.unscaled(uea.scaled_adjoint(i, y, keep=False),
                               uea.scale * s)
            assert got == oracle_adjoint(ctx.adapted, i, {m: 1}), (i, m)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_solve_keeps_no_word_of_the_top_degree(name):
    entry = CATALOG[name]
    ctx = entry.build().ctx
    d = entry.default_degree
    invariants_up_to_degree(ctx, d)
    assert ctx.uea._memo
    assert all(len(w) < d for w in ctx.uea._memo)
