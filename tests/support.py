"""Shared oracle helpers for the test-suite."""

import copy
from fractions import Fraction as Q
from itertools import combinations_with_replacement, permutations
from math import factorial

from superhc.apoly import APoly, monomials_of_degree
from superhc.builders import _gl_super, matrix_superalgebra
from superhc.harish import (_ideal_part, invariants_up_to_degree,
                            k_generating_letters)
from superhc.linalg import kernel, linear_solver, span_basis
from superhc.liesuper import (LieSuperalgebra, MixedAlgebras, SuperVector,
                              centralizer)
from superhc.pairs import a_perp_in_p
from superhc.pbw import UEA, accumulate
from superhc.rings import membership_conditions


def gauss_jordan(rows):
    """The reduced echelon rows of the span of sparse rows, keyed by pivot.

    Plain Gauss-Jordan over the rationals: every stored row has a unit
    pivot, and a new row is reduced, scaled by its leading entry and cleared
    from the rows before it.  The oracle for linalg.Echelon.
    """
    pivots = {}
    for row in rows:
        r = reduce_by(pivots, row)
        if not r:
            continue
        lead = min(r)
        inv = Q(1) / r[lead]
        r = {j: x * inv for j, x in r.items()}
        for prow in pivots.values():
            if lead in prow:
                coef = prow.pop(lead)
                for j, x in r.items():
                    if j != lead:
                        w = prow.get(j, Q(0)) - coef * x
                        if w:
                            prow[j] = w
                        else:
                            prow.pop(j, None)
        pivots[lead] = r
    return pivots


def solve_membership(v, basis):
    """Coordinates of v in the span of basis, or None if v is not in it.

    Vectors are sparse maps from any hashable coordinate to a scalar.  v is
    in the span iff some vector of the kernel of the columns (basis | v)
    ends at v's column (see linalg.nullspace); minus its other entries are
    then the coordinates, absent on the basis vectors that are free.
    """
    k = len(basis)
    for w in kernel([*basis, v]):
        if max(w) == k:
            return {j: -x for j, x in w.items() if j < k}
    return None


def change_basis(g, vectors, names):
    """g re-expressed in a new basis of parity-homogeneous vectors, with its
    brackets only: no form and no involution."""
    solve = linear_solver([v.c for v in vectors])
    brackets = {}
    for i, x in enumerate(vectors):
        for j in range(i, len(vectors)):
            out = g.bracket(x, vectors[j])
            if out:
                brackets[(i, j)] = solve(out.c)
    return LieSuperalgebra(names, [v.parity for v in vectors], brackets)


def reduce_by(pivots, row):
    """row minus its components along unit-pivot reduced echelon rows."""
    r = {j: x for j, x in row.items() if x}
    for c in [c for c in r if c in pivots]:
        coef = r.pop(c)
        for j, x in pivots[c].items():
            if j != c:
                w = r.get(j, Q(0)) - coef * x
                if w:
                    r[j] = w
                else:
                    r.pop(j, None)
    return r


def oracle_nullspace(rows, ncols):
    """The reduced echelon kernel basis of the matrix with these rows."""
    pivots = gauss_jordan(rows)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = {p: -pivots[p][f] for p in sorted(pivots) if f in pivots[p]}
            v[f] = Q(1)
            basis.append(v)
    return basis


def oracle_span_basis(rows):
    pivots = gauss_jordan(rows)
    return [{j: pivots[p][j] for j in sorted(pivots[p])} for p in sorted(pivots)]


def oracle_coordinates(basis, v):
    """Coordinates of v in an independent basis, or None outside its span:
    each basis row is tagged past every key, and v is reduced."""
    n = 1 + max((j for b in [*basis, v] for j in b), default=-1)
    pivots = gauss_jordan([{**b, n + t: Q(1)} for t, b in enumerate(basis)])
    residual = reduce_by(pivots, v)
    if any(j < n for j in residual):
        return None
    return {j - n: -x for j, x in sorted(residual.items())}


def substitute(p, images):
    """Full composition: variable i is replaced by images[i].  Powers of the
    images are built once per call, and no table outlives it: the oracle
    for apoly.Substitution."""
    if len(images) != p.n:
        raise ValueError("need one image per variable")
    m = images[0].n if images else p.n
    # powers[i][k] = images[i] ** k for k >= 1, each built once per call
    powers = [[None, im] for im in images]
    out = {}
    for e, c in p.terms.items():
        term = None
        for i, k in enumerate(e):
            if k:
                pw = powers[i]
                while len(pw) <= k:
                    pw.append(pw[-1] * images[i])
                term = pw[k] if term is None else term * pw[k]
        if term is None:
            accumulate(out, {(0,) * m: c})
        else:
            accumulate(out, term.terms, c)
    return APoly(m, out)


def oracle_ring_conditions(p, ring, data, weyl, include_weyl=True):
    """rings.ring_conditions read off p as a whole, not monomial by monomial:
    s_t(p) - p for each Weyl generator s_t, and each odd root's
    membership_conditions of p on a copy of its datum whose coordinate change
    is the oracle substitute.  No table of monomial images or of condition
    rows is read or written."""
    out = {}
    if include_weyl:
        for t, s in enumerate(weyl.generator_substitutions):
            for f, c in (substitute(p, s.images) - p).terms.items():
                out[("W", t, f)] = c
    if ring != "SW0":
        for datum in data:
            stand_in = copy.copy(datum)
            images = datum.coordinate_change.images
            stand_in.coordinate_change = lambda x, images=images: \
                substitute(x, images)
            out.update(membership_conditions(p, stand_in, ring))
    return out


def monomials_up_to(n, d):
    """Exponent vectors of n variables and total degree <= d, ordered by
    degree then lex."""
    return [e for total in range(d + 1) for e in monomials_of_degree(n, total)]


def oracle_ring_degrees(ring, data, weyl, rank, d, include_weyl=True):
    """rings.ring_degrees with every monomial's conditions computed on its
    own, through oracle_ring_conditions."""
    monos = monomials_up_to(rank, d)
    return [sum(monos[max(v)])
            for v in kernel(oracle_ring_conditions(APoly(rank, {e: Q(1)}),
                                                   ring, data, weyl,
                                                   include_weyl)
                            for e in monos)]


def sym_monomials_up_to(parity, indices, d):
    """Supercommutative monomials of degree <= d in the given generators."""
    out = []

    def gen(prefix, start, length):
        if length == 0:
            out.append(prefix)
            return
        for pos in range(start, len(indices)):
            i = indices[pos]
            gen(prefix + (i,), pos + 1 if parity[i] else pos, length - 1)

    for length in range(d + 1):
        gen((), 0, length)
    return out


def p_dims(pair):
    """(even, odd) dimensions of p."""
    ev = sum(1 for v in pair.p_basis if v.parity == 0)
    return ev, len(pair.p_basis) - ev


def apply(m, vec):
    """The product of a ScalarMatrix with a sparse row, as a sparse row."""
    out = {}
    for i, row in enumerate(m.rows):
        s = sum((a * vec[j] for j, a in row.items() if j in vec), Q(0))
        if s:
            out[i] = s
    return out


def evaluate(poly, point):
    """The value of an APoly at a point."""
    s = Q(0)
    for e, c in poly.terms.items():
        v = c
        for i, k in enumerate(e):
            for _ in range(k):
                v = v * point[i]
        s = s + v
    return s


def weyl_acts_on_functional(w, lam):
    r = len(lam)
    return tuple(sum((w[i][j] * lam[j] for j in range(r)), Q(0))
                 for i in range(r))


def invariants_from_all_letters(ctx, d):
    """(invariants, companion) as invariants_up_to_degree computes them, but
    with an adjoint row for every non-diagonal letter of k rather than only
    for the generators of k_generating_letters, each row in the commutator
    form e_x m - (-1)^{|x||m|} m e_x on a UEA of its own, and the
    weight-zero monomials picked from all of them: the slow path it is
    checked by."""
    uea = UEA(ctx.adapted)
    par = uea.parity
    diagonal, _ = k_generating_letters(ctx)
    weights = diagonal.values()
    letters = [x for x in ctx.k_indices() if x not in diagonal]
    kept = [m for m in uea.monomials_up_to(d)
            if all(sum((w[i] for i in m), Q(0)) == 0 for w in weights)]

    def ad(x, m):
        acc = dict(uea.normal_form_word((x,) + m))
        odd = par[x] and sum(par[t] for t in m) % 2
        accumulate(acc, uea.normal_form_word(m + (x,)), 1 if odd else -1)
        return acc

    kern = kernel({(x, mt): c for x in letters for mt, c in ad(x, m).items()}
                  for m in kept)
    invariants = [{kept[t]: c for t, c in coords.items()} for coords in kern]
    return invariants, _ideal_part(ctx, invariants)


def shift_by_substitute(p, values):
    """p(. + values) through the oracle substitute: variable i goes to
    h_i + values[i].  The oracle for Gamma's rho shift."""
    return substitute(p, [APoly.variable(p.n, i) + APoly.const(p.n, values[i])
                          for i in range(p.n)])


def beta_of_vectors(ctx, factors):
    """Supersymmetrised product of SuperVectors of the original algebra."""
    d = len(factors)
    if d == 0:
        return ctx.uea.one()
    pars = [v.parity for v in factors]
    odd_slots = [s for s in range(d) if pars[s]]
    acc = {}
    for arr in permutations(range(d)):
        sign = Q(1)
        placed = [arr.index(s) for s in odd_slots]
        for x in range(len(placed)):
            for y in range(x + 1, len(placed)):
                if placed[x] > placed[y]:
                    sign = -sign
        accumulate(acc, ctx.word([factors[arr[t]] for t in range(d)]),
                   sign / factorial(d))
    return acc


def anticenter_product(q):
    """a(a^2 - 1)(a^2 - 4)...(a^2 - q^2), the product of a + j for |j| <= q.

    The image Gamma(beta(P_{2q+1})) of the odd rank-one generator.
    """
    a = APoly.variable(1, 0)
    out = a
    for j in range(1, q + 1):
        out = out * (a * a - APoly.const(1, Q(j * j)))
    return out


def degree_drop_all(analysis, max_degree=3):
    """Gamma(beta(p)) - restriction(p) drops degree, for S(p) monomials.

    Runs over all monomials of degree <= max_degree in a basis of p adapted
    to a + a-perp; returns True iff the law holds everywhere.
    """
    pair = analysis.pair
    ctx = analysis.ctx
    adapted_p = list(pair.a_basis) + a_perp_in_p(pair)
    pars = [v.parity for v in adapted_p]
    for d in range(1, max_degree + 1):
        for combo in combinations_with_replacement(range(len(adapted_p)), d):
            if any(pars[i] == 1 and combo.count(i) > 1 for i in combo):
                continue
            beta = beta_of_vectors(ctx, [adapted_p[i] for i in combo])
            gamma = ctx.hc_gamma(beta)
            if all(i < pair.rank for i in combo):
                e = [0] * pair.rank
                for i in combo:
                    e[i] += 1
                restriction = APoly(pair.rank, {tuple(e): Q(1)})
            else:
                restriction = APoly.zero(pair.rank)
            if (gamma - restriction).degree() >= d and (gamma - restriction):
                return False
    return True


def derived_bracket(alg, i, j):
    """[e_i, e_j] read from alg.brackets alone, with Fraction values: the
    stored pair, else the stored mirror times -(-1)^{|i||j|}."""
    out = alg.brackets.get((i, j))
    sign = Q(1)
    if out is None:
        out = alg.brackets.get((j, i), {})
        sign = Q(1) if alg.parity[i] and alg.parity[j] else Q(-1)
    return {k: sign * Q(v) for k, v in out.items() if v}


def oracle_normal_form(alg, word):
    """The PBW normal form of a word, straightened at the leftmost violation
    over Fractions: brackets come from derived_bracket, and there is no memo
    and no bracket table.  The oracle for UEA.normal_form_word."""
    par = alg.parity
    out = {}
    todo = [(tuple(word), Q(1))]
    while todo:
        w, c = todo.pop()
        for pos in range(len(w) - 1):
            a, b = w[pos], w[pos + 1]
            if a > b or (a == b and par[a]):
                break
        else:
            out[w] = out.get(w, Q(0)) + c
            continue
        head, tail = w[:pos], w[pos + 2:]
        if a == b:
            todo.extend((head + (k,) + tail, Q(1, 2) * v * c)
                        for k, v in derived_bracket(alg, a, a).items())
        else:
            todo.append((head + (b, a) + tail, -c if par[a] and par[b] else c))
            todo.extend((head + (k,) + tail, v * c)
                        for k, v in derived_bracket(alg, a, b).items())
    return {w: c for w, c in out.items() if c}


def adjoint(uea, x, u):
    """ad(x) u for a homogeneous vector x of uea's algebra, letter by letter
    through UEA.adjoint_index."""
    if x.alg is not uea.alg:
        raise MixedAlgebras("adjoint by a vector from another algebra")
    if x.parity is None and x.c:
        raise ValueError("adjoint needs a homogeneous vector")
    acc = {}
    for i, c in x.c.items():
        accumulate(acc, uea.adjoint_index(i, u), c)
    return acc


def oracle_adjoint(alg, i, u):
    """ad(e_i) u = e_i u - (-1)^{|i||m|} u e_i, monomial by monomial, through
    oracle_normal_form.  The oracle for UEA.adjoint_index."""
    acc = {}
    for m, c in u.items():
        accumulate(acc, oracle_normal_form(alg, (i,) + m), c)
        odd = alg.parity[i] and sum(alg.parity[t] for t in m) % 2
        accumulate(acc, oracle_normal_form(alg, m + (i,)), c if odd else -c)
    return acc


def oracle_multiply(alg, u, v):
    """u v, word by word through oracle_normal_form.  The oracle for
    UEA.multiply, and folded over the factors for UEA.normal_form."""
    acc = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            accumulate(acc, oracle_normal_form(alg, m1 + m2), c1 * c2)
    return acc


def gamma_preimage(ctx, target, d):
    """An invariant D of degree <= d with Gamma(D) = target, or None."""
    basis = invariants_up_to_degree(ctx, d)
    images = [ctx.hc_gamma(v) for v in basis.invariants]
    coords = solve_membership(target.terms, [p.terms for p in images])
    if coords is None:
        return None
    out = {}
    for t, c in coords.items():
        accumulate(out, basis.invariants[t], c)
    return out


def derived_and_center(g):
    """(g' = [g,g], z(g)) as echelon bases."""
    derived = [SuperVector(g, v) for v in span_basis(
        g.bracket_indices(i, j) for i in range(g.dim) for j in range(g.dim))]
    center = centralizer(g, g.basis_vectors(), g.basis_vectors())
    return derived, center


def gl11():
    """gl(1|1); its declared decomposition is bogus (str(I) = 0), on purpose."""
    names, mats, par, sp = _gl_super(1, 1)
    g = matrix_superalgebra(names, mats, par, sp)
    ident = g.vector({"E00": Q(1), "E11": Q(1)})
    g.decomposition = {"center": [ident],
                       "ideals": [[g.basis("E01"), g.basis("E10"), ident]]}
    return g


def in_local_ring(ring, p, datum):
    """p lies in the local ring ("I" or "J") of the odd root of datum."""
    return not membership_conditions(p, datum, ring)
