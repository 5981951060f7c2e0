"""The Harish-Chandra projection, its rho shift, and k-invariants by degree.

Everything happens in an Iwasawa-adapted basis listing n first, then a,
then k.  In that PBW order an element decomposes as (pure-a part) plus
terms in n U(g) + U(g) k, so the projection D -> D_a is literally "keep
the monomials supported on the a block", and membership in the right ideal
U(g) k is "some monomial contains a k index".
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Dict, List, Sequence, Tuple

from .apoly import APoly, Substitution
from .linalg import (Echelon, Row, ScalarMatrix, kernel, linear_solver,
                     nullspace)
from .liesuper import LieSuperalgebra, SuperVector
from .pairs import (RestrictedRootSystem, SymmetricPair, a_perp_in_p, rho)
from .pbw import (Compact, Monomial, SymElement, UEA, UEAElement, accumulate,
                  accumulate_compact, compact, supersymmetrise, sym_multiply,
                  uncompact)
from .scalars import int_if_integral

Q = Fraction


class OrderNotIwasawa(ValueError):
    """A projection onto U(a) was asked of something not in n < a < k order."""


class GeneratorsMissK(Exception):
    """The letters chosen to generate k generate a proper subalgebra."""


class IwasawaContext:
    """A pair with a positive system, rebased to the n < a < k PBW order.

    The basis lists n at indices below lo_a, a from lo_a to lo_k and k from
    lo_k on; every projection onto U(a) reads these two bounds.
    """

    def __init__(self, pair: SymmetricPair, system: RestrictedRootSystem):
        self.pair = pair
        self.system = system
        g = pair.g
        n_basis = system.n_basis()
        a_basis = pair.a_basis
        k_basis = pair.k_basis
        vectors = list(n_basis) + list(a_basis) + list(k_basis)
        names = [f"n{i}" for i in range(len(n_basis))] \
            + [f"a{i}" for i in range(len(a_basis))] \
            + [f"k{i}" for i in range(len(k_basis))]
        self.blocks = ["N"] * len(n_basis) + ["A"] * len(a_basis) \
            + ["K"] * len(k_basis)
        # the adapted coordinates of each basis letter of the original
        # algebra, solved once: to_adapted is linear, and so is the bracket,
        # so the adapted brackets are sums of these rows too
        solve = linear_solver([v.c for v in vectors])
        self._coords = [solve({i: Q(1)}) for i in range(g.dim)]
        brackets = {}
        for i, x in enumerate(vectors):
            for j in range(i, g.dim):
                out = g.bracket(x, vectors[j])
                if out:
                    brackets[(i, j)] = self._adapted_row(out.c)
        self.adapted = LieSuperalgebra(names, [v.parity for v in vectors],
                                       brackets)
        self.uea = UEA(self.adapted)
        self.rank = len(a_basis)
        self.lo_a, self.lo_k = len(n_basis), len(n_basis) + self.rank
        self._proj_memo: Dict[Monomial, Compact] = {}
        # (rho, rho0, rho1), cross-checked once per context
        self.rho_triple = rho(system)
        self.rho = self.rho_triple[0]
        # Gamma's shift mu -> mu + rho: h_i goes to h_i + rho(h_i)
        self.rho_shift = Substitution(
            [APoly.variable(self.rank, i) + APoly.const(self.rank, x)
             for i, x in enumerate(self.rho)])
        # each basis letter of the original algebra as a scaled element
        # (y, s) of U(g): the letter is y / s
        self._letters = [self.uea.scaled(self.uea.from_vector(
            self.to_adapted(pair.g.basis(i)))) for i in range(pair.g.dim)]

    # -- conversions ---------------------------------------------------------
    def to_adapted(self, v: SuperVector) -> SuperVector:
        """v in the adapted basis, integral coordinates as ints."""
        return SuperVector(self.adapted, self._adapted_row(v.c))

    def _adapted_row(self, c: Row) -> Row:
        """The adapted coordinates of the vector with coordinates c in the
        original algebra, integral ones as ints: the sum of c's coordinates
        times the table of its letters' coordinates."""
        out: Row = {}
        for i, x in c.items():
            accumulate(out, self._coords[i], x)
        return {i: int_if_integral(out[i]) for i in sorted(out)}

    def k_indices(self) -> List[int]:
        return list(range(self.lo_k, self.adapted.dim))

    def word(self, factors: Sequence[SuperVector]) -> UEAElement:
        """Normal form of a product of elements of the original algebra, or
        of the adapted one.

        Each factor goes to UEA.normal_form scaled, as a pair (y, t) standing
        for y / t.  A vector v = sum c_i e_i of the original algebra is read
        off the context's letters, letter i being y_i / t_i: with
        t = lcm(t_i den(c_i)), y = sum c_i (t / t_i) y_i is integral, so no
        factor is solved into the adapted basis again."""
        return self.uea.normal_form([self._scaled_vector(v) for v in factors])

    def _scaled_vector(self, v: SuperVector) -> Tuple[UEAElement, int]:
        """(y, t) with v = y / t in the scaled basis of U(g) (see word)."""
        if v.alg is not self.pair.g:
            return self.uea.scaled(self.uea.from_vector(v))
        letters = self._letters
        t = lcm(*(letters[i][1] * c.denominator for i, c in v.c.items()))
        y: UEAElement = {}
        for i, c in v.c.items():
            y_i, t_i = letters[i]
            accumulate(y, y_i, c.numerator * (t // (t_i * c.denominator)))
        return y, t

    def beta_from_g(self, p: SymElement) -> UEAElement:
        """Supersymmetrisation of an S(g) element over the original basis."""
        return self.uea.unscaled(self._scaled_beta(p, self._times_letter))

    def _scaled_beta(self, p: SymElement, step, last=None) -> UEAElement:
        """supersymmetrise over the letters of the original algebra, in the
        scaled basis: each monomial's coefficient is divided by the product
        of its letters' divisors, so that step and last multiply by the
        integral y of each letter."""
        letters = self._letters
        p = {m: c * Q(1, prod(letters[i][1] for i in m)) for m, c in p.items()}
        return supersymmetrise(p, self.pair.g.parity, self.uea.one(), step,
                               last)

    def _times_letter(self, y: UEAElement, i: int) -> UEAElement:
        """y times letter i of the original algebra, in scaled coordinates,
        up to that letter's divisor."""
        return self.uea.scaled_product(y, self._letters[i][0])

    # -- the projection and its shift ----------------------------------------
    def project_to_a(self, u: UEAElement) -> APoly:
        """The pure-a part of u; u minus it lies in n U(g) + U(g) k."""
        lo, hi = self.lo_a, self.lo_k
        a_letters = range(lo, hi)
        terms: Dict[Tuple[int, ...], object] = {}
        for m, c in u.items():
            if m and (m[0] < lo or m[-1] >= hi):
                continue
            if not all(lo <= i < hi for i in m):
                raise OrderNotIwasawa("monomial escapes n U(g) + U(g) k")
            accumulate(terms, {tuple(map(m.count, a_letters)): c})
        return APoly(self.rank, terms)

    def project_word(self, word: Sequence[int]) -> UEAElement:
        """The pure-a part of y^word in the scaled basis of U(g) (see pbw),
        straightening only what can reach it.

        In the order n < a < k a word whose first letter is in n lies in
        n U(g), and one whose last letter is in k lies in U(g) k; both project
        to 0, so they are dropped at every step, and a PBW monomial that is
        not dropped is pure a.  Leading a letters factor out: U(a) is
        commutative and a normalises n, so the pure-a part of a Y is a times
        that of Y.  They are merged into each monomial of the rest's part,
        and only the rest is memoised, in pbw's compact form.  The result is
        a fresh dict.
        """
        return uncompact(self._project(tuple(word)))

    def _a_prefix(self, word: Monomial) -> int:
        """The number of leading a letters of word."""
        lo, hi = self.lo_a, self.lo_k
        p = 0
        while p < len(word) and lo <= word[p] < hi:
            p += 1
        return p

    def _project(self, word: Monomial) -> Compact:
        """The pure-a part of y^word in compact form; memoised for words with
        no leading a letter."""
        hit = self._proj_memo.get(word)
        if hit is not None:
            return hit
        p = self._a_prefix(word)
        if p:
            return compact(_merge_prefix(
                word[:p], uncompact(self._project(word[p:])).items()))
        if word and (word[0] < self.lo_a or word[-1] >= self.lo_k):
            res: Compact = ()
        else:
            steps = self.uea.rewrite(word)
            if steps is None:
                res = (word, 1)
            else:
                acc: UEAElement = {}
                for w, c in steps:
                    accumulate_compact(acc, self._project(w), c)
                res = compact(acc)
        self._proj_memo[word] = res
        return res

    def hc_gamma(self, u: UEAElement) -> APoly:
        """The rho-shifted projection: Gamma(u)(mu) = u_a(mu + rho)."""
        return self.rho_shift(self.project_to_a(u))

    def gamma_of_product(self, u: UEAElement, v: UEAElement) -> APoly:
        """Gamma(u v) without forming u v.

        Left monomials starting in n lie in n U(g) and right monomials ending
        in k lie in U(g) k, so those pairs are skipped; every other pair is
        straightened by project_word, which keeps only the pure-a part.
        """
        uea = self.uea
        (y, s), (z, t) = uea.scaled(u), uea.scaled(v)
        return self.hc_gamma(uea.unscaled(self._project_product(y, z), s * t))

    def _project_product(self, y: UEAElement, z: UEAElement) -> UEAElement:
        """The pure-a part of y z, in scaled coordinates.  The leading a
        letters of each left monomial are split off once and merged into
        each monomial of its row's part."""
        lo, hi = self.lo_a, self.lo_k
        right = [(m, c) for m, c in z.items() if not (m and m[-1] >= hi)]
        acc: UEAElement = {}
        for m1, c1 in y.items():
            if m1 and m1[0] < lo:
                continue
            p = self._a_prefix(m1)
            if not p:
                for m2, c2 in right:
                    accumulate_compact(acc, self._project(m1 + m2), c1 * c2)
                continue
            rest = m1[p:]
            part: UEAElement = {}
            for m2, c2 in right:
                accumulate_compact(part, self._project(rest + m2), c2)
            accumulate(acc, _merge_prefix(m1[:p], part.items()), c1)
        return acc

    def gamma_of_sym(self, p: SymElement) -> APoly:
        """Gamma(beta_from_g(p)) without forming beta_from_g(p).

        The supersymmetrisation walk drops, after each partial product, the
        monomials whose first letter is in n: they lie in n U(g), and stay
        there whatever is multiplied on their right.  The last letter is
        taken through project_word, as in gamma_of_product.  The walk runs in
        the scaled basis, as beta_from_g does.
        """
        lo = self.lo_a

        def step(y: UEAElement, i: int) -> UEAElement:
            return {m: c for m, c in self._times_letter(y, i).items()
                    if not (m and m[0] < lo)}

        return self.hc_gamma(self.uea.unscaled(self._scaled_beta(
            p, step,
            lambda y, i: self._project_product(y, self._letters[i][0]))))


def _merge_prefix(prefix: Monomial, terms) -> UEAElement:
    """The pure-a monomials prefix m, for the (m, c) of terms: U(a) is
    commutative, so prefix m is m with prefix's letters sorted in."""
    return {tuple(sorted(prefix + m)): c for m, c in terms}


# -- invariants ----------------------------------------------------------------

class InvariantBasis:
    """Bases of the k-invariants and of their right-ideal part, by degree."""

    def __init__(self, degree: int, invariants: List[UEAElement],
                 companion: List[UEAElement]):
        self.degree = degree
        self.invariants = invariants
        self.companion = companion


def _diagonal_weights(alg, k_idx: List[int]):
    """Split k indices into (diagonal ad action, other); weights per index.

    Each weight vector is scaled by the lcm of its denominators to ints:
    that leaves the weight-zero test w . m = 0 unchanged and makes it a sum
    of ints.
    """
    diag: Dict[int, List] = {}
    others: List[int] = []
    for x in k_idx:
        weights = [Q(0)] * alg.dim
        ok = True
        for j in range(alg.dim):
            out = alg.bracket_indices(x, j)
            extra = [t for t in out if t != j]
            if extra:
                ok = False
                break
            weights[j] = out.get(j, Q(0))
        if ok:
            den = lcm(*(w.denominator for w in weights))
            diag[x] = [w.numerator * (den // w.denominator) for w in weights]
        else:
            others.append(x)
    return diag, others


def _close(alg, span: Echelon, elems: List[SuperVector],
           letters: Sequence[int]) -> None:
    """Grow elems, a basis of the span, to the subalgebra generated by elems
    and letters; span keeps the echelon form of elems."""
    todo: List[Row] = [{x: Q(1)} for x in letters]
    while todo:
        r = todo.pop()
        if span.insert(r):
            v = SuperVector(alg, r)
            elems.append(v)
            todo.extend(alg.bracket(v, w).c for w in elems)


def _k_generators(alg, diag: List[int], others: List[int]) -> List[int]:
    """The letters of others, odd first, outside the subalgebra generated by
    diag and the letters kept before them.

    D is k-invariant iff ad x D = 0 for x in a generating set of k, because
    ad is a homomorphism; the weight filter already imposes the diagonal
    letters, so invariants need adjoint rows only for these.
    """
    span = Echelon()
    elems: List[SuperVector] = []
    _close(alg, span, elems, diag)
    kept: List[int] = []
    for x in sorted(others, key=lambda i: -alg.parity[i]):
        dim = len(elems)
        _close(alg, span, elems, [x])
        if len(elems) > dim:
            kept.append(x)
    return kept


def k_generating_letters(ctx: IwasawaContext
                         ) -> Tuple[Dict[int, List], List[int]]:
    """(diagonal, generators): the ad-weights of the k letters acting
    diagonally (see _diagonal_weights), and the other letters that together
    with them generate k (see _k_generators).

    Raises GeneratorsMissK if the bracket closure of these letters is a
    proper subalgebra of k.
    """
    alg = ctx.adapted
    diagonal, others = _diagonal_weights(alg, ctx.k_indices())
    generators = _k_generators(alg, list(diagonal), others)
    closure: List[SuperVector] = []
    _close(alg, Echelon(), closure, [*diagonal, *generators])
    dim_k = alg.dim - ctx.lo_k
    if len(closure) != dim_k:
        raise GeneratorsMissK(f"letters generate {len(closure)} of "
                              f"dim k = {dim_k}")
    return diagonal, generators


def invariants_up_to_degree(ctx: IwasawaContext, d: int) -> InvariantBasis:
    """Solve ad(x) D = 0 for generators x of k, over PBW monomials <= d.

    The diagonal letters of k act on monomials by weights, so they only
    select the weight-zero monomials, the only ones uea.monomials_up_to
    lists; the generators of k_generating_letters supply the rows.  The
    columns are ad(y_x) y^m in the scaled basis of U(g), which are integral,
    and each coefficient goes straight into the row of its (x, output
    monomial); the order of the rows changes the cost of the elimination,
    never its result.  Scaling the columns and rows of a matrix leaves its
    free columns, so each kernel vector w, with a 1 at its free monomial f,
    is brought back to PBW coordinates once and keeps that 1:
    v[m] = w[m] D^{len m - len f}.

    Ordering contract, on which the per-degree rows of verify_exact_sequence
    rest: the invariants are the reduced-echelon kernel over the monomials
    listed by degree, so each has a 1 at its own leading monomial, where
    every other invariant has 0, and is supported on monomials of no higher
    degree; the companion basis is again a reduced-echelon kernel over the
    invariants in this order.  Both lists therefore run by non-decreasing
    degree, and the degree <= e part of either span is spanned exactly by
    its basis vectors of degree <= e.
    """
    uea = ctx.uea
    diagonal, generators = k_generating_letters(ctx)
    kept = uea.monomials_up_to(d, list(diagonal.values()))
    rows: Dict[Tuple[int, Monomial], Row] = {}
    for t, m in enumerate(kept):
        for x in generators:
            for mt, c in uea.scaled_adjoint(x, {m: 1}).items():
                rows.setdefault((x, mt), {})[t] = c
    kern = nullspace(ScalarMatrix(len(rows), len(kept), list(rows.values())))
    invariants = [uea.unscaled({kept[t]: c for t, c in coords.items()},
                               uea.word_divisor(kept[max(coords)]))
                  for coords in kern]
    companion = _ideal_part(ctx, invariants)
    return InvariantBasis(d, invariants, companion)


def _ideal_part(ctx: IwasawaContext, invariants: List[UEAElement]
                ) -> List[UEAElement]:
    """Combinations of the invariants supported on monomials with a k index."""
    lo_k = ctx.lo_k
    out = []
    for coords in kernel({m: c for m, c in inv.items()
                          if not any(i >= lo_k for i in m)}
                         for inv in invariants):
        elem: UEAElement = {}
        for t, c in coords.items():
            accumulate(elem, invariants[t], c)
        out.append(elem)
    return out


def verify_exact_sequence(ctx: IwasawaContext, basis: InvariantBasis,
                          images: List[APoly]) -> dict:
    """Dimension bookkeeping for 0 -> ideal part -> invariants -> image -> 0.

    images are Gamma of the invariants in basis order.  rows holds one row
    per degree e <= basis.degree, read off the basis order of
    invariants_up_to_degree: the degree <= e parts are spanned by the basis
    vectors of degree <= e, so Gamma of the degree <= e invariants is
    spanned by the first n = dim_invariants images, and dim_image is the
    number of those that one Echelon, fed the images in order, takes in.
    The top-level dimensions are the top row.
    """
    kernel_ok = all(not ctx.hc_gamma(v).terms for v in basis.companion)
    inv_degrees = [max(map(len, v), default=0) for v in basis.invariants]
    ker_degrees = [max(map(len, v), default=0) for v in basis.companion]
    span = Echelon()
    independent = [span.insert(p.terms) for p in images]
    rows = []
    for e in range(basis.degree + 1):
        dim_inv = sum(1 for t in inv_degrees if t <= e)
        rows.append({
            "degree": e,
            "dim_invariants": dim_inv,
            "dim_kernel": sum(1 for t in ker_degrees if t <= e),
            "dim_image": sum(independent[:dim_inv]),
        })
    return {
        **rows[-1],
        "rows": rows,
        "kernel_maps_to_zero": kernel_ok,
        "dims_consistent": all(
            row["dim_invariants"] == row["dim_kernel"] + row["dim_image"]
            for row in rows),
    }


# -- the associated-graded restriction ----------------------------------------

def gr_restriction(pair: SymmetricPair, p: SymElement) -> APoly:
    """Project an S(p) element to S(a) along the complement of a in p.

    p is given over the basis of the ambient algebra; its support must lie
    inside p = a + a-perp.
    """
    g = pair.g
    adapted = list(pair.a_basis) + a_perp_in_p(pair)
    parities = [v.parity for v in adapted]
    solve = linear_solver([v.c for v in adapted])
    rank_a = len(pair.a_basis)

    cache: Dict[int, SymElement] = {}

    def expand(i: int) -> SymElement:
        """The letter i as a linear element of S(p) over the adapted basis."""
        if i not in cache:
            try:
                coords = solve({i: Q(1)})
            except ValueError:
                raise ValueError(f"generator {g.names[i]} is not in p")
            cache[i] = {(t,): v for t, v in coords.items()}
        return cache[i]

    acc: Dict[Tuple[int, ...], object] = {}
    for m, c in p.items():
        prod: SymElement = {(): c}
        for letter in m:
            prod = sym_multiply(parities, prod, expand(letter))
        for mono, v in prod.items():
            if all(t < rank_a for t in mono):
                e = [0] * rank_a
                for t in mono:
                    e[t] += 1
                accumulate(acc, {tuple(e): v})
    return APoly(rank_a, acc)
