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
from .linalg import (Echelon, Row, ScalarMatrix, integral_row,
                     linear_solver, nullspace)
from .liesuper import LieSuperalgebra, SuperVector
from .pairs import (RestrictedRootSystem, SymmetricPair, a_perp_in_p, rho)
from .pbw import (Monomial, SymElement, UEA, UEAElement, accumulate,
                  supersymmetrise, sym_multiply, times_last)
from .scalars import int_if_integral, ratio

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
        # algebra, solved once, ints where integral: a change of basis is
        # linear, and so is the bracket, so the adapted brackets are sums
        # of these rows too
        solve = linear_solver([v.c for v in vectors])
        self._coords = [solve({i: 1}) for i in range(g.dim)]
        # each vector scaled to integers once, y_i = s_i v_i, so that
        # [v_i, v_j] = [y_i, y_j] / (s_i s_j) brackets ints only
        scaled = [integral_row(v.c) for v in vectors]
        ys = [SuperVector(g, y) for y, _ in scaled]
        brackets = {}
        for i, (_, s) in enumerate(scaled):
            for j, out in enumerate(g.bracket_each(ys[i], ys[i:]), start=i):
                if out:
                    brackets[(i, j)] = self._adapted_row(out.c,
                                                         s * scaled[j][1])
        self.adapted = LieSuperalgebra(names, [v.parity for v in vectors],
                                       brackets)
        self.uea = UEA(self.adapted)
        self.rank = len(a_basis)
        self.lo_a, self.lo_k = len(n_basis), len(n_basis) + self.rank
        # the pure-a part of beta(m), an APoly, for each S(g) monomial m that
        # gamma_of_sym has been asked (see there)
        self._beta_table: Dict[Monomial, APoly] = {}
        # (rho, rho0, rho1), cross-checked once per context
        self.rho_triple = rho(system)
        self.rho = self.rho_triple[0]
        # Gamma's shift mu -> mu + rho: h_i goes to h_i + rho(h_i)
        self.rho_shift = Substitution(
            [APoly.variable(self.rank, i) + APoly.const(self.rank, x)
             for i, x in enumerate(self.rho)])
        # each basis letter of the original algebra as a scaled element
        # (y, s) of U(g), read off its adapted coordinates: the letter is
        # y / s
        self._letters = [self.uea.scaled({(j,): c for j, c in row.items()})
                         for row in self._coords]

    # -- conversions ---------------------------------------------------------
    def _adapted_row(self, c: Row, s: int = 1) -> Row:
        """The adapted coordinates of the vector with coordinates c / s in
        the original algebra, integral ones as ints: the sum of c's
        coordinates times the table of its letters' coordinates, divided
        by s."""
        out: Row = {}
        for i, x in c.items():
            accumulate(out, self._coords[i], x)
        if s != 1:
            out = {i: Q(x, s) for i, x in out.items()}
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
        times = self._times_letter
        return self.uea.unscaled(times_last(self._beta_ends(p, times), times))

    def _beta_ends(self, p: SymElement, step):
        """supersymmetrise over the letters of the original algebra, in the
        scaled basis: each monomial's coefficient is divided by the product
        of its letters' divisors, so that step, and the product with each
        last letter, multiply by the integral y of each letter."""
        letters = self._letters
        p = {m: c * Q(1, prod(letters[i][1] for i in m)) for m, c in p.items()}
        return supersymmetrise(p, self.pair.g.parity, self.uea.one(), step)

    def _times_letter(self, y: UEAElement, i: int) -> UEAElement:
        """y times letter i of the original algebra, in scaled coordinates,
        up to that letter's divisor."""
        return self.uea.scaled_product(y, self._letters[i][0])

    def _times_letter_past_n(self, y: UEAElement, i: int) -> UEAElement:
        """_times_letter less the monomials whose first letter is in n: they
        lie in n U(g), and stay there whatever is multiplied on their
        right."""
        lo = self.lo_a
        return {m: c for m, c in self._times_letter(y, i).items()
                if not (m and m[0] < lo)}

    def _project_times_letter(self, y: UEAElement, i: int) -> UEAElement:
        """The pure-a part of y times letter i of the original algebra, in
        scaled coordinates, up to that letter's divisor."""
        return self._project_product(y, self._letters[i][0])

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
            # distinct pure-a PBW monomials have distinct exponent vectors
            terms[tuple(map(m.count, a_letters))] = c
        return APoly(self.rank, terms)

    def _a_prefix(self, word: Monomial) -> int:
        """The number of leading a letters of word."""
        lo, hi = self.lo_a, self.lo_k
        p = 0
        while p < len(word) and lo <= word[p] < hi:
            p += 1
        return p

    def hc_gamma(self, u: UEAElement) -> APoly:
        """The rho-shifted projection: Gamma(u)(mu) = u_a(mu + rho)."""
        return self.rho_shift(self.project_to_a(u))

    def project_product_to_a(self, u: UEAElement, v: UEAElement) -> APoly:
        """The pure-a part of u v without forming u v.

        u and v are in PBW normal form.  Left monomials starting in n lie in
        n U(g) and right monomials ending in k lie in U(g) k, so both are
        skipped.  What is left of a left monomial after its leading a
        letters is a word K of k letters, and for x in k, x w = ad(x)(w) +-
        w x, so y^K v' is ad(y_K1) ... ad(y_KI)(v') modulo U(g) k, v' the
        kept part of v (see _project_product).  Gamma(u v) is its rho shift.
        """
        uea = self.uea
        (y, s), (z, t) = uea.scaled(u), uea.scaled(v)
        return self.project_to_a(
            uea.unscaled(self._project_product(y, z), s * t))

    def _project_product(self, y: UEAElement, z: UEAElement) -> UEAElement:
        """The pure-a part of y z, in scaled coordinates, y and z in normal
        form.

        A left monomial that does not start in n is a word A of a letters,
        then a word K of k letters.  A right monomial that does not end in
        k holds no k letter; call their sum z'.  y^K z' is
        ad(y_K1) ... ad(y_KI)(z') modulo U(g) k, as x w - ad(x)(w) is
        +- w x for x in k, and ad(k) maps U(g) k into itself; so each
        image drops its monomials that hold a k letter, and the images are
        kept by suffix of K for this call only.  The pure-a part of y^A X
        is A times that of X: U(a) is commutative and a normalises n.
        Leading a letters are merged into each monomial of the part.
        """
        lo, hi = self.lo_a, self.lo_k
        uea = self.uea
        # ad(y_K1) ... ad(y_KI)(z') less its monomials holding a k letter,
        # for each suffix K met, built from the suffix one letter shorter
        images = {(): {m: c for m, c in z.items() if not (m and m[-1] >= hi)}}

        def image(word: Monomial) -> UEAElement:
            hit = images.get(word)
            if hit is None:
                hit = images[word] = {
                    m: c for m, c in uea.scaled_adjoint(
                        word[0], image(word[1:])).items()
                    if not (m and m[-1] >= hi)}
            return hit

        acc: UEAElement = {}
        for m1, c1 in y.items():
            if m1 and m1[0] < lo:
                continue
            p = self._a_prefix(m1)
            part = {m: c for m, c in image(m1[p:]).items()
                    if not (m and m[0] < lo)}
            accumulate(acc, _merge_prefix(m1[:p], part.items()) if p else part,
                       c1)
        return acc

    def gamma_of_sym(self, p: SymElement) -> APoly:
        """Gamma(beta_from_g(p)) without forming beta_from_g(p).

        Gamma o beta is linear, so this is rho_shift of the sum of c_m times
        the pure-a part of beta(m) over the terms c_m m of p.  That part is
        computed once per S(g) monomial m, as m is first asked, and kept in
        this context's table.  Its supersymmetrisation walk drops, after
        each partial product, the monomials whose first letter is in n: they
        lie in n U(g), and stay there whatever is multiplied on their right.
        The sum of the products that each last letter ends is taken times
        that letter through _project_product, once per letter, as in
        project_product_to_a.  The walk runs in the scaled basis, as
        beta_from_g does.
        """
        table = self._beta_table
        terms: Dict[Tuple[int, ...], object] = {}
        for m, c in p.items():
            part = table.get(m)
            if part is None:
                ends = self._beta_ends({m: Q(1)}, self._times_letter_past_n)
                part = table[m] = self.project_to_a(self.uea.unscaled(
                    times_last(ends, self._project_times_letter)))
            accumulate(terms, part.terms, c)
        return self.rho_shift(APoly(self.rank, terms))


def _merge_prefix(prefix: Monomial, terms) -> UEAElement:
    """The pure-a monomials prefix m, for the (m, c) of terms: U(a) is
    commutative, so prefix m is m with prefix's letters sorted in."""
    return {tuple(sorted(prefix + m)): c for m, c in terms}


# -- invariants ----------------------------------------------------------------

class InvariantBasis:
    """Bases of the k-invariants and of their right-ideal part, by degree,
    as elements of U(g) in PBW coordinates: each coefficient an int where
    integral and a Fraction otherwise, as pbw's normal forms hold them
    (see _bases for the order of each basis and of its monomials)."""

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


def _weight(diagonal: Dict[int, List], x: int) -> Tuple:
    """The weight of letter x: its ad-eigenvalue under each diagonal letter,
    scaled as in _diagonal_weights (by a positive int per diagonal letter,
    which keeps sums and lexicographic signs)."""
    return tuple(w[x] for w in diagonal.values())


def _close(alg, span: Echelon, elems: List[SuperVector],
           letters: Sequence[int]) -> None:
    """Grow elems, a basis of the span, to the subalgebra generated by elems
    and letters; span keeps the echelon form of elems."""
    todo: List[Row] = [{x: 1} for x in letters]
    while todo:
        r = todo.pop()
        if span.insert(r):
            v = SuperVector(alg, r)
            elems.append(v)
            todo.extend(out.c for out in alg.bracket_each(v, elems))


def _is_partner(alg, diagonal: Dict[int, List], e: int, f: int) -> bool:
    """Whether (e, f, [e, f]) spans an sl2 whose h = [e, f] lies in the span
    of the diagonal letters and acts on e by a nonzero alpha(h), with e and f
    even and of opposite weights."""
    if alg.parity[e] or alg.parity[f] \
            or any(a + b for a, b in zip(_weight(diagonal, e),
                                         _weight(diagonal, f))):
        return False
    h = alg.bracket(alg.basis(e), alg.basis(f))
    return all(i in diagonal for i in h.c) \
        and bool(alg.bracket(h, alg.basis(e)))


def _k_generators(alg, diagonal: Dict[int, List], others: List[int]
                  ) -> Tuple[List[int], List[Tuple[int, int]]]:
    """(generators, partners): the letters of others that get adjoint rows,
    and pairs (e, f) of a generator e and a letter f that needs none, since
    (e, f, [e, f]) is an sl2 and a weight-zero vector killed by ad(e) is
    killed by ad(f) (see k_generating_letters).

    For each even e of simple positive weight alpha (lexicographically
    positive, not the sum of two positive even weights), the first even f
    that makes (e, f, [e, f]) an sl2 as _is_partner says is e's partner.
    Then the other letters, odd first and by weight descending, are kept
    where they grow the subalgebra generated by the diagonal letters, the
    generators and the partners.
    """
    weight = {x: _weight(diagonal, x) for x in others}
    order = sorted(others, key=lambda x: (-alg.parity[x],
                                          [-c for c in weight[x]]))
    positive = {weight[x] for x in others if not alg.parity[x]
                and weight[x] > (0,) * len(diagonal)}
    simple = positive - {tuple(map(sum, zip(a, b)))
                         for a in positive for b in positive}
    generators: List[int] = []
    partners: List[Tuple[int, int]] = []
    for e in order:
        if weight[e] in simple:
            f = next((f for f in order if _is_partner(alg, diagonal, e, f)),
                     None)
            if f is not None:
                generators.append(e)
                partners.append((e, f))
    span = Echelon()
    elems: List[SuperVector] = []
    _close(alg, span, elems, [*diagonal, *generators,
                              *(f for _, f in partners)])
    for x in order:
        dim = len(elems)
        _close(alg, span, elems, [x])
        if len(elems) > dim:
            generators.append(x)
    return generators, partners


def k_generating_letters(ctx: IwasawaContext
                         ) -> Tuple[Dict[int, List], List[int]]:
    """(diagonal, generators): the ad-weights of the k letters acting
    diagonally (see _diagonal_weights), and the letters whose adjoint rows,
    on the weight-zero part of U(g), cut out the k-invariants (see
    _k_generators).

    Why no other letter needs rows.  Each diagonal letter kills a vector v
    of weight zero.  For a partner pair (e, f), h = [e, f] lies in the span
    of the diagonal letters with alpha(h) != 0, so (e, f, 2h / alpha(h)) is
    an sl2-triple acting on the finite-dimensional U_d(g), and h kills v.
    If ad(e) v = 0, then ad(e) ad(f) v = ad(h) v = 0, so ad(f) v is killed
    by e and has weight -2 under 2h / alpha(h); in a finite-dimensional
    sl2-module such a vector has a weight n >= 0, so ad(f) v = 0.  The
    letters killing v span a subalgebra, which holds the diagonal letters,
    the generators and the partners; the certificate below is that these
    generate k.  Only even triples are used: nothing here asks that
    k-modules be completely reducible.

    Raises GeneratorsMissK unless each partner pair is such an sl2 with e a
    generator, and these letters generate k.
    """
    alg = ctx.adapted
    diagonal, others = _diagonal_weights(alg, ctx.k_indices())
    generators, partners = _k_generators(alg, diagonal, others)
    for e, f in partners:
        if e not in generators or not _is_partner(alg, diagonal, e, f):
            raise GeneratorsMissK(f"{alg.names[e]}, {alg.names[f]} is not "
                                  f"an sl2 pair with a generator")
    closure: List[SuperVector] = []
    _close(alg, Echelon(), closure,
           [*diagonal, *generators, *(f for _, f in partners)])
    dim_k = alg.dim - ctx.lo_k
    if len(closure) != dim_k:
        raise GeneratorsMissK(f"letters generate {len(closure)} of "
                              f"dim k = {dim_k}")
    return diagonal, generators


def invariants_up_to_degree(ctx: IwasawaContext, d: int) -> InvariantBasis:
    """Solve ad(x) D = 0 for the generators x of k, over PBW monomials <= d.

    The diagonal letters of k act on monomials by weights, so they only
    select the weight-zero monomials, the only ones uea.monomials_up_to
    lists; the generators of k_generating_letters supply the rows.  On
    weight-zero vectors the partner f of an sl2 generator e kills whatever
    e kills, and the diagonal letters, generators and partners generate k,
    so the kernel of these rows is the k-invariants (see
    k_generating_letters).  The columns are ad(y_x) y^m in the scaled basis
    of U(g), which are integral, and each coefficient goes straight into
    the row of its (x, output monomial).  The rows are inserted latest
    leading column first, sparsest first among rows of one leading column:
    a new pivot then lies left of the stored ones and seldom lands in a
    stored row.  The order changes the cost of the elimination, never its
    result.  No walk of a higher degree reads the words of degree d, so
    the adjoint of a monomial of degree d keeps none of them in the memo
    (UEA.scaled_adjoint with keep false).

    Both bases are read off the one integer Echelon of the system, whose
    rows are dropped first (see _bases).

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
    # one row per output monomial for each generator, and every row in the
    # order it first appears
    by_generator = [(x, {}) for x in generators]
    system: List[Row] = []
    for t, m in enumerate(kept):
        keep = len(m) < d
        for x, rows in by_generator:
            for mt, c in uea.scaled_adjoint(x, {m: 1}, keep).items():
                row = rows.get(mt)
                if row is None:
                    row = rows[mt] = {}
                    system.append(row)
                row[t] = c
    del by_generator
    system.sort(key=lambda r: (-min(r), len(r)))
    ech = Echelon()
    for r in system:
        ech.insert(r)
    del system
    return InvariantBasis(d, *_bases(ctx, kept, ech, d))


def _bases(ctx: IwasawaContext, kept: List[Monomial], ech: Echelon, d: int
           ) -> Tuple[List[UEAElement], List[UEAElement]]:
    """(invariants, companion) read off ech, the Echelon of the system over
    the columns kept, each coefficient an int where integral and one
    Fraction otherwise (scalars.ratio).

    Scaling the columns and rows of a matrix leaves its free columns, so
    the kernel vector of free column f, a 1 at f and -r_p[f] / r_p[p] at
    each pivot p holding f, is brought back to PBW coordinates keeping
    that 1: the invariant v_f holds -r_p[f] D^{d - len f} / (r_p[p]
    D^{d - len p}) at p, built once per entry, for the pivots p of
    ech.cols[f] in ascending order (so in the order of kept), then 1 at f.
    So sum_f c_f v_f, for coordinates c over the free columns, holds c_f
    at f and -sum_f c_f r_p[f] D^{d - len f} / (r_p[p] D^{d - len p}) at
    p: once the c_f share a denominator, each x_f r_p[f] is added to p's
    integer sum by walking cols[f], and each sum is divided once.  It has
    no monomial without a k index exactly when c_f = 0 at each such free
    f, and the sum above is 0 at each such pivot p; these conditions are
    p's row, all of whose other entries are free columns, scaled
    column-wise by D^{d - len f}.  Their kernel, over the invariants in
    order, gives the companion's coordinates.
    """
    pivots, cols = ech.rows, ech.cols
    # D^{d - len m} for the monomial m of each column
    powers = [ctx.uea.scale ** (d - len(m)) for m in kept]
    free = [f for f in range(len(kept)) if f not in pivots]

    invariants: List[UEAElement] = []
    for f in free:
        x = -powers[f]
        elem: UEAElement = {}
        for p in sorted(cols.get(f, ())):
            r = pivots[p]
            elem[kept[p]] = ratio(r[f], x, r[p] * powers[p])
        elem[kept[f]] = 1
        invariants.append(elem)

    lo_k = ctx.lo_k
    index = {f: t for t, f in enumerate(free)}
    conditions: List[Row] = []
    for j, m in enumerate(kept):
        if m and m[-1] >= lo_k:
            continue
        if j in pivots:
            row = {index[f]: x * powers[f]
                   for f, x in pivots[j].items() if f != j}
        else:
            row = {index[j]: 1}
        if row:
            conditions.append(row)
    companion: List[UEAElement] = []
    for coords in nullspace(ScalarMatrix(len(conditions), len(free),
                                         conditions)):
        den = lcm(*(c.denominator for c in coords.values()))
        sums: Dict[int, int] = {}
        for t, c in coords.items():
            f = free[t]
            x = c.numerator * (den // c.denominator) * powers[f]
            for p in cols.get(f, ()):
                sums[p] = sums.get(p, 0) + x * pivots[p][f]
        elem = {}
        for p in sorted(sums):
            if sums[p]:
                elem[kept[p]] = ratio(-sums[p], 1, den * pivots[p][p]
                                       * powers[p])
        for t, c in coords.items():
            elem[kept[free[t]]] = c
        companion.append(elem)
    return invariants, companion


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
