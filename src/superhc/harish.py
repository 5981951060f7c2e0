"""The Harish-Chandra projection, its rho shift, and k-invariants by degree.

Everything happens in an Iwasawa-adapted basis listing n first, then a,
then k.  In that PBW order an element decomposes as (pure-a part) plus
terms in n U(g) + U(g) k, so the projection D -> D_a is literally "keep
the monomials supported on the a block", and membership in the right ideal
U(g) k is "some monomial contains a k index".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .apoly import APoly
from .linalg import (ScalarMatrix, linear_solver, nullspace, rank,
                     solve_membership)
from .liesuper import SuperVector, change_basis
from .pairs import (RestrictedRootSystem, SymmetricPair, a_perp_in_p, rho)
from .pbw import (Monomial, OrderNotIwasawa, SymElement, UEA, UEAElement,
                  accumulate, supersymmetrise, sym_multiply)
from .rings import membership_J

Q = Fraction


class IwasawaContext:
    """A pair with a positive system, rebased to the n < a < k PBW order."""

    def __init__(self, pair: SymmetricPair, system: RestrictedRootSystem):
        if system.positive is None:
            raise OrderNotIwasawa("choose a positive system before building U(g)")
        self.pair = pair
        self.system = system
        n_basis = system.n_basis()
        a_basis = pair.a_basis
        k_basis = pair.k_basis
        vectors = list(n_basis) + list(a_basis) + list(k_basis)
        names = [f"n{i}" for i in range(len(n_basis))] \
            + [f"a{i}" for i in range(len(a_basis))] \
            + [f"k{i}" for i in range(len(k_basis))]
        blocks = ["N"] * len(n_basis) + ["A"] * len(a_basis) + ["K"] * len(k_basis)
        self.adapted = change_basis(pair.g, vectors, names)
        self.uea = UEA(self.adapted, blocks)
        self.vectors = vectors
        self.n_len = len(n_basis)
        self.rank = len(a_basis)
        self.k_len = len(k_basis)
        self._solve = linear_solver([v.dense() for v in vectors])
        self.rho = rho(system)[0]
        # the U(g) factor of each basis letter of the original algebra
        self._gen_table = [self.uea.from_vector(self.to_adapted(pair.g.basis(i)))
                           for i in range(pair.g.dim)]

    # -- conversions ---------------------------------------------------------
    def to_adapted(self, v: SuperVector) -> SuperVector:
        coords = self._solve(v.dense())
        return SuperVector(self.adapted, {i: c for i, c in enumerate(coords) if c})

    def k_indices(self) -> List[int]:
        return list(range(self.n_len + self.rank, self.adapted.dim))

    def a_index(self, i: int) -> int:
        return self.n_len + i

    def word(self, factors: Sequence[SuperVector]) -> UEAElement:
        """Normal form of a product of elements of the original algebra."""
        return self.uea.normal_form([self.to_adapted(v) if v.alg is self.pair.g
                                     else v for v in factors])

    def beta_from_g(self, p: SymElement) -> UEAElement:
        """Supersymmetrisation of an S(g) element over the original basis."""
        return supersymmetrise(self.uea, p, self.pair.g.parity,
                               self._gen_table.__getitem__)

    # -- the projection and its shift ----------------------------------------
    def project_to_a(self, u: UEAElement) -> APoly:
        """The pure-a part of u; u minus it lies in n U(g) + U(g) k."""
        if self.uea.blocks is None:
            raise OrderNotIwasawa("context lost its Iwasawa blocks")
        lo, hi = self.n_len, self.n_len + self.rank
        terms: Dict[Tuple[int, ...], object] = {}
        for m, c in u.items():
            if all(lo <= i < hi for i in m):
                e = [0] * self.rank
                for i in m:
                    e[i - lo] += 1
                terms[tuple(e)] = terms.get(tuple(e), Q(0)) + c
            elif not (m[0] < lo or m[-1] >= hi):
                raise OrderNotIwasawa("monomial escapes n U(g) + U(g) k")
        return APoly(self.rank, terms)

    def hc_gamma(self, u: UEAElement) -> APoly:
        """The rho-shifted projection: Gamma(u)(mu) = u_a(mu + rho)."""
        return self.project_to_a(u).shift(self.rho)

    def gamma_of_product(self, u: UEAElement, v: UEAElement) -> APoly:
        """Gamma(u v) without forming u v.

        Left monomials starting in n lie in n U(g) and right monomials ending
        in k lie in U(g) k, so those pairs are skipped; every other pair is
        straightened by project_word, which keeps only the pure-a part.
        """
        lo, hi = self.n_len, self.n_len + self.rank
        left = [(m, c) for m, c in u.items() if not (m and m[0] < lo)]
        right = [(m, c) for m, c in v.items() if not (m and m[-1] >= hi)]
        acc: UEAElement = {}
        for m1, c1 in left:
            for m2, c2 in right:
                accumulate(acc, self.uea.project_word(m1 + m2), c1 * c2)
        return self.hc_gamma(acc)

    def gamma_of_sym(self, p: SymElement) -> APoly:
        return self.hc_gamma(self.beta_from_g(p))


# -- invariants ----------------------------------------------------------------

class InvariantBasis:
    """Bases of the k-invariants and of their right-ideal part, by degree."""

    def __init__(self, degree: int, invariants: List[UEAElement],
                 companion: List[UEAElement]):
        self.degree = degree
        self.invariants = invariants
        self.companion = companion


def _diagonal_weights(ctx: IwasawaContext, k_idx: List[int]):
    """Split k indices into (diagonal ad action, other); weights per index."""
    alg = ctx.adapted
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
            diag[x] = weights
        else:
            others.append(x)
    return diag, others


def invariants_up_to_degree(ctx: IwasawaContext, d: int) -> InvariantBasis:
    """Solve ad(x) D = 0 for all x in the k basis, over PBW monomials <= d.

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
    monos = uea.monomials_up_to(d)
    k_idx = ctx.k_indices()
    diag, others = _diagonal_weights(ctx, k_idx)
    kept: List[Monomial] = []
    for m in monos:
        if all(sum((w[i] for i in m), Q(0)) == 0 for w in diag.values()):
            kept.append(m)
    rows: Dict[Tuple[int, Monomial], Dict[int, object]] = {}
    for x in others:
        for t, m in enumerate(kept):
            img = uea.adjoint_index(x, {m: Q(1)})
            for mt, c in img.items():
                rows.setdefault((x, mt), {})[t] = c
    mat = ScalarMatrix(len(rows), len(kept),
                       [rows[k] for k in sorted(rows, key=repr)])
    kern = nullspace(mat)
    invariants = []
    for coords in kern:
        elem: UEAElement = {}
        for t, c in enumerate(coords):
            if c:
                elem[kept[t]] = c
        invariants.append(elem)
    companion = _ideal_part(ctx, invariants)
    return InvariantBasis(d, invariants, companion)


def _ideal_part(ctx: IwasawaContext, invariants: List[UEAElement]
                ) -> List[UEAElement]:
    """Combinations of the invariants supported on monomials with a k index."""
    lo_k = ctx.n_len + ctx.rank
    rows: Dict[Monomial, Dict[int, object]] = {}
    for t, inv in enumerate(invariants):
        for m, c in inv.items():
            if not any(i >= lo_k for i in m):
                rows.setdefault(m, {})[t] = c
    mat = ScalarMatrix(len(rows), len(invariants),
                       [rows[m] for m in sorted(rows)])
    out = []
    for coords in nullspace(mat):
        elem: UEAElement = {}
        for t, c in enumerate(coords):
            if c:
                accumulate(elem, invariants[t], c)
        out.append(elem)
    return out


def poly_rank(polys: Sequence[APoly]) -> int:
    monos = sorted({e for p in polys for e in p.terms})
    pos = {e: i for i, e in enumerate(monos)}
    rows = []
    for p in polys:
        rows.append({pos[e]: c for e, c in p.terms.items()})
    return rank(ScalarMatrix(len(rows), len(monos), rows))


def verify_exact_sequence(ctx: IwasawaContext, d: int,
                          basis: Optional[InvariantBasis] = None,
                          weyl=None, data=None) -> dict:
    """Dimension bookkeeping for 0 -> ideal part -> invariants -> image -> 0.

    Gamma is taken once per basis vector.  rows holds one row per degree
    e <= d, read off the basis order of invariants_up_to_degree: the degree
    <= e parts are spanned by the basis vectors of degree <= e, so Gamma of
    the degree <= e invariants is spanned by the first dim_invariants
    images.  The top-level dimensions are the degree-d row.  When the Weyl
    group and the odd-root data are supplied, the report also carries the
    weyl_invariant and in_J flags for the computed image.
    """
    if basis is None:
        basis = invariants_up_to_degree(ctx, d)
    images = [ctx.hc_gamma(v) for v in basis.invariants]
    kernel_ok = all(not ctx.hc_gamma(v).terms for v in basis.companion)
    inv_degrees = [max(map(len, v), default=0) for v in basis.invariants]
    ker_degrees = [max(map(len, v), default=0) for v in basis.companion]
    rows = []
    for e in range(d + 1):
        dim_inv = sum(1 for t in inv_degrees if t <= e)
        rows.append({
            "degree": e,
            "dim_invariants": dim_inv,
            "dim_kernel": sum(1 for t in ker_degrees if t <= e),
            "dim_image": poly_rank(images[:dim_inv]),
        })
    report = {
        **rows[-1],
        "rows": rows,
        "kernel_maps_to_zero": kernel_ok,
        "dims_consistent": all(
            row["dim_invariants"] == row["dim_kernel"] + row["dim_image"]
            for row in rows),
    }
    if weyl is not None:
        report["weyl_invariant"] = all(
            p.substitute_linear(w) == p for p in images for w in weyl.elements)
    if data is not None and weyl is not None:
        report["in_J"] = all(membership_J(p, data, weyl) for p in images)
    return report


def gamma_preimage(ctx: IwasawaContext, target: APoly, d: int,
                   basis: Optional[InvariantBasis] = None) -> Optional[UEAElement]:
    """Best-effort solve of Gamma(D) = target over the degree <= d invariants."""
    if basis is None:
        basis = invariants_up_to_degree(ctx, d)
    images = [ctx.hc_gamma(v) for v in basis.invariants]
    monos = sorted({e for p in images for e in p.terms} | set(target.terms))
    cols = [[p.terms.get(e, Q(0)) for e in monos] for p in images]
    coords = solve_membership([target.terms.get(e, Q(0)) for e in monos], cols)
    if coords is None:
        return None
    out: UEAElement = {}
    for t, c in enumerate(coords):
        if c:
            accumulate(out, basis.invariants[t], c)
    return out


# -- the associated-graded restriction ----------------------------------------

def gr_restriction(pair: SymmetricPair, p: SymElement) -> APoly:
    """Project an S(p) element to S(a) along the complement of a in p.

    p is given over the basis of the ambient algebra; its support must lie
    inside p = a + a-perp.
    """
    g = pair.g
    adapted = list(pair.a_basis) + a_perp_in_p(pair)
    parities = [v.parity for v in adapted]
    solve = linear_solver([v.dense() for v in adapted])
    rank_a = len(pair.a_basis)

    cache: Dict[int, List[Tuple[int, object]]] = {}

    def expand(i: int) -> List[Tuple[int, object]]:
        if i not in cache:
            try:
                coords = solve(g.basis(i).dense())
            except ValueError:
                raise ValueError(f"generator {g.names[i]} is not in p")
            cache[i] = [(t, c) for t, c in enumerate(coords) if c]
        return cache[i]

    acc: Dict[Tuple[int, ...], object] = {}
    for m, c in p.items():
        prod: SymElement = {(): c}
        for letter in m:
            lin: SymElement = {(t,): v for t, v in expand(letter)}
            prod = sym_multiply(parities, prod, lin)
        for mono, v in prod.items():
            if all(t < rank_a for t in mono):
                e = [0] * rank_a
                for t in mono:
                    e[t] += 1
                accumulate(acc, {tuple(e): v})
    return APoly(rank_a, acc)
