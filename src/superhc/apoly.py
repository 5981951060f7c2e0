"""Polynomial functions on the dual of the Cartan subspace.

An APoly in r variables represents an element of S(a) for a Cartan subspace
with a fixed ordered basis (h_1, ..., h_r): the variable i is the linear
function mu -> mu(h_i) on a*.  Exponent vectors index a sparse term map.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import accumulate, linear_solver

Q = Fraction

Expvec = Tuple[int, ...]


class APoly:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Expvec, object]):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "APoly":
        return cls(n, {})

    @classmethod
    def const(cls, n: int, c) -> "APoly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "APoly":
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): Q(1)})

    @classmethod
    def linear(cls, coeffs: Sequence) -> "APoly":
        """The linear polynomial sum_i coeffs[i] * h_i."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(n, terms)

    # -- ring operations -----------------------------------------------------
    def __add__(self, other: "APoly") -> "APoly":
        out = dict(self.terms)
        accumulate(out, other.terms)
        return APoly(self.n, out)

    def __neg__(self) -> "APoly":
        return APoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "APoly") -> "APoly":
        return self + (-other)

    def __mul__(self, other: "APoly") -> "APoly":
        out: Dict[Expvec, object] = {}
        for e1, c1 in self.terms.items():
            # one row per left term: distinct terms of other stay distinct
            accumulate(out, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2
                             for e2, c2 in other.terms.items()})
        return APoly(self.n, out)

    def scale(self, c) -> "APoly":
        if not c:
            return APoly.zero(self.n)
        return APoly(self.n, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "APoly":
        out = APoly.const(self.n, Q(1))
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, APoly) and self.n == other.n \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def directional_derivative(self, values: Sequence) -> "APoly":
        """sum_i values[i] * d/dh_i, the derivative along a functional."""
        out: Dict[Expvec, object] = {}
        for e, c in self.terms.items():
            # one row per term: lowering distinct variables gives distinct keys
            accumulate(out, {e[:i] + (k - 1,) + e[i + 1:]: c * k * values[i]
                             for i, k in enumerate(e) if k and values[i]})
        return APoly(self.n, out)

    def pretty(self, names: Optional[Sequence[str]] = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"t{i}" for i in range(self.n)]
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            mono = "*".join(f"{names[i]}^{k}" if k > 1 else f"{names[i]}"
                            for i, k in enumerate(e) if k)
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(bits)

    def __repr__(self):
        return self.pretty()


class Substitution:
    """Composition with fixed images: s(p) is p with variable i replaced by
    images[i].

    The image of a monomial is that of the same monomial with its last
    nonzero exponent lowered by one, times one image, so each monomial costs
    one product the first time it is met; with affine images every product
    is by a polynomial of degree <= 1.  The table of monomial images lives
    as long as the substitution, so whoever owns the images owns the table.
    """

    __slots__ = ("images", "m", "_table")

    def __init__(self, images: Sequence[APoly]):
        self.images = list(images)
        self.m = images[0].n if images else 0  # variables of the result
        self._table: Dict[Expvec, APoly] = {
            (0,) * len(self.images): APoly.const(self.m, Q(1))}

    @classmethod
    def linear(cls, mat: Sequence[Sequence]) -> "Substitution":
        """Variable i goes to sum_j mat[i][j] * h_j."""
        return cls([APoly.linear(row) for row in mat])

    def __call__(self, p: APoly) -> APoly:
        if p.n != len(self.images):
            raise ValueError("need one image per variable")
        table = self._table
        out: Dict[Expvec, object] = {}
        for e, c in p.terms.items():
            hit = table.get(e)
            if hit is None:
                hit = self._image(e)
            accumulate(out, hit.terms, c)
        return APoly(self.m, out)

    def _image(self, e: Expvec) -> APoly:
        hit = self._table.get(e)
        if hit is None:
            j = max(i for i, k in enumerate(e) if k)
            hit = self._table[e] = \
                self._image(e[:j] + (e[j] - 1,) + e[j + 1:]) * self.images[j]
        return hit


def monomials_of_degree(n: int, d: int) -> List[Expvec]:
    """Exponent vectors of n variables and total degree d, in lex order."""
    if n == 0:
        return [()] if d == 0 else []
    if n == 1:
        return [(d,)]
    return [(k,) + rest for k in range(d + 1)
            for rest in monomials_of_degree(n - 1, d - k)]


def monomials_up_to(n: int, d: int) -> List[Expvec]:
    """Exponent vectors of total degree <= d, ordered by degree then lex."""
    return [e for total in range(d + 1) for e in monomials_of_degree(n, total)]


def change_to_basis(new_basis: Sequence[Sequence]) -> Substitution:
    """The substitution rewriting variables into coordinates along a new
    basis of a.

    new_basis[j] is the coordinate tuple of the j-th new basis vector of a
    over the old basis.  Applied to a polynomial in the old h_i, the
    substitution yields the same function written in the new variables c_j.
    Raises ValueError if new_basis is not a basis.
    """
    r = len(new_basis)
    solve = linear_solver([{i: x for i, x in enumerate(b) if x}
                           for b in new_basis])
    # h_i = sum_j (C^{-1})_{j i} c_j, and column i of C^{-1} solves C x = e_i;
    # one image per old variable, so a short basis misses some e_i
    images = []
    for i in range(len(new_basis[0]) if new_basis else 0):
        coords = solve({i: Q(1)})
        images.append(APoly.linear([coords.get(j, Q(0)) for j in range(r)]))
    return Substitution(images)
