"""Lie superalgebras presented by structure constants.

An algebra is a list of named, parity-graded basis elements together with a
sparse table of brackets, an optional invariant form b and an optional even
involution theta.  Validation (verify_algebra) reports every violated axiom
instead of raising, so defective input can be diagnosed in one pass.

Scalar contract: scalars are rational, ints or Fractions.  A basis vector
holds the int 1.  The brackets dict keeps the scalars it was given, while
bracket_indices returns each integral coefficient as an int and every
other one as a Fraction.  bracket_each brackets one vector against a list
in the integers: it scales each vector to integers once, sums int
products against the table times the common denominator of its
constants, and divides each output coordinate once, so brackets of
integral vectors on an integral table are ints; bracket is its one-pair
case.
U(g) does not straighten on these constants directly: pbw.UEA rescales
the basis by their common denominator, where every constant is integral.
An int equals, hashes and prints like the equal Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import (ScalarMatrix, accumulate, eigenspace, integral_row,
                     kernel, rank)
from .scalars import int_if_integral

Q = Fraction


class MixedAlgebras(Exception):
    """Vectors from two different algebras were combined."""


class MissingInvolution(ValueError):
    pass


class MissingForm(ValueError):
    pass


class SuperVector:
    """A sparse element of a fixed Lie superalgebra."""

    __slots__ = ("alg", "c")

    def __init__(self, alg: "LieSuperalgebra", coeffs: Dict[int, object]):
        self.alg = alg
        self.c = {i: x for i, x in coeffs.items() if x}

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return isinstance(other, SuperVector) and self.alg is other.alg \
            and self.c == other.c

    def __hash__(self):
        return hash((id(self.alg), tuple(sorted(self.c.items(), key=lambda kv: kv[0]))))

    def __add__(self, other):
        if not isinstance(other, SuperVector):
            return NotImplemented
        if other.alg is not self.alg:
            raise MixedAlgebras("vectors live in different algebras")
        out = dict(self.c)
        accumulate(out, other.c)
        return SuperVector(self.alg, out)

    def __neg__(self):
        return SuperVector(self.alg, {i: -x for i, x in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a) -> "SuperVector":
        if not a:
            return SuperVector(self.alg, {})
        return SuperVector(self.alg, {i: a * x for i, x in self.c.items()})

    def dense(self) -> Tuple:
        return tuple(self.c.get(i, Q(0)) for i in range(self.alg.dim))

    @property
    def parity(self) -> Optional[int]:
        """0 or 1 for homogeneous vectors, None for zero or mixed ones."""
        ps = {self.alg.parity[i] for i in self.c}
        if len(ps) == 1:
            return ps.pop()
        return None

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for i in sorted(self.c):
            x = self.c[i]
            name = self.alg.names[i]
            bits.append(name if x == 1 else f"({x})*{name}")
        return " + ".join(bits)


class LieSuperalgebra:
    """Basis-indexed Lie superalgebra with optional form b and involution."""

    def __init__(self, names: Sequence[str], parity: Sequence[int],
                 brackets: Dict[Tuple[int, int], Dict[int, object]],
                 form: Optional[ScalarMatrix] = None,
                 theta: Optional[ScalarMatrix] = None):
        self.names = tuple(names)
        self.parity = tuple(int(p) for p in parity)
        if any(p not in (0, 1) for p in self.parity):
            raise ValueError("parities must be 0 or 1")
        self.dim = len(self.names)
        self.brackets = {
            key: {k: v for k, v in out.items() if v}
            for key, out in brackets.items()}
        self._table = _two_sided(self.brackets, self.parity)
        # the table times the lcm of its denominators, all ints, for bracket
        self._scale = lcm(*(v.denominator for out in self._table.values()
                            for v in out.values()))
        self._integral = self._table if self._scale == 1 else {
            key: {k: v.numerator * (self._scale // v.denominator)
                  for k, v in out.items()}
            for key, out in self._table.items()}
        self.form = form
        self.theta = theta
        self.decomposition: Optional[dict] = None
        self._index = {n: i for i, n in enumerate(self.names)}
        if len(self._index) != self.dim:
            raise ValueError("duplicate basis names")

    # -- basic access -------------------------------------------------------
    def basis(self, key) -> SuperVector:
        i = key if isinstance(key, int) else self._index[key]
        return SuperVector(self, {i: 1})

    def index(self, name: str) -> int:
        return self._index[name]

    def vector(self, coeffs: Dict) -> SuperVector:
        out = {}
        for k, v in coeffs.items():
            i = k if isinstance(k, int) else self._index[k]
            out[i] = v
        return SuperVector(self, out)

    def zero(self) -> SuperVector:
        return SuperVector(self, {})

    def basis_vectors(self) -> List[SuperVector]:
        return [self.basis(i) for i in range(self.dim)]

    # -- bracket ------------------------------------------------------------
    def bracket_indices(self, i: int, j: int) -> Dict[int, object]:
        """[e_i, e_j] as a sparse coefficient dict, integral values as ints;
        callers must not mutate it."""
        return self._table.get((i, j), _EMPTY)

    def bracket(self, x: SuperVector, y: SuperVector) -> SuperVector:
        """[x, y]: the one-pair case of bracket_each."""
        return self.bracket_each(x, (y,))[0]

    def bracket_each(self, x: SuperVector, ys: Iterable[SuperVector]
                     ) -> List[SuperVector]:
        """[x, y] for each y of ys, summed in the integers: x and each y are
        scaled to integers once (a vector of ints as it is), their products
        run against the integral table, and each output coordinate is
        divided once by the product of the three scales."""
        if x.alg is not self:
            raise MixedAlgebras("bracket of vectors from another algebra")
        xs, sx = integral_row(x.c)
        sx *= self._scale
        table = self._integral
        outs = []
        for y in ys:
            if y.alg is not self:
                raise MixedAlgebras("bracket of vectors from another algebra")
            yr, sy = integral_row(y.c)
            acc: Dict[int, object] = {}
            for i, xi in xs.items():
                for j, yj in yr.items():
                    out = table.get((i, j))
                    if out:
                        accumulate(acc, out, xi * yj)
            s = sx * sy
            if s != 1:
                acc = {k: Q(v, s) for k, v in acc.items()}
            outs.append(SuperVector(self, acc))
        return outs

    # -- form and involution -------------------------------------------------
    def b(self, x: SuperVector, y: SuperVector):
        if self.form is None:
            raise MissingForm("algebra carries no invariant form")
        if x.alg is not self or y.alg is not self:
            raise MixedAlgebras("form applied to foreign vectors")
        s = Q(0)
        for i, xi in x.c.items():
            row = self.form.rows[i]
            for j, yj in y.c.items():
                if j in row:
                    s = s + xi * row[j] * yj
        return s

    def theta_apply(self, x: SuperVector) -> SuperVector:
        if self.theta is None:
            raise MissingInvolution("algebra carries no involution")
        out: Dict[int, object] = {}
        for j, xj in x.c.items():
            accumulate(out, {i: row[j] for i, row in enumerate(self.theta.rows)
                             if j in row}, xj)
        return SuperVector(self, out)

    def ad_matrix(self, x: SuperVector) -> ScalarMatrix:
        m = ScalarMatrix(self.dim, self.dim)
        for j, out in enumerate(self.bracket_each(x, self.basis_vectors())):
            for i, a in out.c.items():
                m.rows[i][j] = a
        return m


_EMPTY: Dict[int, object] = {}


def _two_sided(brackets, parity) -> Dict[Tuple[int, int], Dict[int, object]]:
    """Every pair's bracket, read in one lookup: the stored pairs, and the
    mirror [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j] of each pair stored in one
    order only (a stored pair wins), integral coefficients as ints."""
    table = {key: {k: int_if_integral(v) for k, v in out.items()}
             for key, out in brackets.items()}
    for (i, j), out in list(table.items()):
        if (j, i) not in table:
            sign = 1 if parity[i] and parity[j] else -1
            table[(j, i)] = {k: sign * v for k, v in out.items()}
    return table


# -- validation --------------------------------------------------------------

def verify_algebra(g: LieSuperalgebra) -> List[dict]:
    """Full axiom scan; returns one report entry per violation (empty =
    valid), check by check in the order below and each check's triples or
    pairs in lex order.

    The Jacobi, theta-automorphism and form-invariance scans bracket no
    vector: each side is a sum of rows of the integral table (the
    two-sided table of bracket_indices times the lcm of its
    denominators, which scales both sides of each identity alike), of
    columns of theta and of rows of the form.
    """
    report: List[dict] = []
    dim, par = g.dim, g.parity

    for (i, j), out in g.brackets.items():
        want = (par[i] + par[j]) % 2
        for k, v in out.items():
            if v and par[k] != want:
                report.append({"check": "bracket-parity", "at": (i, j, k)})
        if i == j and par[i] == 0 and any(out.values()):
            report.append({"check": "antisymmetry", "at": (i, i)})
        if i != j and (j, i) in g.brackets and i < j:
            sign = -1 if par[i] * par[j] == 0 else 1
            mirror = {k: sign * v for k, v in g.brackets[(j, i)].items() if v}
            if mirror != {k: v for k, v in out.items() if v}:
                report.append({"check": "antisymmetry", "at": (j, i)})

    # ad[i][j]: [e_i, e_j] times the table's scale
    table = g._integral
    ad = [[table.get((i, j), _EMPTY) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        adi = ad[i]
        for j in range(dim):
            adj, bij = ad[j], adi[j]
            sgn = -1 if par[i] * par[j] else 1
            for k in range(dim):
                # [e_i, [e_j, e_k]] - [[e_i, e_j], e_k] - sgn [e_j, [e_i, e_k]]
                acc: Dict[int, object] = {}
                for l, c in adj[k].items():
                    accumulate(acc, adi[l], c)
                for l, c in bij.items():
                    accumulate(acc, ad[l][k], -c)
                for l, c in adi[k].items():
                    accumulate(acc, adj[l], -sgn * c)
                if acc:
                    report.append({"check": "jacobi", "at": (i, j, k)})

    if g.theta is not None:
        t = g.theta
        if t.mul(t) != ScalarMatrix.identity(dim):
            report.append({"check": "theta-involution", "at": ()})
        for j in range(dim):
            col_par = {par[i] for i in range(dim) if t.rows[i].get(j)}
            if col_par - {par[j]}:
                report.append({"check": "theta-even", "at": (j,)})
        # theta(e_j), column j of theta
        images = [g.theta_apply(g.basis(j)) for j in range(dim)]
        for i in range(dim):
            ti = images[i].c
            for j in range(dim):
                # theta [e_i, e_j] - [theta e_i, theta e_j]
                acc = {}
                for l, c in ad[i][j].items():
                    accumulate(acc, images[l].c, c)
                for a, x in ti.items():
                    for b, y in images[j].c.items():
                        accumulate(acc, ad[a][b], -x * y)
                if acc:
                    report.append({"check": "theta-automorphism", "at": (i, j)})

    if g.form is not None:
        bmat = g.form
        for i in range(dim):
            for j in range(dim):
                bij = bmat.entry(i, j)
                if par[i] != par[j] and bij:
                    report.append({"check": "form-even", "at": (i, j)})
                sign = Q(-1) if par[i] * par[j] else Q(1)
                if bij != sign * bmat.entry(j, i):
                    report.append({"check": "form-supersymmetric", "at": (i, j)})
        if rank(bmat.rows) != dim:
            report.append({"check": "form-nondegenerate", "at": ()})
        form = bmat.rows
        for i in range(dim):
            bi = form[i]
            for j in range(dim):
                # b([e_i, e_j], e_k) for every k, then b(e_i, [e_j, e_k])
                lhs: Dict[int, object] = {}
                for l, c in ad[i][j].items():
                    accumulate(lhs, form[l], c)
                adj = ad[j]
                for k in range(dim):
                    rhs = sum(bi[l] * c for l, c in adj[k].items() if l in bi)
                    if lhs.get(k, 0) != rhs:
                        report.append({"check": "form-invariant",
                                       "at": (i, j, k)})
        if g.theta is not None:
            for i in range(dim):
                for j in range(dim):
                    if g.b(images[i], images[j]) != bmat.entry(i, j):
                        report.append({"check": "form-theta-invariant",
                                       "at": (i, j)})

    return report


# -- subspace calculus --------------------------------------------------------

def theta_eigenspaces(g: LieSuperalgebra) -> Tuple[List[SuperVector], List[SuperVector]]:
    """(k, p): the +1 and -1 eigenspaces of theta, as echelon bases."""
    if g.theta is None:
        raise MissingInvolution("theta_eigenspaces needs an involution")
    k = [SuperVector(g, v) for v in eigenspace([g.theta], [Q(1)])]
    p = [SuperVector(g, v) for v in eigenspace([g.theta], [Q(-1)])]
    if len(k) + len(p) != g.dim:
        raise ValueError("theta is not diagonalisable with eigenvalues +-1")
    return k, p


def _bracket_rows(g: LieSuperalgebra, gens: Sequence[SuperVector],
                  within: Sequence[SuperVector]):
    """One row per vector w of within: the coordinates of [s, w], keyed
    (index of s, coordinate), for each s in gens."""
    for s in gens:
        if s.alg is not g:
            raise MixedAlgebras("centralizer generators from another algebra")
    outs = [g.bracket_each(s, within) for s in gens]
    return ({(i, t): x for i, out in enumerate(outs)
             for t, x in out[w].c.items()} for w in range(len(within)))


def centralizer(g: LieSuperalgebra, gens: Sequence[SuperVector],
                within: Sequence[SuperVector]) -> List[SuperVector]:
    """Basis of {y in span(within) : [s, y] = 0 for every s in gens}."""
    kern = kernel(_bracket_rows(g, gens, within))
    return [sum((within[t].scale(c) for t, c in coords.items()), g.zero())
            for coords in kern]


def centralizer_dimension(g: LieSuperalgebra, gens: Sequence[SuperVector],
                          within: Sequence[SuperVector]) -> int:
    """len(centralizer(g, gens, within)) for linearly independent within,
    counted as len(within) less the rank of the brackets."""
    return len(within) - rank(_bracket_rows(g, gens, within))
