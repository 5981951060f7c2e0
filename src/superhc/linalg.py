"""Exact sparse linear algebra over the rationals (or a quadratic extension).

Vectors are tuples of scalars, sparse rows are dicts column -> scalar.  All
eliminations are fraction-free in spirit but simply exact in practice: no
pivot thresholds, no rounding, ever.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

Q = Fraction
Row = Dict[int, object]


class CommutationFailure(Exception):
    """Simultaneous eigenspaces were requested for non-commuting matrices."""


class IrrationalSpectrum(Exception):
    """A characteristic polynomial does not split over the scalar domain."""


class NotSemisimple(Exception):
    """A matrix has fewer eigenvectors than its dimension."""


def accumulate(acc: dict, other: dict, coeff=Q(1)) -> None:
    """acc += coeff * other for sparse dicts; entries that cancel are dropped."""
    if not coeff:
        return
    for k, v in other.items():
        w = coeff * v
        if k in acc:
            w = acc[k] + w
            if not w:
                del acc[k]
                continue
        elif not w:
            continue
        acc[k] = w


class ScalarMatrix:
    """A rows x cols matrix with exact scalar entries, stored sparsely."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Optional[List[Row]] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "ScalarMatrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(data):
            if len(row) != ncols:
                raise ValueError("ragged matrix data")
            for j, x in enumerate(row):
                if x:
                    m.rows[i][j] = Q(x) if isinstance(x, int) else x
        return m

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "ScalarMatrix":
        ncols = len(cols)
        nrows = len(cols[0]) if ncols else 0
        m = cls(nrows, ncols)
        for j, col in enumerate(cols):
            for i, x in enumerate(col):
                if x:
                    m.rows[i][j] = Q(x) if isinstance(x, int) else x
        return m

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = Q(1)
        return m

    def entry(self, i: int, j: int):
        return self.rows[i].get(j, Q(0))

    def dense(self) -> List[List]:
        return [[self.rows[i].get(j, Q(0)) for j in range(self.ncols)]
                for i in range(self.nrows)]

    def apply(self, vec: Sequence) -> Tuple:
        out = []
        for i in range(self.nrows):
            s = Q(0)
            for j, a in self.rows[i].items():
                if vec[j]:
                    s = s + a * vec[j]
            out.append(s)
        return tuple(out)

    def mul(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = ScalarMatrix(self.nrows, other.ncols)
        for i in range(self.nrows):
            acc: Row = {}
            for k, a in self.rows[i].items():
                accumulate(acc, other.rows[k], a)
            out.rows[i] = acc
        return out

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(self.rows[i] == other.rows[i] for i in range(self.nrows))

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     tuple(tuple(sorted(r.items())) for r in self.rows)))


def _echelonise(rows: List[Row]):
    """Reduce sparse rows to (unordered) reduced echelon form.

    Returns a dict pivot_column -> row, where each row has a unit pivot,
    contains no other pivot column, and every stored row is reduced against
    every other (full RREF, maintained incrementally).  Rows are taken
    sparsest first (a stable sort, so ties keep the caller's order): the
    reduced echelon form for a fixed column order does not depend on the row
    order, but fill-in, and with it the cost, does.
    """
    pivots: Dict[int, Row] = {}
    for raw in sorted(rows, key=len):
        r = dict(raw)
        # fully reduce the incoming row against all existing pivots; pivot
        # rows contain no foreign pivot columns, so one sweep suffices
        while True:
            hit = [c for c in r if c in pivots]
            if not hit:
                break
            for c in hit:
                coef = r.pop(c)
                if not coef:
                    continue
                for j, a in pivots[c].items():
                    if j == c:
                        continue
                    v = r.get(j, Q(0)) - coef * a
                    if v:
                        r[j] = v
                    elif j in r:
                        del r[j]
        if not r:
            continue
        lead = min(r)
        inv = Q(1) / r[lead]
        r = {j: a * inv for j, a in r.items()}
        for prow in pivots.values():
            if lead in prow:
                c = prow.pop(lead)
                for j, a in r.items():
                    if j == lead:
                        continue
                    v = prow.get(j, Q(0)) - c * a
                    if v:
                        prow[j] = v
                    elif j in prow:
                        del prow[j]
        pivots[lead] = r
    return pivots


def rank(m: ScalarMatrix) -> int:
    return len(_echelonise(m.rows))


def nullspace(m: ScalarMatrix) -> List[Tuple]:
    """Basis of the right kernel of m, as coordinate tuples.

    The basis is the reduced echelon one: each vector has a 1 in its free
    column and zeros in the other free columns, so output is deterministic.
    """
    pivots = _echelonise(m.rows)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * m.ncols
        v[f] = Q(1)
        for p, row in pivots.items():
            if f in row:
                v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def kernel(columns: Iterable[Dict[Hashable, object]]) -> List[Tuple]:
    """The nullspace basis of the matrix whose j-th column is the j-th dict.

    Columns are sparse maps from any hashable output coordinate to a scalar
    and are consumed one at a time, so a generator never holds them all.
    Rows are listed in repr order of their coordinates, which breaks the
    ties of _echelonise's sparsest-first order.
    """
    rows: Dict[Hashable, Row] = {}
    ncols = 0
    for j, col in enumerate(columns):
        for key, x in col.items():
            if x:
                rows.setdefault(key, {})[j] = x
        ncols = j + 1
    return nullspace(ScalarMatrix(len(rows), ncols,
                                  [rows[k] for k in sorted(rows, key=repr)]))


def eigenspace(m: ScalarMatrix, ev) -> List[Tuple]:
    """The nullspace basis of m - ev * I, through kernel over its columns."""
    cols: List[Row] = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for j, a in row.items():
            cols[j][i] = a
    for j, col in enumerate(cols):
        col[j] = col.get(j, Q(0)) - ev
    return kernel(cols)


def last_nonzero(v: Sequence) -> int:
    """Index of the last nonzero entry of v.

    On the basis nullspace returns this is the vector's own free column, so
    the last indices are distinct: a combination of basis vectors ends where
    its latest member ends, and the kernel vectors supported on the first n
    coordinates are spanned by the basis vectors whose last index is below n.
    """
    return max(j for j, x in enumerate(v) if x)


def solve_membership(v: Sequence, basis: Sequence[Sequence]):
    """Coordinates of v in the span of basis, or None if v is not in it."""
    if not basis:
        return () if not any(v) else None
    n = len(v)
    if any(len(b) != n for b in basis):
        raise ValueError("vectors of unequal length")
    # augmented system: columns are basis vectors, last column is v
    rows: List[Row] = []
    for i in range(n):
        r: Row = {}
        for j, b in enumerate(basis):
            if b[i]:
                r[j] = b[i]
        if v[i]:
            r[len(basis)] = v[i]
        if r:
            rows.append(r)
    pivots = _echelonise(rows)
    if len(basis) in pivots:
        return None
    coords = [Q(0)] * len(basis)
    for p, row in pivots.items():
        coords[p] = row.get(len(basis), Q(0))
    return tuple(coords)


def linear_solver(basis: Sequence[Sequence]):
    """Return a function expressing vectors in the given basis.

    The basis is eliminated once, each row tagged with the combination of
    basis vectors it stands for; a solve then only reduces its vector against
    the stored pivots.  Raises ValueError on a dependent basis; the solver
    raises ValueError on vectors outside the span.
    """
    n = len(basis[0]) if basis else 0
    if any(len(b) != n for b in basis):
        raise ValueError("vectors of unequal length")
    rows: List[Row] = []
    for j, b in enumerate(basis):
        r: Row = {i: x for i, x in enumerate(b) if x}
        r[n + j] = Q(1)
        rows.append(r)
    pivots = _echelonise(rows)
    if any(p >= n for p in pivots):
        raise ValueError("basis is linearly dependent")

    def solve(v):
        if basis and len(v) != n:
            raise ValueError("vectors of unequal length")
        # pivot rows carry no foreign pivot column, so one sweep leaves the
        # part of v outside the span in columns < n and minus its
        # coordinates in the tag columns
        residual: Row = {i: x for i, x in enumerate(v) if x}
        for p, row in pivots.items():
            c = residual.get(p)
            if c:
                accumulate(residual, row, -c)
        if any(i < len(v) for i in residual):
            raise ValueError("vector outside span")
        return tuple(-residual.get(n + j, Q(0)) for j in range(len(basis)))

    return solve


def invert(m: ScalarMatrix) -> ScalarMatrix:
    if m.nrows != m.ncols:
        raise ValueError("not square")
    n = m.nrows
    rows: List[Row] = []
    for i in range(n):
        r = dict(m.rows[i])
        r[n + i] = Q(1)
        rows.append(r)
    pivots = _echelonise(rows)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    inv = ScalarMatrix(n, n)
    for p, row in pivots.items():
        for j, a in row.items():
            if j >= n:
                inv.rows[p][j - n] = a
    return inv


def char_poly(m: ScalarMatrix) -> List:
    """Characteristic polynomial coefficients [1, c1, ..., cn] (monic, desc).

    Faddeev-LeVerrier; exact over the scalar ring.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("not square")
    coeffs = [Q(1)]
    mk = ScalarMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m.mul(mk)
        tr = sum((mk.rows[i].get(i, Q(0)) for i in range(n)), Q(0))
        ck = -tr / k
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                v = mk.rows[i].get(i, Q(0)) + ck
                if v:
                    mk.rows[i][i] = v
                elif i in mk.rows[i]:
                    del mk.rows[i][i]
    return coeffs


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs: List) -> Tuple[List[Tuple[Fraction, int]], int]:
    """All rational roots (with multiplicity) of a monic rational polynomial.

    coeffs are [1, c1, ..., cn] in descending powers.  Returns the roots and
    the degree of the unfactored remainder (0 iff the polynomial splits over
    the rationals).
    """
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise IrrationalSpectrum("matrix entries outside the rationals")
    work = [Q(c) for c in coeffs]
    roots: List[Tuple[Fraction, int]] = []

    def strip_zero_roots(p):
        mult = 0
        while len(p) > 1 and p[-1] == 0:
            p = p[:-1]
            mult += 1
        return p, mult

    work, zmult = strip_zero_roots(work)
    if zmult:
        roots.append((Q(0), zmult))
    while len(work) > 1:
        scale = lcm(*[c.denominator for c in work]) if len(work) > 1 else 1
        ints = [int(c * scale) for c in work]
        lead, const = ints[0], ints[-1]
        found = None
        for p in _divisors(const):
            for q in _divisors(lead):
                for cand in (Q(p, q), Q(-p, q)):
                    acc = Q(0)
                    for c in work:
                        acc = acc * cand + c
                    if acc == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        mult = 0
        while True:
            # synthetic division by (x - found)
            out = [work[0]]
            for c in work[1:]:
                out.append(c + out[-1] * found)
            if out[-1] != 0:
                break
            work = out[:-1]
            mult += 1
        roots.append((found, mult))
    return roots, len(work) - 1


def _restriction(m: ScalarMatrix, basis: List[Tuple]) -> ScalarMatrix:
    solve = linear_solver(basis)
    cols = [solve(m.apply(b)) for b in basis]
    return ScalarMatrix.from_columns(cols)


def simultaneous_eigenspaces(ms: Sequence[ScalarMatrix]
                             ) -> List[Tuple[Tuple, List[Tuple]]]:
    """Joint eigenspace decomposition of a commuting family.

    Returns a list of (eigenvalue-tuple, basis-of-subspace) pairs covering
    the whole ambient space.  Raises CommutationFailure, IrrationalSpectrum
    or NotSemisimple when the decomposition does not exist over the scalars.
    """
    if not ms:
        raise ValueError("empty matrix list")
    n = ms[0].nrows
    for m in ms:
        if m.nrows != n or m.ncols != n:
            raise ValueError("matrices must be square of equal size")
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if ms[i].mul(ms[j]) != ms[j].mul(ms[i]):
                raise CommutationFailure(f"matrices {i} and {j} do not commute")

    blocks: List[Tuple[Tuple, List[Tuple]]] = [
        ((), [tuple(Q(1) if k == i else Q(0) for k in range(n)) for i in range(n)])]
    for m in ms:
        refined: List[Tuple[Tuple, List[Tuple]]] = []
        for values, basis in blocks:
            restr = _restriction(m, basis)
            roots, remainder = rational_roots(char_poly(restr))
            if remainder:
                raise IrrationalSpectrum(
                    "characteristic factor of degree %d does not split" % remainder)
            dim_found = 0
            for ev, _mult in roots:
                kern = eigenspace(restr, ev)
                if not kern:
                    continue
                lifted = []
                for coords in kern:
                    vec = [Q(0)] * n
                    for j, c in enumerate(coords):
                        if c:
                            for t in range(n):
                                if basis[j][t]:
                                    vec[t] += c * basis[j][t]
                    lifted.append(tuple(vec))
                dim_found += len(lifted)
                refined.append((values + (ev,), lifted))
            if dim_found != len(basis):
                raise NotSemisimple("eigenvectors do not span; matrix not semisimple")
        blocks = refined
    return blocks


def span_basis(vectors: Sequence[Sequence]) -> List[Tuple]:
    """A deterministic echelon basis of the span of the given vectors."""
    if not vectors:
        return []
    n = len(vectors[0])
    rows: List[Row] = []
    for v in vectors:
        r = {j: x for j, x in enumerate(v) if x}
        if r:
            rows.append(r)
    pivots = _echelonise(rows)
    out = []
    for p in sorted(pivots):
        row = pivots[p]
        out.append(tuple(row.get(j, Q(0)) for j in range(n)))
    return out
