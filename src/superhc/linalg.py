"""Exact sparse linear algebra over the rationals.

A vector is a Row, a sparse dict from column to a nonzero scalar; every
function here takes and returns vectors in that one form.  Inputs may hold
ints and Fractions, and ScalarMatrix keeps the ints it is given; what an
elimination returns (kernels, span bases, solutions, eigenvalues) holds
Fractions only.  Every elimination goes through Echelon, which works in
the integers only: a row is scaled once to integers (a row of ints
enters as it is), swept without division and made primitive once, when
it is inserted, so pivots need not be 1; a column index tells each new
pivot which stored rows to clear.
Readers divide by the pivot as they read: a kernel vector or a span basis
row is built with one Fraction per entry, and Echelon.reduce divides the
residual once, by the scale of its sweep.
No pivot thresholds, no rounding, ever.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import (Dict, Hashable, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from .scalars import int_if_integral

Q = Fraction
Row = Dict[int, object]


class CommutationFailure(ValueError):
    """Simultaneous eigenspaces were requested for non-commuting matrices."""


class IrrationalSpectrum(ValueError):
    """A characteristic polynomial has roots that are not rational."""


class NotSemisimple(ValueError):
    """A matrix has fewer eigenvectors than its dimension."""


def accumulate(acc: dict, other: dict, coeff=None) -> None:
    """acc += coeff * other for sparse dicts, or acc += other when coeff is
    None; entries that cancel are dropped.  A coefficient of 1 or -1 adds or
    negates other without multiplying."""
    if coeff is None or coeff == 1:
        items = other.items()
    elif not coeff:
        return
    elif coeff == -1:
        items = [(k, -v) for k, v in other.items()]
    else:
        items = [(k, coeff * v) for k, v in other.items()]
    for k, w in items:
        if k in acc:
            w = acc[k] + w
            if not w:
                del acc[k]
                continue
        elif not w:
            continue
        acc[k] = w


def integral_row(row: Row) -> Tuple[Row, int]:
    """(r, s): row times s, all ints, for s the lcm of its denominators.

    r is a new dict without row's zeros.  A row of ints is copied as it is,
    with s = 1 and no lcm; any other row is scaled once.
    """
    if {int}.issuperset(map(type, row.values())):
        return {j: x for j, x in row.items() if x}, 1
    s = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (s // x.denominator)
            for j, x in row.items() if x}, s


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
                    m.rows[i][j] = x
        return m

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    def entry(self, i: int, j: int):
        return self.rows[i].get(j, Q(0))

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


class Echelon:
    """The reduced echelon rows of a growing subspace, keyed by pivot column.

    Each stored row has its pivot at its leading column and no entry in any
    other pivot column (full RREF up to the scale of each row, kept
    incrementally).  Rows stay in the integers from start to finish: each is
    a primitive integer row, ints with no common factor and a positive
    pivot, which need not be 1; a reader divides by the pivot when it reads
    a row.  An incoming row is scaled to integers (a row of ints is only
    copied), swept without division, and divided by its content once, when
    insert makes it primitive; a stored row is divided by its content after
    each back-clear.

    cols maps each column that is not a pivot to the pivots of the stored
    rows holding it, so a new pivot clears only the rows that hold it.
    insert and reduce, and with them rank, take any hashable, totally
    ordered column key; _kernel_basis needs the ints 0 ... n - 1.
    """

    __slots__ = ("rows", "cols")

    def __init__(self):
        self.rows: Dict[int, Row] = {}
        self.cols: Dict[int, Set[int]] = {}

    def _sweep(self, row: Row) -> Tuple[Row, int]:
        """(r, s): r = s * (row minus its components along the stored rows),
        an integer row, for a positive int s.

        The row is scaled to integers first and never divided.  Stored rows
        carry no foreign pivot column, so one sweep over the pivots hit by
        row leaves no pivot column behind.
        """
        # a new dict, since _clear works in place, and without zeros, since
        # an explicit zero left in it could become a pivot
        r, s = integral_row(row)
        for c in [c for c in r if c in self.rows]:
            s *= _clear(r, c, self.rows[c])
        return r, s

    def reduce(self, row: Row) -> Row:
        """row minus its components along the stored rows, as a new row of
        Fractions: one division per entry, by the scale of the sweep."""
        r, s = self._sweep(row)
        return {j: Q(x, s) for j, x in r.items()}

    def insert(self, row: Row) -> bool:
        """Add row to the span; False if it lay in the span already."""
        r, _ = self._sweep(row)
        if not r:
            return False
        self._store(r)
        return True

    def _store(self, r: Row) -> None:
        """Store the nonzero swept integer row r (see _sweep), made
        primitive, and clear its pivot from the stored rows."""
        lead = min(r)
        g = gcd(*r.values())
        if r[lead] < 0:
            g = -g
        if g != 1:
            r = {j: x // g for j, x in r.items()}
        rows, cols = self.rows, self.cols
        held = [(j, cols.setdefault(j, set())) for j in r if j != lead]
        for p in cols.pop(lead, ()):
            prow = rows[p]
            _clear(prow, lead, r)
            # a cleared row's support changes only in r's columns
            for j, holders in held:
                if j in prow:
                    holders.add(p)
                else:
                    holders.discard(p)
            g = gcd(*prow.values())
            if g > 1:
                for j in prow:
                    prow[j] //= g
        for _, holders in held:
            holders.add(lead)
        rows[lead] = r

    def insert_all(self, rows: List[Row]) -> "Echelon":
        """Grow the span by sparse rows; returns self.

        Rows are taken sparsest first (a stable sort, so ties keep the
        caller's order): the reduced echelon form for a fixed column order
        does not depend on the row order, but fill-in, and with it the
        cost, does.
        """
        for r in sorted(rows, key=len):
            self.insert(r)
        return self

    def copy(self) -> "Echelon":
        """An independent Echelon of the same span, to grow on its own."""
        out = Echelon()
        out.rows = {c: dict(r) for c, r in self.rows.items()}
        out.cols = {j: set(ps) for j, ps in self.cols.items()}
        return out


def _clear(r: Row, c, prow: Row) -> int:
    """Clear column c of the integer row r with the primitive row prow, whose
    entry p = prow[c] is positive: r <- f*r - e*prow, with f = p/g and
    e = a/g for a = r[c] and g = gcd(a, p); returns f, which is positive."""
    a = r.pop(c)
    p = prow[c]
    g = gcd(a, p)
    f, e = p // g, a // g
    if f != 1:
        for j in r:
            r[j] *= f
    for j, x in prow.items():
        if j != c:
            w = e * x
            # comparing finds a cancellation more cheaply than subtracting
            if j not in r:
                r[j] = -w
            elif r[j] != w:
                r[j] -= w
            else:
                del r[j]
    return f


def _echelonise(rows: List[Row]) -> Echelon:
    """The reduced echelon form of the span of sparse rows."""
    return Echelon().insert_all(rows)


def rank(rows: Iterable[Row]) -> int:
    """The dimension of the span of sparse rows."""
    return len(_echelonise(list(rows)).rows)


def nullspace(m: ScalarMatrix) -> List[Row]:
    """Basis of the right kernel of m, as rows.

    The basis is the reduced echelon one: each vector has a 1 in its free
    column and no entry in the other free columns, so output is
    deterministic.  Its other entries lie in pivot columns before the free
    one, so each vector's largest key is its own free column and these are
    distinct: a combination of basis vectors ends where its latest member
    ends, and the kernel vectors supported on the first n coordinates are
    spanned by the basis vectors whose largest key is below n.
    """
    return _kernel_basis(_echelonise(m.rows), m.ncols)


def _kernel_basis(ech: Echelon, ncols: int) -> List[Row]:
    """The reduced echelon basis of the vectors on ncols columns that ech's
    rows annihilate (see nullspace).  Entry p of the vector of free column
    f is -rows[p][f] / rows[p][p], built as one Fraction from integer rows."""
    rows, cols = ech.rows, ech.cols
    basis = []
    for f in range(ncols):
        if f not in rows:
            v: Row = {p: Q(-rows[p][f], rows[p][p])
                      for p in sorted(cols.get(f, ()))}
            v[f] = Q(1)
            basis.append(v)
    return basis


def kernel(columns: Iterable[Dict[Hashable, object]]) -> List[Row]:
    """The nullspace basis of the matrix whose j-th column is the j-th dict.

    Columns are sparse maps from any hashable output coordinate to a scalar
    and are consumed one at a time, so a generator never holds them all.
    """
    rows: Dict[Hashable, Row] = {}
    ncols = 0
    for j, col in enumerate(columns):
        for key, x in col.items():
            if x:
                rows.setdefault(key, {})[j] = x
        ncols = j + 1
    return nullspace(ScalarMatrix(len(rows), ncols, list(rows.values())))


def _shifted_rows(m: ScalarMatrix, ev) -> List[Row]:
    """The rows of m - ev * I, an integral ev as an int."""
    rows = [dict(row) for row in m.rows]
    ev = int_if_integral(ev)
    if ev:
        for i, r in enumerate(rows):
            r[i] = r.get(i, 0) - ev
    return rows


def eigenspace(ms: Sequence[ScalarMatrix], values: Sequence) -> List[Row]:
    """The joint eigenspace {v : m v = ev v for each m, ev in zip(ms, values)}:
    the kernel of the stacked matrices m - ev * I."""
    ech = Echelon()
    for m, ev in zip(ms, values):
        ech.insert_all(_shifted_rows(m, ev))
    return _kernel_basis(ech, ms[0].ncols)


def linear_solver(basis: Sequence[Row]):
    """Return a function expressing rows in the given basis, as a row.

    The basis is eliminated once, each row tagged with the combination of
    basis vectors it stands for, in column n + j past every basis key; a
    solve then only reduces its vector against the stored rows.  Raises
    ValueError on a dependent basis; the solver raises ValueError on vectors
    outside the span, among them any with a key >= n.
    """
    n = 1 + max((j for b in basis for j in b), default=-1)
    rows: List[Row] = []
    for t, b in enumerate(basis):
        r = dict(b)
        r[n + t] = 1
        rows.append(r)
    ech = _echelonise(rows)
    if any(p >= n for p in ech.rows):
        raise ValueError("basis is linearly dependent")

    def solve(v: Row) -> Row:
        if any(j >= n for j in v):
            raise ValueError("vector outside span")
        # what is left in columns < n is the part of v outside the span; the
        # tag columns hold minus its coordinates
        residual = ech.reduce(v)
        if any(j < n for j in residual):
            raise ValueError("vector outside span")
        return {j - n: -residual[j] for j in sorted(residual)}

    return solve


def _minimal_polynomial(m: ScalarMatrix) -> List:
    """The minimal polynomial of a square m, monic, as [1, c1, ..., ck] in
    descending powers.

    The powers I, m, m^2, ... are flattened, entry (i, j) at column
    i n + j, and inserted into one Echelon, power k tagged with a 1 at
    column n^2 + k.  The first power whose sweep leaves nothing below n^2
    is a combination of the lower ones: what is left, s (x^k - sum c_j x^j)
    read in the tag columns, is the minimal polynomial up to the scale s.
    """
    n = m.nrows
    top = n * n
    ech = Echelon()
    power, k = ScalarMatrix.identity(n), 0
    while True:
        row = {i * n + j: x for i, r in enumerate(power.rows)
               for j, x in r.items()}
        row[top + k] = 1
        r, _ = ech._sweep(row)
        if min(r) >= top:
            return [Q(r.get(top + j, 0), r[top + k]) for j in range(k, -1, -1)]
        ech._store(r)
        power, k = m.mul(power), k + 1


def rational_roots(coeffs: List) -> Optional[List[Tuple[Fraction, int]]]:
    """The roots, with multiplicity, of a monic rational polynomial f that
    splits over the rationals, or None if it does not.

    coeffs are [1, c1, ..., cn] in descending powers.  With L the lcm of
    their denominators, S(y) = L^n f(y / L) is monic with integer
    coefficients, so its rational roots are integers: L times f's.  If S
    has real roots only, S is positive, increasing and convex above the
    largest, so a Newton step from there never passes it, and nor does its
    floor when that root is an integer.  The walk down from the Cauchy
    bound 1 + max |coefficient| therefore meets every root of a split S,
    largest first, and divides each out where it meets it.  A step at
    which S < 0 or S' <= 0 has passed a root that is not an integer, or S
    has roots off the real line: f does not split.  The roots are listed
    by |numerator|, then denominator, a positive root before its negative.
    """
    L = lcm(*(Q(c).denominator for c in coeffs))
    s = [int(Q(c) * L ** k) for k, c in enumerate(coeffs)]
    y = 1 + max(map(abs, s[1:]), default=0)
    mult: Dict[int, int] = {}
    while len(s) > 1:
        quotient, value = _divide(s, y)
        if not value:
            s = quotient
            mult[y] = mult.get(y, 0) + 1
            continue
        slope = _divide(quotient, y)[1]
        if value < 0 or slope <= 0:
            return None
        # y - ceil(value / slope): the floor of the Newton step
        y += -value // slope
    roots = [(Q(y, L), m) for y, m in mult.items()]
    return sorted(roots, key=lambda r: (abs(r[0].numerator), r[0].denominator,
                                        r[0] < 0))


def _divide(s: List[int], y: int) -> Tuple[List[int], int]:
    """(quotient, remainder) of the polynomial s, in descending powers, by
    x - y: the remainder is s(y), and the quotient's value at y is s'(y)."""
    out = [s[0]]
    for c in s[1:]:
        out.append(c + out[-1] * y)
    return out[:-1], out[-1]


def simultaneous_eigenspaces(ms: Sequence[ScalarMatrix]
                             ) -> List[Tuple[Tuple, List[Row]]]:
    """Joint eigenspace decomposition of a commuting family.

    Returns a list of (eigenvalue-tuple, basis-of-subspace) pairs covering
    the whole ambient space: one pair per tuple of rational eigenvalues
    with a nonzero joint eigenspace, the first matrix's value varying
    slowest.  Each basis is the kernel of the stacked family, every matrix
    shifted by its value; a block keeps the echelon rows of its prefix, so
    each value tried on it adds only the rows of the next shifted matrix.
    Each matrix's values are the roots of its minimal polynomial, which
    has the characteristic polynomial's irreducible factors and so splits
    over the rationals exactly when that does.  Raises CommutationFailure,
    IrrationalSpectrum or NotSemisimple when the decomposition does not
    exist over the scalars.
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
    # (values so far, echelon rows of the shifted matrices so far)
    blocks: List[Tuple[Tuple, Echelon]] = [((), Echelon())]
    for m in ms:
        roots = rational_roots(_minimal_polynomial(m))
        if roots is None:
            raise IrrationalSpectrum(
                "the eigenvalues are not rational: the characteristic "
                "polynomial does not split over the rationals")
        refined = []
        for prefix, ech in blocks:
            # the eigenspaces of m inside a block fill at most the block
            room = n - len(ech.rows)
            for ev, _mult in roots:
                if not room:
                    break
                sub = ech.copy().insert_all(_shifted_rows(m, ev))
                if len(sub.rows) < n:
                    refined.append((prefix + (ev,), sub))
                    room -= n - len(sub.rows)
        blocks = refined
    out = [(prefix, _kernel_basis(ech, n)) for prefix, ech in blocks]
    if sum(len(b) for _, b in out) != n:
        raise NotSemisimple("eigenvectors do not span; matrix not semisimple")
    return out


def span_basis(vectors: Iterable[Row]) -> List[Row]:
    """A deterministic echelon basis of the span of the given rows."""
    rows = _echelonise(list(vectors)).rows
    return [{j: Q(r[j], r[p]) for j in sorted(r)}
            for p, r in sorted(rows.items())]
