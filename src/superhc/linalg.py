"""Exact sparse linear algebra over the rationals (or a quadratic extension).

A vector is a Row, a sparse dict from column to a nonzero scalar; every
function here takes and returns vectors in that one form, with Fraction or
Quad entries.  Every elimination goes through Echelon, which works
fraction-free: rational rows are scaled once to primitive integer rows and
eliminated over the integers, so pivots need not be 1.  A kernel vector
is read straight off the integer rows, one Fraction per entry; the
unit-pivot Fraction rows that a span basis or a solve needs are built once,
after the last row is in (Echelon.unit_rows), and Echelon.reduce returns
the exact residual.
No pivot thresholds, no rounding, ever.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

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
    def identity(cls, n: int) -> "ScalarMatrix":
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = Q(1)
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
    incrementally).  While every row has rational entries, each is kept as a
    primitive integer row: ints with no common factor and a positive pivot,
    which need not be 1.  unit_rows turns them into the reduced echelon form
    itself, each row divided by its pivot, once the elimination is over:
    when span_basis reads the rows, when reduce is first called, or when the
    first row with an irrational entry comes in (a kernel basis reads the
    integer rows as they are).  From then on (unit is set) every
    row is kept with a unit pivot.
    """

    __slots__ = ("rows", "unit")

    def __init__(self):
        self.rows: Dict[int, Row] = {}
        self.unit = False

    def _eliminate(self, r: Row, c, prow: Row) -> None:
        """Clear column c of r with prow: r <- f*r - e*prow, f nonzero.

        Over the integers f = p/g and e = a/g for a = r[c], p = prow[c] and
        g = gcd(a, p), and r is then divided by its content; with a unit
        pivot f = 1 and e = a.
        """
        a = r.pop(c)
        if self.unit:
            e = a
        else:
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
        if not self.unit:
            g = gcd(*r.values())
            if g > 1:
                for j in r:
                    r[j] //= g

    def _sweep(self, row: Row) -> Row:
        """s * (row minus its components along the stored rows), for some
        nonzero scalar s, which is 1 once the rows are unit.

        A rational row is scaled to integers first.  Stored rows carry no
        foreign pivot column, so one sweep over the pivots hit by row leaves
        no pivot column behind.
        """
        # an explicit zero left in the copy could become a pivot
        r = {j: x for j, x in row.items() if x}
        if not self.unit:
            if all(isinstance(x, (int, Fraction)) for x in r.values()):
                den = lcm(*(x.denominator for x in r.values()))
                r = {j: x.numerator * (den // x.denominator)
                     for j, x in r.items()}
            else:
                self.unit_rows()
        for c in [c for c in r if c in self.rows]:
            self._eliminate(r, c, self.rows[c])
        return r

    def reduce(self, row: Row) -> Row:
        """row minus its components along the stored rows, as a new row.

        The rows are made unit first (see unit_rows), which makes the sweep
        exact: one vector is not worth the scaling to integers.
        """
        self.unit_rows()
        return self._sweep(row)

    def insert(self, row: Row) -> bool:
        """Add row to the span; False if it lay in the span already."""
        r = self._sweep(row)
        if not r:
            return False
        lead = min(r)
        if self.unit:
            inv = Q(1) / r[lead]
            r = {j: x * inv for j, x in r.items()}
        else:
            g = gcd(*r.values())
            if r[lead] < 0:
                g = -g
            if g != 1:
                r = {j: x // g for j, x in r.items()}
        for prow in self.rows.values():
            if lead in prow:
                self._eliminate(prow, lead, r)
        self.rows[lead] = r
        return True

    def copy(self) -> "Echelon":
        """An independent Echelon of the same span, to grow on its own."""
        out = Echelon()
        out.rows = {c: dict(r) for c, r in self.rows.items()}
        out.unit = self.unit
        return out

    def unit_rows(self) -> Dict[int, Row]:
        """The stored rows, each divided by its pivot entry; they are kept
        with unit pivots from now on."""
        if not self.unit:
            self.rows = {c: {j: Q(x, r[c]) for j, x in r.items()}
                         for c, r in self.rows.items()}
            self.unit = True
        return self.rows


def _insert_all(ech: Echelon, rows: List[Row]) -> Echelon:
    """Grow ech by the span of sparse rows; returns ech.

    Rows are taken sparsest first (a stable sort, so ties keep the caller's
    order): the reduced echelon form for a fixed column order does not
    depend on the row order, but fill-in, and with it the cost, does.
    """
    for r in sorted(rows, key=len):
        ech.insert(r)
    return ech


def _echelonise(rows: List[Row]) -> Echelon:
    """The reduced echelon form of the span of sparse rows."""
    return _insert_all(Echelon(), rows)


def rank(m: ScalarMatrix) -> int:
    return len(_echelonise(m.rows).rows)


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
    rows = ech.rows
    order = sorted(rows)
    basis = []
    for f in range(ncols):
        if f not in rows:
            if ech.unit:
                v: Row = {p: -rows[p][f] for p in order if f in rows[p]}
            else:
                v = {p: Q(-rows[p][f], rows[p][p]) for p in order
                     if f in rows[p]}
            v[f] = Q(1)
            basis.append(v)
    return basis


def kernel(columns: Iterable[Dict[Hashable, object]]) -> List[Row]:
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


def _shifted_rows(m: ScalarMatrix, ev) -> List[Row]:
    """The rows of m - ev * I."""
    rows = [dict(row) for row in m.rows]
    if ev:
        for i, r in enumerate(rows):
            r[i] = r.get(i, 0) - ev
    return rows


def eigenspace(ms: Sequence[ScalarMatrix], values: Sequence) -> List[Row]:
    """The joint eigenspace {v : m v = ev v for each m, ev in zip(ms, values)}:
    the kernel of the stacked matrices m - ev * I."""
    ech = Echelon()
    for m, ev in zip(ms, values):
        _insert_all(ech, _shifted_rows(m, ev))
    return _kernel_basis(ech, ms[0].ncols)


def solve_membership(v: Dict[Hashable, object],
                     basis: Sequence[Dict[Hashable, object]]) -> Optional[Row]:
    """Coordinates of v in the span of basis, or None if v is not in it.

    Vectors are sparse maps from any hashable coordinate to a scalar.  v is
    in the span iff some vector of the kernel of the columns (basis | v)
    ends at v's column (see nullspace); minus its other entries are then the
    coordinates, absent on the basis vectors that are free.
    """
    k = len(basis)
    for w in kernel([*basis, v]):
        if max(w) == k:
            return {j: -x for j, x in w.items() if j < k}
    return None


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
        r[n + t] = Q(1)
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
        ck = -sum((row[i] for i, row in enumerate(mk.rows) if i in row), Q(0)) / k
        coeffs.append(ck)
        if k < n and ck:
            for i, row in enumerate(mk.rows):
                accumulate(row, {i: ck})
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


def simultaneous_eigenspaces(ms: Sequence[ScalarMatrix]
                             ) -> List[Tuple[Tuple, List[Row]]]:
    """Joint eigenspace decomposition of a commuting family.

    Returns a list of (eigenvalue-tuple, basis-of-subspace) pairs covering
    the whole ambient space: one pair per tuple of rational eigenvalues
    with a nonzero joint eigenspace, the first matrix's value varying
    slowest.  Each basis is the kernel of the stacked family, every matrix
    shifted by its value; a block keeps the echelon rows of its prefix, so
    each value tried on it adds only the rows of the next shifted matrix.
    Raises CommutationFailure, IrrationalSpectrum or NotSemisimple when the
    decomposition does not exist over the scalars.
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
        roots, remainder = rational_roots(char_poly(m))
        if remainder:
            raise IrrationalSpectrum(
                f"the eigenvalues are not rational: a factor of degree "
                f"{remainder} of the characteristic polynomial has no "
                f"rational root")
        refined = []
        for prefix, ech in blocks:
            # the eigenspaces of m inside a block fill at most the block
            room = n - len(ech.rows)
            for ev, _mult in roots:
                if not room:
                    break
                sub = _insert_all(ech.copy(), _shifted_rows(m, ev))
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
    pivots = _echelonise(list(vectors)).unit_rows()
    return [{j: pivots[p][j] for j in sorted(pivots[p])} for p in sorted(pivots)]
