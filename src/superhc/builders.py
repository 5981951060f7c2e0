"""Concrete algebras: matrix superalgebras and the doubling construction.

Structure constants are never typed in by hand; they are computed from
explicit sparse matrices (here, and for the anisotropic rank-one models of
rings.py), so closure and the Jacobi identity hold by construction
and the full validation scan acts as a regression test rather than an act
of faith.

Scalars going in are ints where they can be: unit matrices, theta and the
declared decompositions hold ints, and supercommutators are summed in the
integers, each matrix scaled to integers once.  The structure constants
are what linalg's solver returns, Fractions, which LieSuperalgebra reads
as ints where integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

from .linalg import ScalarMatrix, accumulate, linear_solver
from .liesuper import LieSuperalgebra, SuperVector

Q = Fraction


def supercommutator(x: ScalarMatrix, y: ScalarMatrix, both_odd: bool
                    ) -> ScalarMatrix:
    """[x, y] = xy - (-1)^{|x||y|} yx of two homogeneous supermatrices."""
    out = x.mul(y)
    for i, row in enumerate(y.mul(x).rows):
        accumulate(out.rows[i], row, 1 if both_odd else -1)
    return out


def _integral_rows(m: ScalarMatrix) -> Tuple[List[Dict[int, int]], int]:
    """(rows, s): the rows of m times s, all ints, for s the lcm of the
    denominators of its entries."""
    s = lcm(*(x.denominator for row in m.rows for x in row.values()))
    return [{j: x.numerator * (s // x.denominator) for j, x in row.items()}
            for row in m.rows], s


def _flat_supercommutator(x: Tuple[List[Dict[int, int]], int],
                          y: Tuple[List[Dict[int, int]], int], n: int,
                          both_odd: bool) -> Dict[int, object]:
    """supercommutator of two n x n matrices given by _integral_rows,
    flattened, entry (i, j) at i * n + j: summed in the integers straight
    from the sparse rows, and each entry divided once by the two scales."""
    (xr, sx), (yr, sy) = x, y
    out: Dict[int, object] = {}
    for left, right, sign in ((xr, yr, 1), (yr, xr, 1 if both_odd else -1)):
        for i, row in enumerate(left):
            base = i * n
            for k, a in row.items():
                a *= sign
                for j, b in right[k].items():
                    key = base + j
                    w = out.get(key, 0) + a * b
                    if w:
                        out[key] = w
                    else:
                        del out[key]
    s = sx * sy
    return out if s == 1 else {key: Q(w, s) for key, w in out.items()}


def _supertrace_of_product(x: ScalarMatrix, y: ScalarMatrix,
                           space_parity: Sequence[int]):
    s = 0
    for i, row in enumerate(x.rows):
        for k, a in row.items():
            b = y.rows[k].get(i)
            if b:
                s = s - a * b if space_parity[i] else s + a * b
    return s


def matrix_superalgebra(names: Sequence[str], mats: Sequence,
                        parities: Sequence[int], space_parity: Sequence[int]
                        ) -> LieSuperalgebra:
    """Lie superalgebra spanned by matrices, with the supertrace form.

    mats are ScalarMatrix objects or dense row sequences.
    """
    mats = [m if isinstance(m, ScalarMatrix) else ScalarMatrix.from_rows(m)
            for m in mats]

    def flat(m: ScalarMatrix) -> Dict[int, object]:
        return {i * m.ncols + j: x for i, row in enumerate(m.rows)
                for j, x in row.items()}

    solve = linear_solver([flat(m) for m in mats])
    integral = [_integral_rows(m) for m in mats]
    brackets: Dict[Tuple[int, int], Dict[int, object]] = {}
    n = len(mats)
    for i in range(n):
        for j in range(i, n):
            br = _flat_supercommutator(integral[i], integral[j],
                                       mats[i].ncols,
                                       bool(parities[i] and parities[j]))
            try:
                out = solve(br)
            except ValueError:
                raise ValueError(f"matrices do not close under bracket at ({i},{j})"
                                 ) from None
            if out:
                brackets[(i, j)] = out
    form = ScalarMatrix.from_rows(
        [[_supertrace_of_product(a, b, space_parity) for b in mats] for a in mats])
    return LieSuperalgebra(names, parities, brackets, form=form)


def _unit(n: int, i: int, j: int) -> ScalarMatrix:
    m = ScalarMatrix(n, n)
    m.rows[i][j] = 1
    return m


def sl2() -> LieSuperalgebra:
    e, f = _unit(2, 0, 1), _unit(2, 1, 0)
    h = [[1, 0], [0, -1]]
    g = matrix_superalgebra(["e", "h", "f"], [e, h, f], [0, 0, 0], [0, 0])
    g.decomposition = {"center": [], "ideals": [[g.basis(i) for i in range(3)]]}
    return g


def osp12() -> LieSuperalgebra:
    """osp(1|2) inside gl(1|2): even sl(2) plus two odd weight vectors."""
    h = [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
    e = _unit(3, 1, 2)
    f = _unit(3, 2, 1)
    x = [[0, 0, 1], [-1, 0, 0], [0, 0, 0]]   # weight +1
    y = [[0, 1, 0], [0, 0, 0], [1, 0, 0]]    # weight -1
    g = matrix_superalgebra(["e", "h", "f", "x", "y"], [e, h, f, x, y],
                            [0, 0, 0, 1, 1], [0, 1, 1])
    g.decomposition = {"center": [], "ideals": [[g.basis(i) for i in range(5)]]}
    return g


def _gl_super(p: int, q: int
              ) -> Tuple[List[str], List[ScalarMatrix], List[int], List[int]]:
    n = p + q
    sp = [0] * p + [1] * q
    names, mats, par = [], [], []
    for i in range(n):
        for j in range(n):
            names.append(f"E{i}{j}")
            mats.append(_unit(n, i, j))
            par.append((sp[i] + sp[j]) % 2)
    return names, mats, par, sp


def gl12() -> LieSuperalgebra:
    """gl(1|2) with its supertrace form; centre is the identity matrix."""
    names, mats, par, sp = _gl_super(1, 2)
    g = matrix_superalgebra(names, mats, par, sp)
    ident = g.vector({"E00": 1, "E11": 1, "E22": 1})
    sl_basis = [g.basis("E01"), g.basis("E02"), g.basis("E10"), g.basis("E20"),
                g.basis("E12"), g.basis("E21"),
                g.vector({"E11": 1, "E22": -1}),
                g.vector({"E00": 1, "E11": 1})]
    g.decomposition = {"center": [ident], "ideals": [sl_basis]}
    return g


def double_with_flip(g0: LieSuperalgebra) -> LieSuperalgebra:
    """g0 + g0 with theta the flip of the two summands and the doubled form."""
    n = g0.dim
    names = [f"{x}.l" for x in g0.names] + [f"{x}.r" for x in g0.names]
    par = list(g0.parity) + list(g0.parity)
    brackets: Dict[Tuple[int, int], Dict[int, object]] = {}
    for (i, j), out in g0.brackets.items():
        brackets[(i, j)] = dict(out)
        brackets[(i + n, j + n)] = {k + n: v for k, v in out.items()}
    form = None
    if g0.form is not None:
        form = ScalarMatrix(2 * n, 2 * n)
        for i in range(n):
            for j, v in g0.form.rows[i].items():
                form.rows[i][j] = v
                form.rows[i + n][j + n] = v
    theta = ScalarMatrix(2 * n, 2 * n)
    for i in range(n):
        theta.rows[i][i + n] = 1
        theta.rows[i + n][i] = 1
    g = LieSuperalgebra(names, par, brackets, form=form, theta=theta)
    if g0.decomposition is not None:
        def left(v: SuperVector) -> SuperVector:
            return SuperVector(g, dict(v.c))

        def right(v: SuperVector) -> SuperVector:
            return SuperVector(g, {i + n: x for i, x in v.c.items()})

        g.decomposition = {
            "center": [left(v) for v in g0.decomposition["center"]]
            + [right(v) for v in g0.decomposition["center"]],
            "ideals": [[left(v) for v in ideal]
                       for ideal in g0.decomposition["ideals"]]
            + [[right(v) for v in ideal]
               for ideal in g0.decomposition["ideals"]],
        }
    return g
