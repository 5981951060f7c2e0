"""Rank-one models and the invariant rings attached to odd restricted roots.

For an anisotropic odd root the local invariants are generated by one even
and one odd-degree element whose images under the rho-shifted projection
generate a filtered deformation of the restriction image; for an isotropic
root the two rings coincide.  Membership in either ring is a finite set of
linear conditions on a polynomial, which also yields filtered dimensions.

Every condition is linear in the polynomial, so the conditions of p are the
sum over its terms c_e h^e of c_e times the rows of the monomial h^e.  Each
monomial's rows are computed once per input and kept by the owner of the
map they come from: the W0-invariance rows by the WeylGroup, beside its
generator substitutions, and each odd root's rows by its OddRootDatum,
beside its coordinate change, in one table for "I" and one for "J".  Every
ring but I without W0 lies in S(a)^W0, so its filtered dimensions are
ranks of the odd-root rows over the basis of S(a)^W0 the WeylGroup keeps.
The WeylGroup also keeps each ring's span of those rows, grown by degree
as queries ask for more, so a warm filtered dimension is a read.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .apoly import APoly, Expvec, change_to_basis, monomials_of_degree
from .builders import matrix_superalgebra, supercommutator
from .linalg import Echelon, ScalarMatrix, accumulate, kernel
from .liesuper import LieSuperalgebra
from .pairs import RestrictedRootSystem, SymmetricPair, WeylGroup, build_pair
from .pbw import SymElement, sym_adjoint, sym_multiply, sym_power
from .scalars import vector_to_string

Q = Fraction

ISOTROPIC = "ISOTROPIC"
ANISOTROPIC = "ANISOTROPIC"


class BadIsoClass(ValueError):
    pass


class InconsistentRelations(ValueError):
    pass


# -- odd root data -------------------------------------------------------------

class OddRootDatum:
    """Everything the membership tests need to know about one odd root."""

    __slots__ = ("lam", "q", "iso_class", "c", "a_coords", "A_coords",
                 "h0_coords", "a_perp", "gated", "rank", "coordinate_change",
                 "_rows")

    def __init__(self, lam: Tuple, q: int, iso_class: str, c,
                 A_coords: Tuple, a_coords: Optional[Tuple],
                 h0_coords: Optional[Tuple], a_perp: List[Tuple],
                 gated: bool):
        # ints where integral, as the eigenvalue readers return them: the
        # root in each condition key
        self.lam = lam
        self.q = q
        self.iso_class = iso_class
        self.c = c
        self.A_coords = A_coords      # coordinates of A_lam over the a-basis
        self.a_coords = a_coords      # anisotropic: a = A_lam / c
        self.h0_coords = h0_coords    # isotropic: lam(h0)=1, b(h0,h0)=0
        self.a_perp = a_perp          # basis of the complement inside a
        self.gated = gated            # 2*lam is a root: explicit model refused
        self.rank = len(lam)
        # rewrites a polynomial in adapted coordinates: (a, perp) if
        # anisotropic, (A_lam, h0, perp) if isotropic
        head = [a_coords] if iso_class == ANISOTROPIC else [A_coords, h0_coords]
        self.coordinate_change = change_to_basis([*head, *a_perp])
        # the conditions of each monomial, one table per ring (see rows); an
        # isotropic root imposes the same conditions in both
        shared: Dict[Expvec, Dict] = {}
        self._rows = {"I": shared, "J": shared} if iso_class == ISOTROPIC \
            else {"I": {}, "J": {}}

    def rows(self, ring: str, e: Expvec) -> Dict:
        """membership_conditions of the monomial h^e in ring "I" or "J",
        computed once and kept in this datum's table for the ring; a gated
        root has none.  Callers must not mutate the result."""
        if self.gated:
            return {}
        table = self._rows[ring]
        hit = table.get(e)
        if hit is None:
            hit = table[e] = membership_conditions(
                APoly(self.rank, {e: Q(1)}), self, ring)
        return hit


def odd_root_data(system: RestrictedRootSystem) -> List[OddRootDatum]:
    """One datum per pair {lam, -lam} of odd roots, at the positive member."""
    pair = system.pair
    root_lams = {r.lam for r in system.roots}
    data = []
    for root, pos in zip(system.roots, system.positive):
        if root.m1 == 0 or not pos:
            continue
        lam = root.lam
        if root.m1 % 2:
            raise InconsistentRelations(
                f"odd multiplicity of {vector_to_string(lam)} is odd")
        q = root.m1 // 2
        c = pair.dual_pairing(lam, lam)
        A_coords = tuple(pair.coroot_coords(lam))
        gated = tuple(2 * x for x in lam) in root_lams
        gram = pair.a_gram
        r = pair.rank

        def bform(u: Sequence, v: Sequence):
            s = Q(0)
            for i in range(r):
                if u[i]:
                    for j in range(r):
                        if v[j]:
                            s = s + u[i] * gram.entry(i, j) * v[j]
            return s

        if c != 0:
            iso = ANISOTROPIC
            a_coords = tuple(Q(x, c) for x in A_coords)
            h0_coords = None
            perp = kernel({0: x} for x in lam)
        else:
            iso = ISOTROPIC
            a_coords = None
            pivot = next(i for i in range(r) if lam[i])
            h = [Q(0)] * r
            h[pivot] = Q(1) / lam[pivot]
            bhh = bform(h, h)
            h0_coords = tuple(x - Q(1, 2) * bhh * y for x, y in zip(h, A_coords))
            if bform(h0_coords, h0_coords) != 0:
                raise InconsistentRelations("h0 normalisation failed")
            perp = kernel({0: lam[j], 1: bform(h0_coords, tuple(
                Q(1) if t == j else Q(0) for t in range(r)))} for j in range(r))
        a_perp = [tuple(v.get(t, Q(0)) for t in range(r)) for v in perp]
        data.append(OddRootDatum(lam, q, iso, c, A_coords, a_coords,
                                 h0_coords, a_perp, gated))
    return data


# -- rank-one models -----------------------------------------------------------

class RankOneModel:
    """The algebra of one odd root with its pair: osp(2|2q) or an abstract model."""

    def __init__(self, algebra: LieSuperalgebra, q: int, iso_class: str, c,
                 pair: SymmetricPair):
        self.algebra = algebra
        self.q = q
        self.iso_class = iso_class
        self.c = c
        self.pair = pair


def build_rank_one_model(q: int, iso: str, c=Q(1)) -> RankOneModel:
    """The model algebra for one odd root.

    Anisotropic models are osp(2|2q) built from supermatrices, with the
    normalised generators (integer structure constants; only the form
    depends on c).  Isotropic models are typed from their relations.  The
    Jacobi identity and all form axioms are re-verified by the caller
    through verify_algebra.
    """
    c = c if not isinstance(c, int) else Q(c)
    if iso == ISOTROPIC:
        if c != 0:
            raise BadIsoClass("isotropic models force <lam,lam> = 0")
        return _build_iso_model(q)
    if iso != ANISOTROPIC:
        raise BadIsoClass(f"unknown isotropy class {iso!r}")
    if c == 0:
        raise BadIsoClass("anisotropic models need <lam,lam> != 0")
    return _build_aniso_model(q, c)


def _build_aniso_model(q: int, c) -> RankOneModel:
    """osp(2|2q) on C^{2|2q} with basis (e0, e1 | u_1..u_q, ut_1..ut_q).

    theta swaps e0 and e1, so a = E00 - E11 spans the Cartan subspace.  The
    supertrace gives b(a, a) = 2, and the form is rescaled to b = str/(2c)
    so that <lam, lam> = c for the root lam(a) = 1 of v and vt.
    """
    n = 2 + 2 * q
    half = Q(1, 2)

    def mat(entries: Dict[Tuple[int, int], object]) -> ScalarMatrix:
        m = ScalarMatrix(n, n)
        for (r, col), x in entries.items():
            m.rows[r][col] = x
        return m

    v = [mat({(2 + i, 0): 1, (2 + i, 1): 1, (0, 2 + q + i): 1, (1, 2 + q + i): 1})
         for i in range(q)]
    vt = [mat({(2 + q + i, 0): half, (2 + q + i, 1): half,
               (0, 2 + i): -half, (1, 2 + i): -half}) for i in range(q)]
    a = mat({(0, 0): 1, (1, 1): -1})
    mats: Dict[str, ScalarMatrix] = {}
    for left, right, label in ((v, v, "M"), (v, vt, "N"), (vt, vt, "Mt")):
        for i in range(q):
            for j in range(i if left is right else 0, q):
                mats[f"{label}{i+1}{j+1}"] = supercommutator(left[i], right[j], True)
    n_even = len(mats)
    mats.update({f"v{i+1}": x for i, x in enumerate(v)})
    mats.update({f"vt{i+1}": x for i, x in enumerate(vt)})
    mats["a"] = a
    mats.update({f"w{i+1}": supercommutator(a, x, False) for i, x in enumerate(v)})
    mats.update({f"wt{i+1}": supercommutator(a, x, False)
                 for i, x in enumerate(vt)})
    parity = [0] * n_even + [1] * (2 * q) + [0] + [1] * (2 * q)
    g = matrix_superalgebra(list(mats), list(mats.values()), parity,
                            [0, 0] + [1] * (2 * q))
    g.form = ScalarMatrix(g.dim, g.dim, [{j: x / (2 * c) for j, x in row.items()}
                                         for row in g.form.rows])
    g.theta = ScalarMatrix(g.dim, g.dim)
    for i, name in enumerate(g.names):
        g.theta.rows[i][i] = -1 if name == "a" or name[0] == "w" else 1
    g.decomposition = {"center": [], "ideals": [g.basis_vectors()]}
    pair = build_pair(g, [g.basis("a")])
    return RankOneModel(g, q, ANISOTROPIC, c, pair)


def _build_iso_model(q: int) -> RankOneModel:
    names = [f"y{i+1}" for i in range(q)] + [f"yt{i+1}" for i in range(q)] \
        + ["h0", "Al"] + [f"z{i+1}" for i in range(q)] + [f"zt{i+1}" for i in range(q)]
    parity = [1] * (2 * q) + [0, 0] + [1] * (2 * q)
    idx = {n: i for i, n in enumerate(names)}
    dim = len(names)
    brackets: Dict[Tuple[int, int], Dict[int, object]] = {}
    ih0, ial = idx["h0"], idx["Al"]
    for i in range(q):
        y, yt, z, zt = idx[f"y{i+1}"], idx[f"yt{i+1}"], idx[f"z{i+1}"], idx[f"zt{i+1}"]
        # LieSuperalgebra reads each pair in the other order too
        brackets[(ih0, y)] = {z: Q(1)}
        brackets[(ih0, z)] = {y: Q(1)}
        brackets[(ih0, yt)] = {zt: Q(1)}
        brackets[(ih0, zt)] = {yt: Q(1)}
        brackets[(yt, z)] = {ial: Q(1)}
        brackets[(y, zt)] = {ial: Q(-1)}
    form = ScalarMatrix(dim, dim)
    form.rows[ih0][ial] = Q(1)
    form.rows[ial][ih0] = Q(1)
    for i in range(q):
        y, yt, z, zt = idx[f"y{i+1}"], idx[f"yt{i+1}"], idx[f"z{i+1}"], idx[f"zt{i+1}"]
        form.rows[y][yt] = Q(1)
        form.rows[yt][y] = Q(-1)
        form.rows[z][zt] = Q(-1)
        form.rows[zt][z] = Q(1)
    theta = ScalarMatrix(dim, dim)
    for n, i in idx.items():
        theta.rows[i][i] = Q(1) if n[0] == "y" else Q(-1)
    g = LieSuperalgebra(names, parity, brackets, form=form, theta=theta)
    pair = build_pair(g, [g.basis("h0"), g.basis("Al")])
    return RankOneModel(g, q, ISOTROPIC, Q(0), pair)


# -- generators ----------------------------------------------------------------

def coefficient_aNk(N: int, k: int) -> Fraction:
    """The closed-form coefficient in the odd generator of the local ring."""
    total = Q(0)
    for i in range(max(0, k - N), k):
        term = Q(-1, 2) ** i
        for t in range(N, N - k + i, -1):
            term = term * t
        term = term * Q(factorial(k - 1 + i),
                        factorial(k - 1 - i) * factorial(i))
        total = total + term
    return total


def _sum_of_products(pairs: List[Tuple[int, int]]) -> SymElement:
    out: SymElement = {}
    for i, j in pairs:
        accumulate(out, {(i, j): 1} if i < j else {(j, i): -1})
    return out


def generators(model: RankOneModel,
               kl: Optional[Sequence[Tuple[int, int]]] = None) -> List[SymElement]:
    """The generating invariants of S(p)^k for the model, as S(g) elements.

    Anisotropic: [P_2, P_{2q+1}].  Isotropic: the basis elements p_{k,l}
    for the requested (k, l) with l >= min(k, q).  Every returned element is
    re-verified to be annihilated by the odd part of k.
    """
    g = model.algebra
    q = model.q
    par = g.parity
    if model.iso_class == ANISOTROPIC:
        ia = g.index("a")
        W = _sum_of_products([(g.index(f"w{j+1}"), g.index(f"wt{j+1}"))
                              for j in range(q)])
        p2: SymElement = {(ia, ia): Q(1)}
        accumulate(p2, W, Q(2))
        # coefficient of a^{2(q-k)+1} W^k is a_{2q+1,k} / k!; this is the
        # normalisation forced by k-invariance (checked below), which the
        # degree-(2q+1) invariant determines uniquely
        p2q1: SymElement = {tuple([ia] * (2 * q + 1)): Q(1)}
        for k in range(1, q + 1):
            coeff = coefficient_aNk(2 * q + 1, k) / factorial(k)
            wk = sym_power(par, W, k)
            apow: SymElement = {tuple([ia] * (2 * (q - k) + 1)): coeff}
            accumulate(p2q1, sym_multiply(par, apow, wk))
        out = [p2, p2q1]
        checks = [g.basis(f"v{n+1}") for n in range(q)] \
            + [g.basis(f"vt{n+1}") for n in range(q)]
    else:
        if kl is None:
            raise ValueError("isotropic generators need the list of (k, l)")
        ih0, ial = g.index("h0"), g.index("Al")
        Z = _sum_of_products([(g.index(f"z{j+1}"), g.index(f"zt{j+1}"))
                              for j in range(q)])
        out = []
        for k, ell in kl:
            if ell < min(k, q):
                raise ValueError(f"(k, l) = ({k}, {ell}) needs l >= min(k, q)")
            acc: SymElement = {}
            for j in range(min(k, q) + 1):
                head: SymElement = {
                    tuple([ih0] * (k - j) + [ial] * (ell - j)): Q(comb(k, j))}
                accumulate(acc, sym_multiply(par, head, sym_power(par, Z, j)))
            out.append(acc)
        checks = [g.basis(f"y{n+1}") for n in range(q)] \
            + [g.basis(f"yt{n+1}") for n in range(q)]
    for p in out:
        for x in checks:
            if sym_adjoint(g, x, p):
                raise InconsistentRelations("generator is not k-invariant")
    return out


# -- membership conditions ------------------------------------------------------

def _group_by_perp(p: APoly):
    """Split an adapted polynomial into {perp-exponents: coeffs in var 0}."""
    groups: Dict[Tuple, Dict[int, object]] = {}
    for e, c in p.terms.items():
        key = e[1:]
        groups.setdefault(key, {})[e[0]] = c
    return groups


def _even_odd_split(coeffs: Dict[int, object], q: int):
    """f(a) = A(u) + B(u) a with u = a^2 - q^2; returns (A, B) as u-coeff dicts."""
    A: Dict[int, object] = {}
    B: Dict[int, object] = {}
    qsq = Q(q * q)
    for k, c in coeffs.items():
        m, rem = divmod(k, 2)
        target = B if rem else A
        accumulate(target, {t: c * comb(m, t) * qsq ** (m - t)
                            for t in range(m + 1)})
    return A, B


def membership_conditions(p: APoly, datum: OddRootDatum, ring: str) -> Dict:
    """Linear functionals (slot -> value) whose joint vanishing is membership
    of p in the local ring of datum; they are linear in p.  ring_conditions
    reads them monomial by monomial, through OddRootDatum.rows."""
    if datum.gated:
        return {}
    out: Dict = {}
    if datum.iso_class == ISOTROPIC:
        # common domain of the operators A_lam^{-j} d^j along lam, j = 1..q;
        # here I and J coincide, so the ring argument is ignored
        deriv = p
        for j in range(1, datum.q + 1):
            deriv = deriv.directional_derivative(datum.lam)
            if not deriv.terms:
                break
            adapted = datum.coordinate_change(deriv)
            for e, c in adapted.terms.items():
                if e[0] < j:
                    out[("iso", datum.lam, j, e)] = c
        return out
    adapted = datum.coordinate_change(p)
    if ring == "I":
        for e, c in adapted.terms.items():
            if e[0] % 2 == 1 and e[0] < 2 * datum.q + 1:
                out[("I", datum.lam, e)] = c
    else:
        for perp, coeffs in _group_by_perp(adapted).items():
            _, B = _even_odd_split(coeffs, datum.q)
            for t, c in B.items():
                if t < datum.q:
                    out[("J", datum.lam, perp, t)] = c
    return out


def ring_conditions(p: APoly, ring: str, data: Sequence[OddRootDatum],
                    weyl: WeylGroup, include_weyl: bool = True) -> Dict:
    """The linear conditions whose joint vanishing puts p in a ring, as a
    fresh dict.

    ring is "I" (I(a)), "J" (J(a)) or "SW0" (S(a)^W0): every ring asks for
    W0-invariance, and I and J add the conditions of each odd root.
    include_weyl=False drops the W0 conditions.  The conditions are linear
    in p, so they are the sum over the terms c_e h^e of p of c_e times the
    rows of h^e, read from the tables of weyl (WeylGroup.invariance_rows)
    and of each datum (OddRootDatum.rows).
    """
    out: Dict = {}
    odd = ring != "SW0"
    for e, c in p.terms.items():
        if include_weyl:
            accumulate(out, weyl.invariance_rows(e), c)
        if odd:
            for datum in data:
                accumulate(out, datum.rows(ring, e), c)
    return out


def membership_I(p: APoly, data: Sequence[OddRootDatum], weyl: WeylGroup) -> bool:
    return not ring_conditions(p, "I", data, weyl)


def membership_J(p: APoly, data: Sequence[OddRootDatum], weyl: WeylGroup) -> bool:
    return not ring_conditions(p, "J", data, weyl)


def ring_degrees(ring: str, data: Sequence[OddRootDatum], weyl: WeylGroup,
                 rank: int, d: int, include_weyl: bool = True) -> List[int]:
    """The degree of each basis vector of the degree <= d part of a ring,
    the polynomials p with ring_conditions(p, ring, ...) = {}.

    The ring is read over a list of polynomials that runs by degree: with
    include_weyl, the basis of S(a)^W0 the Weyl group keeps
    (WeylGroup.invariant_basis), so only the odd-root conditions are left,
    and "SW0" is that basis itself; without it, the monomials of each
    degree in turn (monomials_of_degree).  The polynomials of degree <= e
    are a prefix of either list and a basis of its degree <= e part, so the
    ring's degree <= e part has dimension their number less the rank of
    their conditions: each polynomial whose conditions lie in the span of
    the earlier ones' (one Echelon, fed them in list order, refuses them)
    adds one in its degree.

    That Echelon is kept in weyl.ring_spans, per (ring, include_weyl,
    data), with the degrees it refused and the highest degree inserted: a
    higher d inserts the polynomials of the new degrees only, and any d
    reads the refused degrees up to d.
    """
    key = (ring, include_weyl, tuple(data))
    span = weyl.ring_spans.get(key)
    if span is None:
        span = weyl.ring_spans[key] = [Echelon(), [], -1]
    echelon, refused, reached = span
    if d > reached:
        if include_weyl:
            columns = [b for b in weyl.invariant_basis(rank, d)
                       if b[0] > reached]
        else:
            columns = [(e, APoly(rank, {m: Q(1)}))
                       for e in range(reached + 1, d + 1)
                       for m in monomials_of_degree(rank, e)]
        refused.extend(e for e, p in columns if not echelon.insert(
            ring_conditions(p, ring, data, weyl, False)))
        span[2] = d
    return [e for e in refused if e <= d]


def filtered_dimension(kind: str, data: Sequence[OddRootDatum], weyl: WeylGroup,
                       rank: int, d: int) -> int:
    """dim of the degree <= d part of I(a), J(a) or S(a)^W0, counted by
    ring_degrees as a rank over the Weyl group's basis of S(a)^W0; a warm
    query reads the span the Weyl group keeps for the ring."""
    return len(ring_degrees(kind, data, weyl, rank, d))
