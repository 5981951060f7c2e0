"""Symmetric superpairs of even type and their restricted root data.

A pair bundles an algebra (with form and involution), the eigenspace bases
k and p, and an even Cartan subspace a.  Root data are computed as joint
eigenspaces of ad(a) with exact eigenvalues; the zero weight space must
split as m + a with m the centraliser of a in k.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .apoly import APoly, Expvec, Substitution, monomials_of_degree
from .linalg import (Row, ScalarMatrix, kernel, linear_solver, rank,
                     simultaneous_eigenspaces, span_basis)
from .liesuper import (LieSuperalgebra, SuperVector, centralizer,
                       centralizer_dimension, theta_eigenspaces)
from .scalars import vector_to_string

Q = Fraction

Functional = Tuple  # values on the a-basis


class PairError(ValueError):
    pass


class NotAbelian(PairError):
    pass


class NotInEvenP(PairError):
    pass


class CentralizerTooLarge(PairError):
    pass


class DegenerateFormOnA(PairError):
    pass


class DirectionOnWall(PairError):
    pass


class SymmetricPair:
    """(g, k, theta) with a chosen even Cartan subspace a in p_0."""

    def __init__(self, g: LieSuperalgebra, k_basis: List[SuperVector],
                 p_basis: List[SuperVector], a_basis: List[SuperVector]):
        self.g = g
        self.k_basis = k_basis
        self.p_basis = p_basis
        self.a_basis = a_basis
        self.a_gram = ScalarMatrix.from_rows(
            [[g.b(x, y) for y in a_basis] for x in a_basis])
        try:
            # b is symmetric on the even space a: the rows are the columns
            self._coroot_solve = linear_solver(self.a_gram.rows)
        except ValueError:
            raise DegenerateFormOnA("b restricted to a is degenerate") from None

    @property
    def rank(self) -> int:
        return len(self.a_basis)

    def k_dims(self) -> Tuple[int, int]:
        ev = sum(1 for v in self.k_basis if v.parity == 0)
        return ev, len(self.k_basis) - ev

    def coroot_coords(self, lam: Functional) -> Tuple:
        """Coordinates of A_lam, the vector of a with b(A_lam, .) = lam."""
        coords = self._coroot_solve({i: x for i, x in enumerate(lam) if x})
        return tuple(coords.get(i, Q(0)) for i in range(self.rank))

    def dual_pairing(self, lam: Functional, mu: Functional):
        """The form on a* induced by b: <lam, mu> = lam(A_mu)."""
        coords = self.coroot_coords(mu)
        s = Q(0)
        for li, ci in zip(lam, coords):
            s = s + li * ci
        return s


def build_pair(g: LieSuperalgebra, a_vectors: Sequence[SuperVector]) -> SymmetricPair:
    """Validate an even Cartan subspace and assemble the pair."""
    k_basis, p_basis = theta_eigenspaces(g)
    for v in a_vectors:
        if v.parity != 0:
            raise NotInEvenP("a must consist of even vectors")
        # p is the -1 eigenspace of theta
        if g.theta_apply(v) != -v:
            raise NotInEvenP("a must lie in p")
    for i, x in enumerate(a_vectors):
        for y in a_vectors[i:]:
            if g.bracket(x, y):
                raise NotAbelian("a is not abelian")
    dim_zp = centralizer_dimension(g, a_vectors, p_basis)
    if dim_zp != len(a_vectors):
        raise CentralizerTooLarge(
            f"z_p(a) has dimension {dim_zp}, a has dimension {len(a_vectors)}")
    return SymmetricPair(g, k_basis, p_basis, list(a_vectors))


class RestrictedRoot:
    """A nonzero joint weight of ad(a) with its graded root space."""

    __slots__ = ("lam", "space0", "space1")

    def __init__(self, lam: Functional, space0: List[SuperVector],
                 space1: List[SuperVector]):
        self.lam = lam
        self.space0 = space0
        self.space1 = space1

    @property
    def m0(self) -> int:
        return len(self.space0)

    @property
    def m1(self) -> int:
        return len(self.space1)

    def __repr__(self):
        return f"Root({self.lam}, m0={self.m0}, m1={self.m1})"


class RestrictedRootSystem:
    """Roots, the positive system direction chooses (choose_positive_system
    re-chooses it), rho and the derived Iwasawa blocks."""

    def __init__(self, pair: SymmetricPair, roots: List[RestrictedRoot],
                 m_basis: List[SuperVector],
                 direction: Optional[Sequence] = None):
        self.pair = pair
        self.roots = roots
        self.m_basis = m_basis
        self.positive: List[bool]
        self.direction: Tuple
        choose_positive_system(self, direction)

    def positive_roots(self) -> List[RestrictedRoot]:
        return [r for r, flag in zip(self.roots, self.positive) if flag]

    def even_roots(self) -> List[RestrictedRoot]:
        return [r for r in self.roots if r.m0 > 0]

    def n_basis(self) -> List[SuperVector]:
        out: List[SuperVector] = []
        for r in self.positive_roots():
            out.extend(r.space0)
            out.extend(r.space1)
        return out

    def rho_triple(self) -> Tuple[Functional, Functional, Functional]:
        """(rho, rho0, rho1) as value tuples on the a-basis."""
        r = self.pair.rank
        rho0 = [Q(0)] * r
        rho1 = [Q(0)] * r
        for root in self.positive_roots():
            for i in range(r):
                rho0[i] += Q(root.m0, 2) * root.lam[i]
                rho1[i] += Q(root.m1, 2) * root.lam[i]
        rho = tuple(a - b for a, b in zip(rho0, rho1))
        return rho, tuple(rho0), tuple(rho1)


def restricted_roots(pair: SymmetricPair, direction: Optional[Sequence] = None
                     ) -> RestrictedRootSystem:
    """Joint eigenspace decomposition of g under ad(a), with the positive
    system that direction chooses (see choose_positive_system)."""
    g = pair.g
    mats = [g.ad_matrix(h) for h in pair.a_basis]
    blocks = simultaneous_eigenspaces(mats)
    roots: List[RestrictedRoot] = []
    zero_space: List[Row] = []
    for values, basis in blocks:
        if not any(values):
            zero_space.extend(basis)
            continue
        # a root space is graded: its parity parts span its two pieces
        s0, s1 = ([SuperVector(g, v) for v in span_basis(
                      {i: x for i, x in vec.items() if g.parity[i] == par}
                      for vec in basis)]
                  for par in (0, 1))
        if len(s0) + len(s1) != len(basis):
            raise PairError("root space fails to split by parity")
        roots.append(RestrictedRoot(tuple(values), s0, s1))
    roots.sort(key=lambda r: r.lam)
    m_basis = centralizer(g, pair.a_basis, pair.k_basis)
    if len(m_basis) + pair.rank != len(zero_space):
        raise PairError("zero weight space is not m + a")
    total = sum(r.m0 + r.m1 for r in roots) + len(zero_space)
    if total != g.dim:
        raise PairError("root decomposition does not fill g")
    return RestrictedRootSystem(pair, roots, m_basis, direction)


def default_direction(system: RestrictedRootSystem) -> Tuple:
    """Lexicographic weights (1, t, t^2, ...) for the first t off every wall."""
    r = system.pair.rank
    t = 1
    while True:
        d = tuple(Q(t) ** i for i in range(r))
        if all(_pair_lam_d(root.lam, d) != 0 for root in system.roots):
            return d
        t += 1


def _pair_lam_d(lam: Functional, direction: Sequence):
    s = Q(0)
    for li, di in zip(lam, direction):
        s = s + li * di
    return s


def choose_positive_system(system: RestrictedRootSystem,
                           direction: Optional[Sequence] = None) -> List[bool]:
    """Mark roots positive by the sign of lam(d); verifies the closure law."""
    if direction is None:
        direction = default_direction(system)
    direction = tuple(direction)
    rank = system.pair.rank
    if len(direction) != rank:
        raise PairError(f"direction of length {len(direction)} given "
                        f"for a pair of rank {rank}")
    flags = []
    for root in system.roots:
        v = _pair_lam_d(root.lam, direction)
        if v == 0:
            raise DirectionOnWall(f"direction vanishes on root "
                                  f"{vector_to_string(root.lam)}")
        flags.append(v > 0)
    by_lam = {r.lam: f for r, f in zip(system.roots, flags)}
    for lam1, f1 in by_lam.items():
        for lam2, f2 in by_lam.items():
            if f1 and f2:
                s = tuple(a + b for a, b in zip(lam1, lam2))
                if s in by_lam and not by_lam[s]:
                    raise PairError("positive system not closed under addition")
    system.positive = flags
    system.direction = direction
    return flags


def rho(system: RestrictedRootSystem) -> Tuple[Functional, Functional, Functional]:
    """(rho, rho0, rho1), cross-checked against the supertrace on n."""
    triple = system.rho_triple()
    rho_mult = triple[0]
    n = system.n_basis()
    if n:
        g = system.pair.g
        solve = linear_solver([v.c for v in n])
        pars = [v.parity for v in n]
        for i, h in enumerate(system.pair.a_basis):
            s = Q(0)
            for j, v in enumerate(n):
                c = solve(g.bracket(h, v).c).get(j, Q(0))
                s = s + (c if pars[j] == 0 else -c)
            if Q(1, 2) * s != rho_mult[i]:
                raise PairError("rho from multiplicities disagrees with supertrace")
    elif any(rho_mult):
        raise PairError("rho must vanish for empty n")
    return triple


class WeylGroup:
    """The even Weyl group as matrices acting on a*-coordinates, and the
    action of each generator on S(a) as a substitution.

    It keeps what the rings of its pair read, each table filled on demand:
    the invariance rows of each monomial, a basis of S(a)^W0, and the span
    of each ring's conditions that rings.ring_degrees grows."""

    def __init__(self, elements: List[Tuple[Tuple, ...]],
                 generators: List[Tuple[Tuple, ...]]):
        self.elements = elements
        self.generators = generators
        self.generator_substitutions = [Substitution.linear(w)
                                        for w in generators]
        # the invariance conditions of each monomial (see invariance_rows)
        self._rows: Dict[Expvec, Dict] = {}
        # a basis of S(a)^W0 at the highest degree asked (see invariant_basis)
        self._basis: List[Tuple[int, APoly]] = []
        self._basis_degree = -1
        # rings.ring_degrees' span of each (ring, include_weyl, data): an
        # Echelon of the column conditions, the degrees it refused, the
        # highest degree inserted; data is a tuple of datums, hashed by
        # identity, so every datum list gets its own span
        self.ring_spans: Dict[Tuple, list] = {}

    def invariance_rows(self, e: Expvec) -> Dict:
        """The W0-invariance conditions of the monomial h^e: the coefficient
        of h^f in s_t(h^e) - h^e, keyed ("W", t, f), for each generator s_t.
        They are linear, so those of a polynomial are the sum of its terms'
        rows.  Computed once per e and kept; callers must not mutate them."""
        hit = self._rows.get(e)
        if hit is None:
            mono = APoly(len(e), {e: Q(1)})
            hit = self._rows[e] = {
                ("W", t, f): c
                for t, s in enumerate(self.generator_substitutions)
                for f, c in (s(mono) - mono).terms.items()}
        return hit

    def invariant_basis(self, rank: int, d: int) -> List[Tuple[int, APoly]]:
        """A basis of the degree <= d part of S(a)^W0 as (degree, p) pairs,
        in non-decreasing degree: the reduced-echelon kernel of the
        invariance rows over the monomials of degree <= d, by degree then
        lex.

        W0 keeps the degree, so the invariance rows of a degree-e monomial
        involve degree-e monomials only: that kernel is the kernels over each
        degree's monomials, one after the other.  The basis is kept up to the
        highest degree asked so far; a higher d adds one kernel per new
        degree, and a lower d reads the prefix of degree <= d.  Callers must
        not mutate the result's polynomials."""
        for e in range(self._basis_degree + 1, d + 1):
            monos = monomials_of_degree(rank, e)
            self._basis.extend(
                (e, APoly(rank, {monos[t]: c for t, c in v.items()}))
                for v in kernel(self.invariance_rows(m) for m in monos))
            self._basis_degree = e
        return [b for b in self._basis if b[0] <= d]

    def __len__(self):
        return len(self.elements)


def _reflection_matrix(system: RestrictedRootSystem, alpha: Functional
                       ) -> Tuple[Tuple, ...]:
    pair = system.pair
    norm = pair.dual_pairing(alpha, alpha)
    if norm == 0:
        raise PairError(f"even root {vector_to_string(alpha)} is isotropic; "
                        "no reflection")
    galpha = pair.coroot_coords(alpha)
    r = pair.rank
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            v = (Q(1) if i == j else Q(0)) - 2 * alpha[i] * galpha[j] / norm
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def _matmul_t(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), Q(0))
                       for j in range(n)) for i in range(n))


def even_weyl_group(system: RestrictedRootSystem) -> WeylGroup:
    """Closure of the reflections in the even restricted roots."""
    r = system.pair.rank
    ident = tuple(tuple(Q(1) if i == j else Q(0) for j in range(r))
                  for i in range(r))
    gens = []
    seen_gen = set()
    for root in system.even_roots():
        m = _reflection_matrix(system, root.lam)
        if m not in seen_gen:
            seen_gen.add(m)
            gens.append(m)
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for s in gens:
                prod = _matmul_t(s, e)
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
        frontier = nxt
    ordered = sorted(elements)
    return WeylGroup(ordered, gens)


def iwasawa_check(pair: SymmetricPair, system: RestrictedRootSystem,
                  n_basis: Optional[List[SuperVector]] = None,
                  samples: Optional[List[SuperVector]] = None) -> dict:
    """Dimension and transversality checks for g = k + a + n.

    n_basis may be overridden (e.g. deliberately truncated) to exercise the
    failure detectors; violations are reported, not raised.
    """
    g = pair.g
    if n_basis is None:
        n_basis = system.n_basis()
    report: dict = {"violations": []}
    k0, k1 = pair.k_dims()
    dim_n0 = sum(1 for v in n_basis if v.parity == 0)
    dim_n1 = len(n_basis) - dim_n0
    dim_a = pair.rank
    g0 = sum(1 for p in g.parity if p == 0)
    g1 = g.dim - g0
    report["dims"] = {
        "k": [k0, k1], "a": [dim_a, 0], "n": [dim_n0, dim_n1], "g": [g0, g1]}
    if k0 + dim_a + dim_n0 != g0 or k1 + dim_n1 != g1:
        report["violations"].append("dimension mismatch in k + a + n = g")
    stacked = pair.k_basis + pair.a_basis + n_basis
    if rank(v.c for v in stacked) != len(stacked):
        report["violations"].append("k, a, n are not transversal")
    if samples is None:
        samples = [g.zero()]
        for v in pair.p_basis:
            if v.parity == 0:
                samples.append(v)
        acc = g.zero()
        for i, v in enumerate(samples[1:], start=1):
            acc = acc + v.scale(Q(i))
        samples.append(acc)
    for x in samples:
        if not centralizer_formula_holds(pair, x):
            report["violations"].append(
                f"centralizer dimension formula fails at sample {x!r}")
    report["ok"] = not report["violations"]
    return report


def centralizer_formula_holds(pair: SymmetricPair, x: SuperVector) -> bool:
    """dim z_{k1}(x) - dim z_{p1}(x) = dim k1 - dim p1 at x in p0: ad x has
    the same rank on k1 as on p1."""
    def odd_rank(basis: List[SuperVector]) -> int:
        return rank(pair.g.bracket(x, v).c for v in basis if v.parity)

    return odd_rank(pair.k_basis) == odd_rank(pair.p_basis)


def a_perp_in_p(pair: SymmetricPair) -> List[SuperVector]:
    """The b-orthocomplement of a inside p, as a parity-homogeneous basis.

    Odd p-vectors are orthogonal to the even space a for free, so only the
    even part needs a kernel computation.
    """
    g = pair.g
    p_even = [v for v in pair.p_basis if v.parity == 0]
    p_odd = [v for v in pair.p_basis if v.parity == 1]
    kern = kernel({i: g.b(h, w) for i, h in enumerate(pair.a_basis)}
                  for w in p_even)
    return [sum((p_even[t].scale(c) for t, c in coords.items()), g.zero())
            for coords in kern] + p_odd
