"""osp(2|2q) from supermatrices: an independent check of the rank-one images.

The rank-one anisotropic models of superhc.rings are built from explicit
supermatrices in the model's basis (v, vt, a, w, wt).  Here the same
symmetric pair is realised independently, in a basis found by nullspaces:

* g = osp(2|2q), the supermatrices of size (2|2q) preserving the form that
  is [[0,1],[1,0]] on the even basis vectors e0, e1 and symplectic on the
  odd ones; theta is conjugation by the swap of e0 and e1, and a is spanned
  by E00 - E11.  The structure constants come from matrix products
  (builders.matrix_superalgebra), and the invariants of S(p) are found as
  a nullspace of the adjoint action of k, not from a closed formula.

* Spherical evaluation, which never straightens a PBW word.  v_K = e0 - e1
  is killed by k.  Write D = D_a + n X + Y k for D in U(g); n raises the
  a-weight, so on the lowest a-weight space xi of a representation,
  xi(D v) = D_a(mu_low) xi(v) for every k-fixed v.  On the k-fixed vector
  v_K^{(x)k} of V^{(x)k} the lowest weight is mu_low = -k, so applying
  beta(P) through plain matrix actions (with Koszul signs) reads off the
  projection D_a at the points -k; the points k = 0, ..., 2q+1 determine
  the degree-(2q+1) polynomial D_a.

Both agree with the program: Gamma(beta(P_{2q+1})) = a(a^2-1)...(a^2-q^2).
The identity Gamma(beta(P_{2q+1})) = (a-q)(a^2-q^2)^q once stated for this
generator predicts the nonzero value 1 (q = 1) or -9 (q = 2) for
beta(P_{2q+1}) on v_K in the natural representation; the matrices give 0.
"""

from fractions import Fraction as Q
from math import factorial

import pytest

from superhc.apoly import APoly
from superhc.builders import matrix_superalgebra
from superhc.catalog import CATALOG
from superhc.harish import IwasawaContext
from superhc.linalg import ScalarMatrix, nullspace, span_basis
from superhc.liesuper import verify_algebra
from superhc.pairs import build_pair, restricted_roots, rho
from superhc.pbw import sym_adjoint_index
from superhc.rings import generators
from support import (anticenter_product, evaluate, shift_by_substitute,
                     sym_monomials_up_to)

A = APoly.variable(1, 0)


def const(c):
    return APoly.const(1, Q(c))


def stated_identity(q):
    """(a - q)(a^2 - q^2)^q, the value once pinned for Gamma(beta(P_{2q+1}))."""
    return (A - const(q)) * (A * A - const(q * q)) ** q


# -- the matrix realisation ----------------------------------------------------

class OspRealization:
    """osp(2|2q) with theta, its pair, positive system and enveloping algebra."""

    def __init__(self, q):
        n = 2 + 2 * q
        self.space_parity = [0, 0] + [1] * (2 * q)
        gram = [[0] * n for _ in range(n)]
        gram[0][1] = gram[1][0] = 1
        for i in range(q):
            gram[2 + i][2 + q + i] = 1
            gram[2 + q + i][2 + i] = -1
        swap = list(range(n))
        swap[0], swap[1] = 1, 0

        def theta(m):
            return tuple(tuple(m[swap[r]][swap[c]] for c in range(n))
                         for r in range(n))

        names, mats, parities = [], [], []
        for parity, label in ((0, "m"), (1, "v")):
            basis = self._osp_part(n, gram, parity)
            k_part = span_basis([_flat(_add(m, theta(m), 1)) for m in basis])
            p_part = span_basis([_flat(_add(m, theta(m), -1)) for m in basis])
            assert len(k_part) + len(p_part) == len(basis)
            for t, flat in enumerate(k_part):
                names.append(f"{label}{t}")
                mats.append(_unflat(flat, n))
                parities.append(parity)
            if parity == 0:
                a = tuple(tuple(Q(1 if r == c == 0 else -1 if r == c == 1 else 0)
                                for c in range(n)) for r in range(n))
                assert len(p_part) == 1
                assert span_basis(p_part + [_flat(a)]) == span_basis([_flat(a)])
                p_mats = [a]
            else:
                p_mats = [_unflat(flat, n) for flat in p_part]
            for t, m in enumerate(p_mats):
                names.append("a" if parity == 0 else f"w{t}")
                mats.append(m)
                parities.append(parity)
        self.mats = mats
        self.g = matrix_superalgebra(names, mats, parities, self.space_parity)
        self.g.theta = ScalarMatrix(self.g.dim, self.g.dim)
        for i, name in enumerate(names):
            self.g.theta.rows[i][i] = Q(-1) if name[0] in "aw" else Q(1)
        self.pair = build_pair(self.g, [self.g.basis("a")])
        self.system = restricted_roots(self.pair)
        self.ctx = IwasawaContext(self.pair, self.system)

    @staticmethod
    def _osp_part(n, gram, parity):
        """Matrices X of the given parity with B(Xu, v) = -(-1)^{|X||u|} B(u, Xv)."""
        sp = [0, 0] + [1] * (n - 2)
        slots = [(r, c) for r in range(n) for c in range(n)
                 if (sp[r] + sp[c]) % 2 == parity]
        pos = {s: t for t, s in enumerate(slots)}
        rows = []
        for u in range(n):
            sign = -1 if parity and sp[u] else 1
            for v in range(n):
                row = {}
                for r in range(n):
                    if gram[r][v] and (r, u) in pos:
                        row[pos[(r, u)]] = row.get(pos[(r, u)], 0) + gram[r][v]
                    if gram[u][r] and (r, v) in pos:
                        row[pos[(r, v)]] = row.get(pos[(r, v)], 0) \
                            + sign * gram[u][r]
                row = {j: Q(x) for j, x in row.items() if x}
                if row:
                    rows.append(row)
        out = []
        for coords in nullspace(ScalarMatrix(len(rows), len(slots), rows)):
            m = [[Q(0)] * n for _ in range(n)]
            for t, x in coords.items():
                r, c = slots[t]
                m[r][c] = x
            out.append(tuple(tuple(row) for row in m))
        return out

    def invariants(self, d):
        """Basis of S^d(p)^k: the nullspace of ad(k) on degree-d monomials."""
        g = self.g
        p_idx = [i for i, name in enumerate(g.names) if name[0] in "aw"]
        monos = [m for m in sym_monomials_up_to(g.parity, p_idx, d)
                 if len(m) == d]
        k_idx = [i for i, name in enumerate(g.names) if name[0] in "mv"]
        rows = {}
        for t, m in enumerate(monos):
            for x in k_idx:
                for mt, c in sym_adjoint_index(g, x, {m: Q(1)}).items():
                    rows.setdefault((x, mt), {})[t] = c
        mat = ScalarMatrix(len(rows), len(monos), list(rows.values()))
        return [{monos[t]: c for t, c in coords.items()}
                for coords in nullspace(mat)]

    def normalised_invariant(self, d):
        """The unique degree-d invariant, scaled so its a^d coefficient is 1."""
        (inv,) = self.invariants(d)
        lead = inv[(self.g.index("a"),) * d]
        return {m: c / lead for m, c in inv.items()}

    # -- the representation V^{(x)k}, by matrix products only ---------------
    def act(self, i, vec):
        """e_i acting on a vector of V^{(x)k} (dict over index tuples)."""
        mat, xpar, sp = self.mats[i], self.g.parity[i], self.space_parity
        out = {}
        for word, coeff in vec.items():
            sign = 1
            for slot, j in enumerate(word):
                for r in range(len(sp)):
                    x = mat[r][j]
                    if x:
                        key = word[:slot] + (r,) + word[slot + 1:]
                        out[key] = out.get(key, 0) + sign * x * coeff
                if xpar and sp[j]:
                    sign = -sign
        return {w: c for w, c in out.items() if c}

    def beta_action(self, p, vec):
        """beta(p) vec for p in S(g), summing Koszul-signed orderings."""
        memo = {}
        par = self.g.parity

        def ordered_sum(letters):
            # len(letters)! * beta(letters) vec, choosing the first factor
            if not letters:
                return vec
            if letters in memo:
                return memo[letters]
            out = {}
            odd_before = 0
            for t, x in enumerate(letters):
                if t and letters[t - 1] == x:
                    continue
                count = letters.count(x)
                sign = -1 if par[x] and odd_before % 2 else 1
                rest = letters[:t] + letters[t + 1:]
                for w, c in self.act(x, ordered_sum(rest)).items():
                    out[w] = out.get(w, 0) + sign * count * c
                odd_before += par[x] * count
            memo[letters] = out = {w: c for w, c in out.items() if c}
            return out

        total = {}
        for m, c in p.items():
            for w, x in ordered_sum(m).items():
                total[w] = total.get(w, 0) + c * x / factorial(len(m))
        return {w: c for w, c in total.items() if c}

    def spherical_value(self, p, k):
        """D_a(-k) for D = beta(p), read off the lowest weight of v_K^{(x)k}."""
        vec = {(): 1}
        for _ in range(k):
            vec = {w + (j,): c * s for w, c in vec.items()
                   for j, s in ((0, 1), (1, -1))}
        lowest = (1,) * k
        return Q(self.beta_action(p, vec).get(lowest, 0)) / vec[lowest]


def _flat(m):
    """The entries of a square matrix as a sparse row, row-major."""
    n = len(m)
    return {r * n + c: x for r, row in enumerate(m) for c, x in enumerate(row)
            if x}


def _unflat(flat, n):
    return tuple(tuple(flat.get(r * n + c, Q(0)) for c in range(n))
                 for r in range(n))


def _add(m1, m2, sign):
    return tuple(tuple(x + sign * y for x, y in zip(r1, r2))
                 for r1, r2 in zip(m1, m2))


_cache = {}


def realization(q):
    if q not in _cache:
        _cache[q] = OspRealization(q)
    return _cache[q]


def interpolate(values):
    """The polynomial of degree < len(values) taking values[k] at -k."""
    points = range(len(values))
    out = APoly.zero(1)
    for k in points:
        basis = const(values[k])
        for j in points:
            if j != k:
                basis = basis * (A + const(j)).scale(Q(1, j - k))
        out = out + basis
    return out


# -- the tests -----------------------------------------------------------------

@pytest.mark.parametrize("q", [1, 2])
def test_osp_pair_has_the_rank_one_root_data(q):
    real = realization(q)
    g = real.g
    assert g.dim == q * (2 * q + 1) + 4 * q + 1
    assert verify_algebra(g) == []
    roots = {r.lam: (r.m0, r.m1, pos)
             for r, pos in zip(real.system.roots, real.system.positive)}
    # n is the +1 root space, so n raises the a-weight, as the spherical
    # evaluation below requires
    assert roots == {(Q(-1),): (0, 2 * q, False), (Q(1),): (0, 2 * q, True)}
    assert rho(real.system)[0] == (Q(-q),)
    assert len(real.pair.k_basis) == q * (2 * q + 1) + 2 * q


@pytest.mark.parametrize("q", [1, 2])
def test_invariants_are_unique_and_gamma_matches_the_model(q):
    real = realization(q)
    assert len(real.invariants(2)) == 1
    assert len(real.invariants(2 * q + 1)) == 1
    model = CATALOG[f"rank1-aniso-q{q}"].build()
    p2, p2q1 = generators(model.model)
    gamma2 = real.ctx.gamma_of_sym(real.normalised_invariant(2))
    gamma_odd = real.ctx.gamma_of_sym(real.normalised_invariant(2 * q + 1))
    assert gamma2 == model.ctx.gamma_of_sym(p2) == A * A - const(q * q)
    assert gamma_odd == model.ctx.gamma_of_sym(p2q1) == anticenter_product(q)
    assert gamma_odd != stated_identity(q)
    # invariants of lower degree have even images, so adding them to the
    # generator cannot change the odd part a(a^2-1)...(a^2-q^2)
    for d in range(1, 2 * q + 1):
        for p in real.invariants(d):
            assert all(e[0] % 2 == 0 for e in real.ctx.gamma_of_sym(p).terms)


@pytest.mark.parametrize("q", [1, 2])
def test_spherical_evaluation_determines_the_projection(q):
    real = realization(q)
    p = real.normalised_invariant(2 * q + 1)
    # 2q + 2 points fix the degree-(2q+1) polynomial; D_a(mu) is
    # mu(mu+1)...(mu+2q), which vanishes at the first 2q + 1 of them
    values = [real.spherical_value(p, k) for k in range(2 * q + 2)]
    assert values == [0] * (2 * q + 1) + [-factorial(2 * q + 1)]
    d_a = interpolate(values)
    assert d_a == real.ctx.project_to_a(real.ctx.beta_from_g(p))
    assert shift_by_substitute(d_a, [Q(-q)]) == anticenter_product(q)
    assert shift_by_substitute(d_a, [Q(-q)]) != stated_identity(q)


@pytest.mark.parametrize("q", [1, 2])
def test_natural_representation_rejects_the_stated_identity(q):
    real = realization(q)
    v_k = {(0,): 1, (1,): -1}
    p2 = real.normalised_invariant(2)
    assert real.beta_action(p2, v_k) == {w: (1 - 2 * q) * c
                                         for w, c in v_k.items()}
    # mu_low = -1, so Gamma is read at mu_low - rho = q - 1
    assert evaluate(A * A - const(q * q), [q - 1]) == 1 - 2 * q
    p_odd = real.normalised_invariant(2 * q + 1)
    assert real.beta_action(p_odd, v_k) == {}
    assert evaluate(anticenter_product(q), [q - 1]) == 0
    assert evaluate(stated_identity(q), [q - 1]) == {1: 1, 2: -9}[q]
