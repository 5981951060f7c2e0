import random
from fractions import Fraction as Q

import pytest

from superhc.builders import double_with_flip, gl12, osp12, sl2
from superhc.catalog import CATALOG
from superhc.harish import IwasawaContext
from superhc.linalg import ScalarMatrix
from superhc.liesuper import (LieSuperalgebra, MixedAlgebras, MissingForm,
                              MissingInvolution, SuperVector, centralizer,
                              theta_eigenspaces, verify_algebra)
from superhc.pairs import build_pair, restricted_roots
from superhc.rings import ANISOTROPIC, ISOTROPIC, build_rank_one_model
from support import (adapted_brackets_pairwise, derived_and_center,
                     oracle_verify_algebra, p_dims, solve_membership)


def catalog_algebras():
    return {
        "sl2": sl2(),
        "osp12": osp12(),
        "gl12": gl12(),
        "group-osp12": double_with_flip(osp12()),
        "rank1-aniso-q1": build_rank_one_model(1, ANISOTROPIC, Q(1)).algebra,
        "rank1-aniso-q2": build_rank_one_model(2, ANISOTROPIC, Q(1)).algebra,
        "rank1-iso-q1": build_rank_one_model(1, ISOTROPIC, Q(0)).algebra,
    }


@pytest.mark.parametrize("name", list(catalog_algebras()))
def test_full_axiom_scan(name):
    g = catalog_algebras()[name]
    assert verify_algebra(g) == []


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_bracket_is_the_bilinear_fraction_sum(name):
    # bracket sums in the integers; the oracle sums Fractions over every
    # pair of coordinates.  The entry's algebra (the doubled one for group
    # type), the algebra it doubles, and the Iwasawa-adapted algebra, whose
    # constants need not be integral
    an = CATALOG[name].build()
    algebras = [an.pair.g, an.ctx.adapted]
    if name.startswith("group-"):
        algebras.append(catalog_algebras()[name[len("group-"):]])
    rng = random.Random(name)

    def scalar():
        x = rng.randint(-4, 4)
        return x if rng.random() < 0.5 else Q(x, rng.randint(1, 6))

    def vector(g):
        return SuperVector(g, {i: scalar() for i in rng.sample(
            range(g.dim), rng.randint(0, min(4, g.dim)))})

    def bilinear_sum(g, x, y):
        want = {}
        for i, xi in x.c.items():
            for j, yj in y.c.items():
                for k, c in g.bracket_indices(i, j).items():
                    want[k] = want.get(k, Q(0)) + Q(xi) * Q(yj) * Q(c)
        return {k: v for k, v in want.items() if v}

    for g in algebras:
        for _ in range(30):
            # bracket_each scales x once for the whole list and each y once;
            # bracket is its one-pair case
            x, ys = vector(g), [vector(g) for _ in range(rng.randint(0, 4))]
            got = g.bracket_each(x, ys)
            assert [v.c for v in got] == [bilinear_sum(g, x, y) for y in ys]
            assert all(type(v) in (int, Q) for out in got
                       for v in out.c.values())
            for y, out in zip(ys, got):
                assert g.bracket(x, y) == out


@pytest.mark.parametrize("a_scale", [1, Q(1, 3)])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_adapted_brackets_are_the_pairwise_brackets_rebased(name, a_scale):
    # IwasawaContext scales each adapted basis vector once and brackets the
    # scaled vectors; the oracle brackets each pair i <= j of the vectors
    # and rebases the result.  Every catalog vector is integral, so a is
    # also taken a third as long: its vectors then scale by 3
    pair = CATALOG[name].build().pair
    if a_scale != 1:
        pair = build_pair(pair.g, [v.scale(a_scale) for v in pair.a_basis])
    ctx = IwasawaContext(pair, restricted_roots(pair))
    want = adapted_brackets_pairwise(ctx)
    assert ctx.adapted.brackets == want
    for key, out in want.items():
        assert list(ctx.adapted.brackets[key]) == list(out), key
        for k, v in ctx.adapted.brackets[key].items():
            assert type(v) is (int if v.denominator == 1 else Q), (key, k, v)


def _planted_antisymmetry():
    # [e,f] = h together with [f,e] = h violates antisymmetry at (f,e)
    return LieSuperalgebra(
        ["e", "h", "f"], [0, 0, 0],
        {(0, 2): {1: Q(1)}, (2, 0): {1: Q(1)},
         (1, 0): {0: Q(2)}, (1, 2): {2: Q(-2)}})


def _planted_jacobi(half=False):
    # [h, f] = 2f where sl2 has -2f; with half, [e, f] = h / 2 as well, so
    # that the table's scale is 2
    return LieSuperalgebra(
        ["e", "h", "f"], [0, 0, 0],
        {(0, 2): {1: Q(1, 2) if half else Q(1)}, (1, 0): {0: Q(2)},
         (1, 2): {2: Q(2)}})


def _planted_theta_involution():
    # a map that is -id on the odd part and zero on the even part fails
    # the involution axiom
    g = osp12()
    t = ScalarMatrix(5, 5)
    for i in range(5):
        if g.parity[i]:
            t.rows[i][i] = Q(-1)
    g.theta = t
    return g


def _matrix(rows):
    m = ScalarMatrix(len(rows), len(rows))
    for i, row in enumerate(rows):
        m.rows[i] = {j: Q(x) for j, x in enumerate(row) if x}
    return m


def _planted_theta_automorphism():
    # e -> e, h -> -h, f -> f is an even involution of sl2, but
    # theta [e, f] = -h while [theta e, theta f] = h
    g = sl2()
    g.theta = _matrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    return g


def _planted_form():
    # the Chevalley involution e <-> f, h -> -h is an automorphism, but
    # the form diag(1, 1, 2) is neither invariant nor theta-invariant
    g = sl2()
    g.form = _matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    g.theta = _matrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    return g


def _planted_odd_jacobi():
    # osp(1|2) with [x, x] doubled: the Jacobi identity fails on triples
    # with odd letters, and its form is no longer invariant
    g = osp12()
    brackets = {key: dict(out) for key, out in g.brackets.items()}
    brackets[(3, 3)] = {k: 2 * v for k, v in brackets[(3, 3)].items()}
    return LieSuperalgebra(g.names, g.parity, brackets, g.form, g.theta)


PLANTED = {
    "antisymmetry": (_planted_antisymmetry, "antisymmetry"),
    "jacobi": (_planted_jacobi, "jacobi"),
    "jacobi-half": (lambda: _planted_jacobi(half=True), "jacobi"),
    "theta-involution": (_planted_theta_involution, "theta-involution"),
    "theta-automorphism": (_planted_theta_automorphism, "theta-automorphism"),
    "form-invariant": (_planted_form, "form-invariant"),
    "form-theta-invariant": (_planted_form, "form-theta-invariant"),
    "odd-jacobi": (_planted_odd_jacobi, "jacobi"),
}


@pytest.mark.parametrize("name", list(PLANTED))
def test_planted_defect_report_matches_the_bracket_oracle(name):
    # the scan sums table rows; the oracle brackets basis vectors one
    # triple at a time.  Same entries, in the same order
    build, check = PLANTED[name]
    g = build()
    report = verify_algebra(g)
    assert report == oracle_verify_algebra(g)
    assert any(v["check"] == check for v in report)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_report_matches_the_bracket_oracle(name):
    # the entry's algebra, the algebra a group entry doubles, and the
    # Iwasawa-adapted algebra, whose table need not be integral
    an = CATALOG[name].build()
    algebras = [an.pair.g, an.ctx.adapted]
    if name.startswith("group-"):
        algebras.append(catalog_algebras()[name[len("group-"):]])
    for g in algebras:
        assert verify_algebra(g) == oracle_verify_algebra(g) == []


def test_planted_antisymmetry_defect_is_reported():
    report = verify_algebra(_planted_antisymmetry())
    assert any(v["check"] == "antisymmetry" and v["at"] == (2, 0)
               for v in report)


def test_planted_jacobi_defect_is_reported():
    report = verify_algebra(_planted_jacobi())
    assert any(v["check"] == "jacobi" for v in report)


def test_bracket_even_square_vanishes():
    g = sl2()
    e = g.basis("e")
    assert not g.bracket(e, e)


def test_bracket_rank_one_paper_relations():
    # [y~_1, z_1] = A_lam and [h, y_1] = lam(h) z_1 in a rank-one model; at
    # c = 1, sqrt(c) = 1 and y_1, y~_1, z_1 are v1, vt1, w1
    m = build_rank_one_model(1, ANISOTROPIC, Q(1))
    g = m.algebra
    yt1, z1 = g.basis("vt1"), g.basis("w1")
    assert g.bracket(yt1, z1) == g.basis("a").scale(m.c)  # A_lam = c a
    y1 = g.basis("v1")
    a = g.basis("a")  # lam(a) = 1
    assert g.bracket(a, y1) == z1


def test_bracket_mixed_algebras_rejected():
    g1, g2 = sl2(), sl2()
    with pytest.raises(MixedAlgebras):
        g1.bracket(g1.basis("e"), g2.basis("f"))


def test_theta_identity_gives_k_equals_g():
    g = sl2()
    g.theta = ScalarMatrix.identity(3)
    k, p = theta_eigenspaces(g)
    assert len(k) == 3 and len(p) == 0


def test_theta_eigenspaces_group_type():
    g0 = sl2()
    g = double_with_flip(g0)
    k, p = theta_eigenspaces(g)
    assert len(k) == len(p) == 3
    # membership checked by the flip action
    for v in k:
        assert g.theta_apply(v) == v
    for v in p:
        assert g.theta_apply(v) == -v
    # bracket inclusions [k,k] in k, [k,p] in p, [p,p] in k
    k_span = [v.c for v in k]
    p_span = [v.c for v in p]
    for x in k:
        for y in k:
            assert solve_membership(g.bracket(x, y).c, k_span) is not None
        for y in p:
            assert solve_membership(g.bracket(x, y).c, p_span) is not None
    for x in p:
        for y in p:
            assert solve_membership(g.bracket(x, y).c, k_span) is not None


def test_degenerate_theta_rejected_at_validation():
    report = verify_algebra(_planted_theta_involution())
    assert any(v["check"] == "theta-involution" for v in report)


def test_missing_involution():
    g = sl2()
    with pytest.raises(MissingInvolution):
        theta_eigenspaces(g)
    with pytest.raises(MissingForm):
        LieSuperalgebra(["x"], [0], {}).b(*(g.basis("e"),) * 2)


def test_centralizer_of_zero_is_everything():
    g = sl2()
    z = centralizer(g, [g.zero()], g.basis_vectors())
    assert len(z) == 3


def test_centralizer_of_cartan_in_sl2():
    g = sl2()
    z = centralizer(g, [g.basis("h")], g.basis_vectors())
    assert len(z) == 1 and z[0] == g.basis("h")
    # brute-force oracle over the ad(h) kernel
    m = g.ad_matrix(g.basis("h"))
    from superhc.linalg import nullspace
    assert len(nullspace(m)) == 1


def test_centralizer_dim_formula_for_group_pair():
    # dim m - dim a = dim k_0 - dim p_0 for the catalog pair
    from superhc.catalog import CATALOG
    analysis = CATALOG["group-osp12"].build()
    pair = analysis.pair
    m = centralizer(pair.g, pair.a_basis, pair.k_basis)
    k0, _ = pair.k_dims()
    p0, _ = p_dims(pair)
    assert len(m) - pair.rank == k0 - p0


def test_b_theta_fixed_even_vector():
    g = double_with_flip(sl2())
    x = g.vector({"h.l": Q(1), "h.r": Q(1)})  # theta-fixed, even
    assert g.b(x, g.theta_apply(x)) == g.b(x, x)


def test_b_theta_symplectic_on_rank_one_model():
    # b^theta(x_i, x~_j) = 2 delta_ij and b^theta(x_i, x_j) = 0, with
    # x_1 = v1 + w1 and x~_1 = vt1 + wt1 at c = 1
    m = build_rank_one_model(1, ANISOTROPIC, Q(1))
    g = m.algebra
    x1 = g.basis("v1") + g.basis("w1")
    xt1 = g.basis("vt1") + g.basis("wt1")
    assert g.b(x1, g.theta_apply(xt1)) == Q(2)
    assert g.b(x1, g.theta_apply(x1)) == 0


def test_derived_and_center_abelian():
    g = LieSuperalgebra(["x", "y"], [0, 0], {})
    derived, center = derived_and_center(g)
    assert derived == [] and len(center) == 2


def test_derived_and_center_sl2():
    derived, center = derived_and_center(sl2())
    assert len(derived) == 3 and center == []


def test_derived_and_center_gl12():
    g = gl12()
    derived, center = derived_and_center(g)
    assert len(center) == 1 and len(derived) == 8
    # center is the scalars; supertrace-zero oracle for the derived part:
    # str(E00) - str(E11) - str(E22) pairing vanishes on g'
    ident = g.vector({"E00": Q(1), "E11": Q(1), "E22": Q(1)})
    # the center is spanned by the identity: its one basis vector is a
    # nonzero multiple of E00 + E11 + E22
    scale = center[0].c.get(g.names.index("E00"), Q(0))
    assert scale != 0
    assert center[0].c == ident.scale(scale).c
    for v in derived:
        s = v.c.get(g.index("E00"), Q(0)) - v.c.get(g.index("E11"), Q(0)) \
            - v.c.get(g.index("E22"), Q(0))
        assert s == 0
    # direct sum g = z + g'
    from superhc.linalg import span_basis
    assert len(span_basis([v.c for v in center + derived])) == 9


@pytest.mark.parametrize("name", ["sl2", "osp12", "gl12"])
def test_form_invariance_identity(name):
    g = catalog_algebras()[name]
    basis = g.basis_vectors()
    for x in basis:
        for y in basis:
            for z in basis:
                assert g.b(g.bracket(x, y), z) == g.b(x, g.bracket(y, z))


def test_theta_compatibility_group_type():
    g = double_with_flip(osp12())
    basis = g.basis_vectors()
    for x in basis:
        for y in basis:
            assert g.theta_apply(g.bracket(x, y)) \
                == g.bracket(g.theta_apply(x), g.theta_apply(y))


def test_centdim_formula_random_samples():
    # dim z_{k1}(x) - dim z_{p1}(x) = dim k1 - dim p1 for 20 random x in p0
    from superhc.catalog import CATALOG
    rng = random.Random(11)
    for name in ["group-osp12", "rank1-aniso-q1", "rank1-iso-q1"]:
        analysis = CATALOG[name.replace("group-osp12", "group-osp12")].build()
        pair = analysis.pair
        g = pair.g
        k1 = [v for v in pair.k_basis if v.parity == 1]
        p1 = [v for v in pair.p_basis if v.parity == 1]
        p0 = [v for v in pair.p_basis if v.parity == 0]
        for _ in range(20):
            x = g.zero()
            for w in p0:
                x = x + w.scale(Q(rng.randint(-4, 4)))
            assert len(centralizer(g, [x], k1)) - len(centralizer(g, [x], p1)) \
                == len(k1) - len(p1)

