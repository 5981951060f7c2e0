from fractions import Fraction as Q

import pytest

from superhc.apoly import APoly, monomials_up_to
from superhc.builders import double_with_flip, osp12, sl2
from superhc.catalog import CATALOG
from superhc.linalg import ScalarMatrix, kernel
from superhc.liesuper import LieSuperalgebra, theta_eigenspaces
from superhc.pairs import (CentralizerTooLarge, DegenerateFormOnA,
                           DirectionOnWall, NotAbelian, NotInEvenP, PairError,
                           SymmetricPair, WeylGroup, build_pair,
                           choose_positive_system,
                           even_weyl_group, iwasawa_check, restricted_roots,
                           rho)
from superhc.rings import ANISOTROPIC, ISOTROPIC, build_rank_one_model
from support import apply, gl11, solve_membership, weyl_acts_on_functional


def group_pair(g0_maker, cartan="h"):
    g = double_with_flip(g0_maker())
    h = g.vector({f"{cartan}.l": Q(1), f"{cartan}.r": Q(-1)})
    return build_pair(g, [h]), g


def abelian_even_pair():
    # two even generators, theta = diag(1,-1), p = a
    g = LieSuperalgebra(
        ["k0", "p0"], [0, 0], {},
        form=ScalarMatrix.identity(2),
        theta=ScalarMatrix.from_rows([[1, 0], [0, -1]]))
    return build_pair(g, [g.basis("p0")])


def test_build_pair_group_type_sl2():
    pair, g = group_pair(sl2)
    assert pair.rank == 1
    assert len(pair.k_basis) == len(pair.p_basis) == 3


def test_build_pair_rejects_zero_a():
    g = double_with_flip(sl2())
    with pytest.raises(CentralizerTooLarge):
        build_pair(g, [])


def test_build_pair_rejects_odd_vector():
    g = double_with_flip(osp12())
    with pytest.raises(NotInEvenP):
        build_pair(g, [g.basis("x.l") - g.basis("x.r")])


def test_build_pair_rejects_vector_outside_p():
    g = double_with_flip(sl2())
    with pytest.raises(NotInEvenP):
        build_pair(g, [g.vector({"h.l": Q(1), "h.r": Q(1)})])


def test_degenerate_form_on_a():
    # the identity of gl(1|1) has supertrace str(I I) = 0, so b vanishes on
    # the antidiagonal copy of it in p
    g = double_with_flip(gl11())
    k, p = theta_eigenspaces(g)
    a = g.vector({"E00.l": Q(1), "E11.l": Q(1), "E00.r": Q(-1), "E11.r": Q(-1)})
    assert g.b(a, a) == 0
    with pytest.raises(DegenerateFormOnA):
        SymmetricPair(g, k, p, [a])


def test_coroot_coords_solve_the_gram_system():
    # b(x_i, A_lam) = lam(x_i) for each a-basis vector x_i
    for name in CATALOG:
        analysis = CATALOG[name].build()
        pair = analysis.pair
        for root in analysis.system.roots:
            coords = dict(enumerate(pair.coroot_coords(root.lam)))
            assert apply(pair.a_gram, coords) \
                == {i: x for i, x in enumerate(root.lam) if x}


def test_build_pair_rejects_nonabelian_a():
    # e.l - e.r and f.l - f.r are both in p_0 but do not commute
    g = double_with_flip(sl2())
    with pytest.raises((NotAbelian, CentralizerTooLarge)):
        build_pair(g, [g.vector({"e.l": Q(1), "e.r": Q(-1)}),
                       g.vector({"f.l": Q(1), "f.r": Q(-1)})])


def test_restricted_roots_group_osp12():
    pair, _ = group_pair(osp12)
    system = restricted_roots(pair)
    table = {tuple(r.lam): (r.m0, r.m1) for r in system.roots}
    assert table == {(Q(-2),): (2, 0), (Q(-1),): (0, 2),
                     (Q(1),): (0, 2), (Q(2),): (2, 0)}
    assert len(system.m_basis) == 1


def test_restricted_roots_abelian_pair_is_empty():
    pair = abelian_even_pair()
    system = restricted_roots(pair)
    assert system.roots == []
    assert len(system.m_basis) == 1  # m = k


def test_restricted_roots_rank_one_anisotropic():
    model = build_rank_one_model(1, ANISOTROPIC, Q(1))
    system = restricted_roots(model.pair)
    assert [(r.lam, r.m0, r.m1) for r in system.roots] \
        == [((Q(-1),), 0, 2), ((Q(1),), 0, 2)]


def test_choose_positive_system_basic():
    pair, _ = group_pair(sl2)
    system = restricted_roots(pair)
    flags = choose_positive_system(system, direction=(Q(1),))
    assert [r.lam for r in system.positive_roots()] == [(Q(2),)]
    assert flags.count(True) == 1


def test_choose_positive_system_osp12_closure():
    pair, _ = group_pair(osp12)
    system = restricted_roots(pair)
    choose_positive_system(system)
    assert sorted(r.lam for r in system.positive_roots()) \
        == [(Q(1),), (Q(2),)]


def test_direction_on_wall():
    pair, _ = group_pair(sl2)
    system = restricted_roots(pair)
    with pytest.raises(DirectionOnWall):
        choose_positive_system(system, direction=(Q(0),))


@pytest.mark.parametrize("direction", [(), (Q(1), Q(2))])
def test_direction_of_the_wrong_length(direction):
    pair, _ = group_pair(sl2)
    system = restricted_roots(pair)
    positive, chosen = list(system.positive), system.direction
    with pytest.raises(PairError, match="rank 1") as exc:
        choose_positive_system(system, direction=direction)
    assert not isinstance(exc.value, DirectionOnWall)
    # a refused direction leaves the positive system chosen before it
    assert system.positive == positive and system.direction == chosen


def test_rho_empty_system_is_zero():
    pair = abelian_even_pair()
    system = restricted_roots(pair)
    choose_positive_system(system, direction=(Q(1),))
    assert rho(system) == ((Q(0),), (Q(0),), (Q(0),))


def test_rho_group_osp12():
    # rho = (1/2)(2*2a) - (1/2)(2*a) = a; cross-checked internally against
    # the supertrace on n
    pair, _ = group_pair(osp12)
    system = restricted_roots(pair)
    r, r0, r1 = rho(system)
    assert r == (Q(1),) and r0 == (Q(2),) and r1 == (Q(1),)


def test_rho_rank_one_models():
    for q, iso, c in [(1, ANISOTROPIC, Q(1)), (2, ANISOTROPIC, Q(1)),
                      (1, ISOTROPIC, Q(0))]:
        model = build_rank_one_model(q, iso, c)
        system = restricted_roots(model.pair)
        r, _, _ = rho(system)
        lam = system.positive_roots()[0].lam
        assert r == tuple(-q * x for x in lam)


def test_even_weyl_group_trivial_and_order_two():
    model = build_rank_one_model(1, ANISOTROPIC, Q(1))
    system = restricted_roots(model.pair)
    assert len(even_weyl_group(system)) == 1

    pair, _ = group_pair(sl2)
    system = restricted_roots(pair)
    w = even_weyl_group(system)
    assert len(w) == 2


def test_even_weyl_group_group_osp12_acts_by_sign():
    pair, _ = group_pair(osp12)
    system = restricted_roots(pair)
    w = even_weyl_group(system)
    assert len(w) == 2
    nontrivial = [m for m in w.elements
                  if m != ((Q(1),),)]
    assert nontrivial == [((Q(-1),),)]


def test_weyl_permutes_even_roots_preserving_multiplicities():
    for name in ["group-sl2", "group-osp12", "group-gl12"]:
        analysis = CATALOG[name].build()
        system = analysis.system
        table = {r.lam: (r.m0, r.m1) for r in system.roots if r.m0 > 0}
        for w in analysis.weyl.elements:
            for lam, mult in table.items():
                moved = weyl_acts_on_functional(w, lam)
                assert table[moved] == mult


def test_iwasawa_check_catalog_pairs_pass():
    for name in ["group-sl2", "group-osp12", "rank1-aniso-q1", "rank1-iso-q1"]:
        analysis = CATALOG[name].build()
        report = iwasawa_check(analysis.pair, analysis.system)
        assert report["ok"], report["violations"]


def test_iwasawa_check_detects_truncated_n():
    analysis = CATALOG["group-osp12"].build()
    n = analysis.system.n_basis()
    report = iwasawa_check(analysis.pair, analysis.system, n_basis=n[:-1])
    assert not report["ok"]
    assert any("dimension" in v for v in report["violations"])


def test_iwasawa_check_zero_sample_trivial():
    analysis = CATALOG["group-sl2"].build()
    report = iwasawa_check(analysis.pair, analysis.system,
                           samples=[analysis.pair.g.zero()])
    assert report["ok"]


def test_root_space_bracket_grading():
    # [g^lam, g^mu] lies in g^{lam+mu} (or m + a when lam + mu = 0)
    for name in ["group-osp12", "rank1-aniso-q2", "group-gl12"]:
        analysis = CATALOG[name].build()
        system = analysis.system
        pair = analysis.pair
        g = pair.g
        spaces = {r.lam: r.space0 + r.space1 for r in system.roots}
        zero = tuple(Q(0) for _ in range(pair.rank))
        spaces[zero] = system.m_basis + pair.a_basis
        for lam, vs in spaces.items():
            for mu, ws in spaces.items():
                target = tuple(x + y for x, y in zip(lam, mu))
                span = [v.c for v in spaces.get(target, [])]
                for v in vs:
                    for w in ws:
                        out = g.bracket(v, w)
                        if not out:
                            continue
                        assert target in spaces
                        assert solve_membership(out.c, span) is not None


def test_odd_multiplicities_are_even():
    for name in CATALOG:
        analysis = CATALOG[name].build()
        for r in analysis.system.roots:
            assert r.m1 % 2 == 0


def test_theta_maps_root_space_to_opposite():
    for name in ["group-osp12", "rank1-iso-q1", "group-gl12"]:
        analysis = CATALOG[name].build()
        system = analysis.system
        g = analysis.pair.g
        spaces = {r.lam: r.space0 + r.space1 for r in system.roots}
        for lam, vs in spaces.items():
            opp = tuple(-x for x in lam)
            span = [v.c for v in spaces[opp]]
            for v in vs:
                assert solve_membership(g.theta_apply(v).c, span) \
                    is not None


def test_invariant_basis_grown_degree_by_degree_equals_one_call():
    # the kept basis of S(a)^W0 grows by one kernel per new degree: asked in
    # rising order it equals one call at d on a fresh Weyl group, and both
    # equal the one reduced-echelon kernel over every monomial of degree <= d
    for name in sorted(CATALOG):
        analysis = CATALOG[name].build()
        weyl, rank = analysis.weyl, analysis.rank
        for d in range(9):
            grown = weyl.invariant_basis(rank, d)
            fresh = WeylGroup(weyl.elements, weyl.generators)
            assert fresh.invariant_basis(rank, d) == grown, (name, d)
            monos = monomials_up_to(rank, d)
            whole = [(sum(monos[max(v)]),
                      APoly(rank, {monos[t]: c for t, c in v.items()}))
                     for v in kernel(weyl.invariance_rows(e) for e in monos)]
            assert whole == grown, (name, d)
