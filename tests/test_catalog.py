import numbers
import random
from fractions import Fraction as Q

import pytest

from superhc import catalog
from superhc.builders import gl12, osp12, sl2
from superhc.catalog import (CATALOG, NoCertificate, NotEvenType,
                             group_type_pair, roots_report,
                             verify_certificate, verify_main_theorem)
from superhc.pairs import restricted_roots
from superhc.apoly import APoly, Substitution
from superhc.harish import invariants_up_to_degree
from superhc.linalg import ScalarMatrix, kernel
from superhc.liesuper import SuperVector
from superhc.rings import filtered_dimension, OddRootDatum, ring_conditions
from superhc.serialization import dumps_canonical
from support import gl11, monomials_up_to


def test_group_type_sl2_roots():
    pair = group_type_pair(sl2(), ["h"])
    system = restricted_roots(pair)
    assert [(r.m0, r.m1) for r in system.roots] == [(2, 0), (2, 0)]


def test_group_type_osp12_roots():
    pair = group_type_pair(osp12(), ["h"])
    system = restricted_roots(pair)
    table = {r.lam: (r.m0, r.m1) for r in system.roots}
    assert table == {(Q(-2),): (2, 0), (Q(-1),): (0, 2),
                     (Q(1),): (0, 2), (Q(2),): (2, 0)}


def test_group_type_gl11_has_no_certificate():
    # str(I) = 0 breaks strong reductivity: the identity sits inside the
    # declared ideal, so the declared sum is not direct (and b degenerates)
    with pytest.raises(NoCertificate):
        group_type_pair(gl11(), ["E00", "E11"])


def test_group_type_requires_even_cartan():
    # a non-Cartan "torus" candidate: span{e} has too-large centraliser
    with pytest.raises(NotEvenType):
        group_type_pair(sl2(), ["e"])


def test_certificates_of_catalog_algebras_verify():
    for maker in (sl2, osp12, gl12):
        from superhc.builders import double_with_flip
        verify_certificate(double_with_flip(maker()))


def test_verify_main_theorem_rank_one_q1():
    report = verify_main_theorem("rank1-aniso-q1", degree=3)
    assert report["ok"]
    assert report["rows"][-1]["dim_image"] == report["rows"][-1]["dim_J"] == 3


def test_verify_main_theorem_group_osp12_I_equals_J():
    report = verify_main_theorem("group-osp12", degree=4)
    assert report["ok"]
    for row in report["rows"]:
        assert row["dim_I"] == row["dim_J"] == row["dim_image"]


def test_verify_main_theorem_group_gl12():
    report = verify_main_theorem("group-gl12")
    assert report["ok"]
    # the isotropic conditions genuinely cut: dim SW0 > dim J at degree 2
    last = report["rows"][-1]
    assert last["dim_SW0"] > last["dim_J"]


@pytest.mark.parametrize("name, degree", [("group-osp12", 6),
                                          ("group-sl2", 6)])
def test_verify_main_theorem_at_stretch_degree(name, degree):
    assert verify_main_theorem(name, degree=degree)["ok"]


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "open J encoding: rings.membership_conditions demands that the odd part "
    "B(u) be divisible by u^q, which Gamma(beta(P5)) = a(a^2-1)(a^2-4) "
    "fails at q = 2; image_in_J is the only failing flag"))
def test_verify_main_theorem_rank1_aniso_q2_degree_5():
    report = verify_main_theorem("rank1-aniso-q2", degree=5)
    failing = [k for k, v in report["flags"].items() if not v]
    if failing not in ([], ["image_in_J"]):
        pytest.fail(f"flags other than image_in_J fail: {failing}")
    assert report["ok"]


def test_planted_wrong_multiplicity_is_detected():
    # tampering with an odd multiplicity changes the predicted ring
    # dimensions, so dims_match fails
    analysis = CATALOG["rank1-aniso-q1"].build()
    report = verify_main_theorem(analysis, degree=3)
    assert report["flags"]["dims_match"]
    good = analysis.data[0]
    bad = OddRootDatum(good.lam, good.q + 1, good.iso_class, good.c,
                       good.A_coords, good.a_coords, good.h0_coords,
                       good.a_perp, good.gated)
    dim_img = report["rows"][-1]["dim_image"]
    dim_j_bad = filtered_dimension("J", [bad], analysis.weyl, 1, 3)
    assert dim_img != dim_j_bad


def test_dims_match_checks_every_row(monkeypatch):
    # gr J = I(a) is a filtered statement, so a wrong dim_J below the top
    # row must fail dims_match even when the top row agrees: J's degree-2
    # basis vector is reported at degree 0, which leaves the top row alone
    real = catalog.ring_degrees

    def j_vector_moved_to_degree_zero(ring, data, weyl, rank, d,
                                      include_weyl=True):
        degrees = real(ring, data, weyl, rank, d, include_weyl)
        if ring != "J":
            return degrees
        assert degrees == [0, 2]
        return [0, 0]

    monkeypatch.setattr(catalog, "ring_degrees", j_vector_moved_to_degree_zero)
    report = verify_main_theorem("rank1-aniso-q1", degree=2)
    top = report["rows"][-1]
    assert top["dim_image"] == top["dim_J"] == top["dim_I"]
    assert report["rows"][0]["dim_J"] == 2
    assert not report["flags"]["dims_match"]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_ring_rows_match_independent_runs(name):
    """Each ring column of each row equals a fresh kernel at that degree."""
    entry = CATALOG[name]
    analysis = entry.build()
    r = analysis.rank
    top = entry.default_degree
    rows = verify_main_theorem(analysis, degree=top)["rows"]
    assert [row["degree"] for row in rows] == list(range(top + 1))
    columns = {"dim_J": ("J", True), "dim_I": ("I", True),
               "dim_I_noweyl": ("I", False), "dim_SW0": ("SW0", True)}
    for row in rows:
        for col, (ring, include_weyl) in columns.items():
            fresh = kernel(ring_conditions(APoly(r, {e: Q(1)}), ring,
                                           analysis.data, analysis.weyl,
                                           include_weyl)
                           for e in monomials_up_to(r, row["degree"]))
            assert row[col] == len(fresh), (col, row["degree"])


def test_direction_builds_the_analysis_once(monkeypatch):
    calls = []
    real = catalog.restricted_roots

    def counted(pair, direction=None):
        calls.append(pair)
        return real(pair, direction)

    monkeypatch.setattr(catalog, "restricted_roots", counted)
    analysis = CATALOG["group-gl12"].build([1, 3, 9])
    assert len(calls) == 1
    assert analysis.system.direction == (Q(1), Q(3), Q(9))


@pytest.mark.parametrize("name", ["group-sl2", "group-gl12"])
def test_name_and_built_analysis_take_the_same_default_degree(name):
    # the entry's default degree is 4 on group-sl2 and 2 on group-gl12; the
    # built Analysis carries it, as it carries the entry's name
    report = verify_main_theorem(name)
    assert report["degree"] == CATALOG[name].default_degree
    assert verify_main_theorem(CATALOG[name].build()) == report


def test_report_determinism():
    r1 = verify_main_theorem("rank1-iso-q1", degree=2, seed=5)
    r2 = verify_main_theorem("rank1-iso-q1", degree=2, seed=5)
    assert dumps_canonical(r1) == dumps_canonical(r2)


def test_roots_report_shape():
    analysis = CATALOG["rank1-iso-q1"].build()
    report = roots_report(analysis)
    assert report["a_basis"] == ["h0", "Al"]
    assert report["rho"] == ["-1", "0"]
    odd = [r for r in report["roots"] if r["m1"] > 0]
    assert odd and all(r["isotropy"] == "ISOTROPIC" for r in odd)
    assert all(r["gated"] is False for r in odd if r["positive"])


def test_gated_flag_group_osp12():
    analysis = CATALOG["group-osp12"].build()
    report = roots_report(analysis)
    gated = [r for r in report["roots"] if r.get("gated")]
    assert gated, "the odd root with 2*lam in Sigma must be gated"


def test_build_with_direction_keeps_model_and_flips_positivity():
    entry = CATALOG["rank1-aniso-q1"]
    flipped = entry.build(direction=(Q(-1),))
    assert hasattr(flipped, "model")
    assert [r.lam for r in flipped.system.positive_roots()] == [(Q(-1),)]
    # the theorem instance is direction-independent here
    report = verify_main_theorem(flipped, degree=3)
    assert report["ok"]


def test_verify_main_theorem_weyl_and_J_flags(monkeypatch):
    analysis = CATALOG["group-sl2"].build()
    flags = verify_main_theorem(analysis, degree=2)["flags"]
    assert flags["weyl_invariance"] is True
    assert flags["image_in_J"] is True
    # images plus a, which the Weyl reflection a -> -a moves
    hc_gamma = analysis.ctx.hc_gamma
    monkeypatch.setattr(analysis.ctx, "hc_gamma",
                        lambda v: hc_gamma(v) + APoly.variable(1, 0))
    flags = verify_main_theorem(analysis, degree=2)["flags"]
    assert flags["weyl_invariance"] is False
    assert flags["image_in_J"] is False


def test_built_analysis_reports_carry_the_entry_name():
    analysis = CATALOG["group-sl2"].build()
    assert analysis.name == "group-sl2"
    assert verify_main_theorem(analysis, degree=1)["entry"] == "group-sl2"
    flipped = CATALOG["rank1-iso-q1"].build(direction=(Q(-1), Q(0)))
    assert flipped.name == "rank1-iso-q1"


def _scalar_leaves(x):
    """Every number held by x, walking containers and the package's value
    types; a type the walk does not know fails loudly."""
    if x is None or isinstance(x, str):
        return
    if isinstance(x, numbers.Number):
        yield x
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _scalar_leaves(k)
            yield from _scalar_leaves(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _scalar_leaves(v)
    elif isinstance(x, SuperVector):
        yield from _scalar_leaves(x.c)
    elif isinstance(x, ScalarMatrix):
        yield from _scalar_leaves(x.rows)
    elif isinstance(x, APoly):
        yield from _scalar_leaves(x.terms)
    elif isinstance(x, Substitution):
        yield from _scalar_leaves(x.images)
        yield from _scalar_leaves(x._table)
    else:
        raise TypeError(f"no walk for {type(x).__name__}")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_no_float_reaches_an_analysis(name):
    # ints flow where Fractions did, and an int divided by an int is a
    # float: every scalar an analysis holds after a verify is exact
    an = CATALOG[name].build()
    verify_main_theorem(an)
    ctx, g, system = an.ctx, an.pair.g, an.system
    held = {
        "roots": [(r.lam, r.space0, r.space1) for r in system.roots],
        "m": system.m_basis,
        "direction": system.direction,
        "pair": (an.pair.k_basis, an.pair.p_basis, an.pair.a_basis,
                 an.pair.a_gram),
        "rho": ctx.rho_triple,
        "rho_shift": ctx.rho_shift,
        "weyl": (an.weyl.elements, an.weyl.generators,
                 an.weyl.generator_substitutions),
        "odd roots": [(d.lam, d.key, d.c, d.A_coords, d.a_coords,
                       d.h0_coords, d.a_perp, d.coordinate_change)
                      for d in an.data],
        "form": g.form,
        "theta": g.theta,
        "brackets": [(alg.brackets, alg._table)
                     for alg in (g, ctx.adapted)],
        "letters": ctx._letters,
        "images": [ctx.hc_gamma(v) for v in
                   invariants_up_to_degree(ctx, an.default_degree).invariants],
    }
    for part, value in held.items():
        kinds = {type(x) for x in _scalar_leaves(value)}
        assert kinds <= {int, Q}, (part, kinds)
    assert held["images"] and held["letters"]


@pytest.mark.parametrize("name", ["group-sl2", "rank1-aniso-q1"])
def test_multiplicativity_sample_catches_a_planted_product_term(
        monkeypatch, name):
    an = CATALOG[name].build()
    assert verify_main_theorem(an)["flags"]["multiplicativity_sample"]
    product = an.ctx.project_product_to_a
    extra = APoly.variable(an.rank, 0)
    monkeypatch.setattr(an.ctx, "project_product_to_a",
                        lambda u, v: product(u, v) + extra)
    assert verify_main_theorem(an)["flags"]["multiplicativity_sample"] \
        is False


@pytest.mark.parametrize("name", ["group-sl2", "rank1-aniso-q1"])
def test_multiplicativity_sample_catches_a_planted_invariant_term(
        monkeypatch, name):
    an = CATALOG[name].build()
    invariants = invariants_up_to_degree(an.ctx, an.default_degree).invariants
    # the first invariant the seed-0 sample draws
    target = invariants[random.Random(0).randrange(len(invariants))]
    project = an.ctx.project_to_a
    extra = APoly.variable(an.rank, 0)
    monkeypatch.setattr(an.ctx, "project_to_a", lambda u: project(u) + extra
                        if u == target else project(u))
    assert verify_main_theorem(an, seed=0)["flags"][
        "multiplicativity_sample"] is False
