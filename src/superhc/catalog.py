"""Built-in desk-scale pairs and the end-to-end Main Theorem verifier.

Each catalog entry assembles a validated symmetric pair, its root data, the
Iwasawa-adapted enveloping algebra and the odd-root membership data.  The
verifier fills a per-degree dimension table and the theorem flags: image
dimensions match the invariant ring, images pass membership, the companion
(right ideal) part of the invariants maps to zero.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence

from . import builders
from .apoly import APoly
from .harish import (InvariantBasis, IwasawaContext, invariants_up_to_degree,
                     verify_exact_sequence)
from .linalg import linear_solver, rank as matrix_rank
from .liesuper import LieSuperalgebra, SuperVector, centralizer_dimension
from .pairs import (PairError, SymmetricPair, build_pair,
                    centralizer_formula_holds, even_weyl_group,
                    restricted_roots)
from .rings import (ANISOTROPIC, ISOTROPIC, RankOneModel, build_rank_one_model,
                    membership_J, odd_root_data, ring_conditions,
                    ring_degrees)
from .scalars import scalar_to_string

Q = Fraction

SAMPLES = 5  # draws of each randomized check in verify_main_theorem


class NotEvenType(ValueError):
    pass


class NoCertificate(ValueError):
    pass


def verify_certificate(g: LieSuperalgebra) -> None:
    """Check the declared strong-reductivity decomposition; raise if invalid."""
    dec = g.decomposition
    if dec is None:
        raise NoCertificate("algebra carries no declared decomposition")
    center, ideals = dec["center"], dec["ideals"]
    basis = g.basis_vectors()
    for v in center:
        for x in basis:
            if g.bracket(x, v):
                raise NoCertificate("declared central element is not central")
    all_vecs = list(center) + [v for ideal in ideals for v in ideal]
    if matrix_rank(v.c for v in all_vecs) != len(all_vecs) \
            or len(all_vecs) != g.dim:
        raise NoCertificate("declared decomposition is not a direct sum basis")
    for ideal in ideals:
        solve = linear_solver([v.c for v in ideal])
        for x in basis:
            for v in ideal:
                try:
                    solve(g.bracket(x, v).c)
                except ValueError:
                    raise NoCertificate("declared ideal is not an ideal") from None
        if g.form is not None:
            gram = ({j: g.b(u, v) for j, v in enumerate(ideal)} for u in ideal)
            if matrix_rank(gram) != len(ideal):
                raise NoCertificate("form degenerates on a declared ideal")


def group_type_pair(g0: LieSuperalgebra, cartan_names: Sequence[str]
                    ) -> SymmetricPair:
    """(g0 + g0, flip) with a the antidiagonal of an even Cartan subalgebra."""
    cartan = [g0.basis(n) for n in cartan_names]
    dim_zc = centralizer_dimension(g0, cartan, g0.basis_vectors())
    if dim_zc != len(cartan):
        raise NotEvenType(
            f"centraliser of the Cartan subalgebra has dimension {dim_zc}")
    # the doubled algebra's certificate is two copies of g0's
    verify_certificate(g0)
    g = builders.double_with_flip(g0)
    n0 = g0.dim
    a_vectors = []
    for h in cartan:
        coeffs = dict(h.c)
        coeffs.update({i + n0: -x for i, x in h.c.items()})
        a_vectors.append(SuperVector(g, coeffs))
    try:
        return build_pair(g, a_vectors)
    except PairError as exc:
        raise NotEvenType(str(exc)) from exc


class Analysis:
    """A pair with all derived data: roots, rho, Weyl group, U(g), membership.

    model is the rank-one model the pair was built from, if any; name is the
    entry name that reports of this analysis carry, and default_degree the
    degree its reports take when none is asked.
    """

    def __init__(self, pair: SymmetricPair, direction: Optional[Sequence] = None,
                 a_names: Optional[Sequence[str]] = None,
                 model: Optional[RankOneModel] = None, name: str = "explicit",
                 default_degree: int = 3):
        self.pair = pair
        self.model = model
        self.name = name
        self.default_degree = default_degree
        self.system = restricted_roots(pair, direction)
        self.weyl = even_weyl_group(self.system)
        self.ctx = IwasawaContext(pair, self.system)
        self.data = odd_root_data(self.system)
        self.a_names = list(a_names) if a_names is not None \
            else [f"a{i}" for i in range(pair.rank)]

    @property
    def rank(self) -> int:
        return self.pair.rank


class CatalogEntry:
    def __init__(self, name: str, description: str, default_degree: int,
                 build: Callable[[Optional[Sequence]], Analysis]):
        self.name = name
        self.description = description
        self.default_degree = default_degree
        self._build = build

    def build(self, direction: Optional[Sequence] = None) -> Analysis:
        analysis = self._build(direction)
        analysis.name = self.name
        analysis.default_degree = self.default_degree
        return analysis


def _rank_one_entry(q: int, iso: str) -> Callable[[Optional[Sequence]], Analysis]:
    def build(direction: Optional[Sequence]) -> Analysis:
        model = build_rank_one_model(q, iso, Q(0) if iso == ISOTROPIC else Q(1))
        names = ["h0", "Al"] if iso == ISOTROPIC else ["a"]
        return Analysis(model.pair, direction, a_names=names, model=model)
    return build


def _group_entry(maker: Callable[[], LieSuperalgebra], cartan: Sequence[str]
                 ) -> Callable[[Optional[Sequence]], Analysis]:
    def build(direction: Optional[Sequence]) -> Analysis:
        return Analysis(group_type_pair(maker(), cartan), direction)
    return build


CATALOG: Dict[str, CatalogEntry] = {}
for entry in [
    CatalogEntry("rank1-aniso-q1",
                 "rank-one model, anisotropic odd root, q=1, c=1",
                 3, _rank_one_entry(1, ANISOTROPIC)),
    CatalogEntry("rank1-aniso-q2",
                 "rank-one model, anisotropic odd root, q=2, c=1",
                 3, _rank_one_entry(2, ANISOTROPIC)),
    CatalogEntry("rank1-aniso-q3",
                 "rank-one model, anisotropic odd root, q=3, c=1",
                 3, _rank_one_entry(3, ANISOTROPIC)),
    CatalogEntry("rank1-iso-q1",
                 "rank-one model, isotropic odd root, q=1",
                 3, _rank_one_entry(1, ISOTROPIC)),
    CatalogEntry("group-sl2", "group type over sl(2)",
                 4, _group_entry(builders.sl2, ["h"])),
    CatalogEntry("group-osp12", "group type over osp(1|2)",
                 4, _group_entry(builders.osp12, ["h"])),
    CatalogEntry("group-gl12", "group type over gl(1|2)",
                 2, _group_entry(builders.gl12, ["E00", "E11", "E22"])),
]:
    CATALOG[entry.name] = entry


def roots_report(analysis: Analysis) -> dict:
    system = analysis.system
    data_by_lam = {d.lam: d for d in analysis.data}
    roots = []
    for root, pos in zip(system.roots, system.positive):
        row = {
            "lambda": [scalar_to_string(x) for x in root.lam],
            "m0": root.m0,
            "m1": root.m1,
            "positive": pos,
        }
        if root.m1 > 0:
            # the datum lives at the positive member of {lam, -lam}
            datum = data_by_lam.get(root.lam) \
                or data_by_lam[tuple(-x for x in root.lam)]
            row["isotropy"] = datum.iso_class
            row["q"] = datum.q
            row["gated"] = datum.gated
        roots.append(row)
    rho_t = analysis.ctx.rho_triple
    return {
        "entry": analysis.name,
        "a_basis": analysis.a_names,
        "direction": [scalar_to_string(x) for x in system.direction],
        "roots": roots,
        "rho": [scalar_to_string(x) for x in rho_t[0]],
        "rho0": [scalar_to_string(x) for x in rho_t[1]],
        "rho1": [scalar_to_string(x) for x in rho_t[2]],
        "dim_m": len(system.m_basis),
        "weyl_order": len(analysis.weyl),
    }


def random_p0_vector(analysis: Analysis, rng: random.Random) -> SuperVector:
    g = analysis.pair.g
    v = g.zero()
    for w in analysis.pair.p_basis:
        if w.parity == 0:
            v = v + w.scale(rng.randint(-3, 3))
    return v


def centdim_check(analysis: Analysis, rng: random.Random) -> bool:
    for _ in range(SAMPLES):
        if not centralizer_formula_holds(analysis.pair,
                                         random_p0_vector(analysis, rng)):
            return False
    return True


def multiplicativity_check(analysis: Analysis, basis: InvariantBasis,
                           rng: random.Random) -> bool:
    """Gamma(D D') = Gamma(D) Gamma(D') on sampled invariant pairs, checked
    on the pure-a parts before the rho shift: the shift is a translation, a
    ring automorphism of S(a), so it keeps a product exactly when the
    unshifted parts do."""
    ctx = analysis.ctx
    invariants = basis.invariants
    if not invariants:
        return True
    parts: Dict[int, APoly] = {}

    def part(s: int) -> APoly:
        if s not in parts:
            parts[s] = ctx.project_to_a(invariants[s])
        return parts[s]

    for _ in range(SAMPLES):
        s = rng.randrange(len(invariants))
        t = rng.randrange(len(invariants))
        if ctx.project_product_to_a(invariants[s], invariants[t]) \
                != part(s) * part(t):
            return False
    return True


def verify_main_theorem(entry, degree: Optional[int] = None,
                        seed: int = 0) -> dict:
    """Run the full pipeline and fill the per-degree verification report.

    entry is a catalog name or a built Analysis; degree defaults to the
    analysis's default degree.  Each ring column is read once at the top
    degree (rings.ring_degrees); its row at degree e counts the basis
    vectors of degree <= e.
    """
    analysis = CATALOG[entry].build() if isinstance(entry, str) else entry
    if degree is None:
        degree = analysis.default_degree
    weyl = analysis.weyl
    data = analysis.data
    r = analysis.rank
    basis = invariants_up_to_degree(analysis.ctx, degree)
    images = [analysis.ctx.hc_gamma(v) for v in basis.invariants]
    seq = verify_exact_sequence(analysis.ctx, basis, images)
    rows = seq["rows"]
    columns = {"dim_J": ("J", True), "dim_I": ("I", True),
               "dim_I_noweyl": ("I", False), "dim_SW0": ("SW0", True)}
    degrees = {col: ring_degrees(ring, data, weyl, r, degree, include_weyl)
               for col, (ring, include_weyl) in columns.items()}
    for row in rows:
        row.update({col: sum(1 for t in degs if t <= row["degree"])
                    for col, degs in degrees.items()})

    rng = random.Random(seed)
    mult_ok = multiplicativity_check(analysis, basis, rng)
    cent_ok = centdim_check(analysis, rng)

    report = {
        "entry": analysis.name,
        "degree": degree,
        "seed": seed,
        "rows": rows,
        "flags": {
            # invariance under the generators of W0 is invariance under W0
            "weyl_invariance": all(not ring_conditions(p, "SW0", data, weyl)
                                   for p in images),
            "image_in_J": all(membership_J(p, data, weyl) for p in images),
            "kernel_vanishes": seq["kernel_maps_to_zero"],
            # gr J = I(a) is filtered: every row, not just the top one
            "dims_match": all(row["dim_image"] == row["dim_J"] == row["dim_I"]
                              for row in rows),
            "dims_consistent": seq["dims_consistent"],
            "multiplicativity_sample": mult_ok,
            "centralizer_dimension_formula": cent_ok,
        },
        "gated_roots": [
            [str(x) for x in d.lam] for d in data if d.gated],
    }
    report["ok"] = all(report["flags"].values())
    return report
