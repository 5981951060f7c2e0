"""Built-in desk-scale pairs and the end-to-end Main Theorem verifier.

Each catalog entry assembles a validated symmetric pair, its root data, the
Iwasawa-adapted enveloping algebra and the odd-root membership data.  The
verifier fills a per-degree dimension table and the theorem flags: image
dimensions match the invariant ring, images pass membership, the companion
(right ideal) part of the invariants maps to zero.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence

from . import builders
from .harish import (InvariantBasis, IwasawaContext, invariants_up_to_degree,
                     verify_exact_sequence)
from .linalg import rank as matrix_rank
from .linalg import ScalarMatrix, linear_solver, span_basis
from .liesuper import LieSuperalgebra, SuperVector, centralizer
from .pairs import (PairError, SymmetricPair, build_pair,
                    centralizer_formula_holds, choose_positive_system,
                    even_weyl_group, restricted_roots, rho)
from .rings import (ANISOTROPIC, ISOTROPIC, RankOneModel, build_rank_one_model,
                    filtered_dimension, odd_root_data)
from .scalars import scalar_to_string

Q = Fraction


class NotEvenType(Exception):
    pass


class NoCertificate(Exception):
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
    dense = [v.dense() for v in all_vecs]
    if len(span_basis(dense)) != len(all_vecs) or len(all_vecs) != g.dim:
        raise NoCertificate("declared decomposition is not a direct sum basis")
    for ideal in ideals:
        solve = linear_solver([v.dense() for v in ideal])
        for x in basis:
            for v in ideal:
                try:
                    solve(g.bracket(x, v).dense())
                except ValueError:
                    raise NoCertificate("declared ideal is not an ideal") from None
        if g.form is not None:
            gram = ScalarMatrix.from_rows(
                [[g.b(u, v) for v in ideal] for u in ideal])
            if matrix_rank(gram) != len(ideal):
                raise NoCertificate("form degenerates on a declared ideal")


def group_type_pair(g0: LieSuperalgebra, cartan_names: Sequence[str]
                    ) -> SymmetricPair:
    """(g0 + g0, flip) with a the antidiagonal of an even Cartan subalgebra."""
    cartan = [g0.basis(n) for n in cartan_names]
    zc = centralizer(g0, cartan, g0.basis_vectors())
    if len(zc) != len(cartan):
        raise NotEvenType(
            f"centraliser of the Cartan subalgebra has dimension {len(zc)}")
    g = builders.double_with_flip(g0)
    verify_certificate(g)
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
    entry name that reports of this analysis carry.
    """

    def __init__(self, pair: SymmetricPair, direction: Optional[Sequence] = None,
                 a_names: Optional[Sequence[str]] = None,
                 model: Optional[RankOneModel] = None, name: str = "explicit"):
        self.pair = pair
        self.model = model
        self.name = name
        self.system = restricted_roots(pair)
        choose_positive_system(self.system, direction)
        self.rho_triple = rho(self.system)
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
                 build: Callable[[], Analysis]):
        self.name = name
        self.description = description
        self.default_degree = default_degree
        self._build = build

    def build(self, direction: Optional[Sequence] = None) -> Analysis:
        analysis = self._build()
        if direction is not None:
            analysis = Analysis(analysis.pair, direction, analysis.a_names,
                                analysis.model)
        analysis.name = self.name
        return analysis


def _rank_one_entry(q: int, iso: str) -> Callable[[], Analysis]:
    def build() -> Analysis:
        model = build_rank_one_model(q, iso, Q(0) if iso == ISOTROPIC else Q(1))
        names = ["h0", "Al"] if iso == ISOTROPIC else ["a"]
        return Analysis(model.pair, a_names=names, model=model)
    return build


def _group_entry(maker: Callable[[], LieSuperalgebra], cartan: Sequence[str]
                 ) -> Callable[[], Analysis]:
    def build() -> Analysis:
        pair = group_type_pair(maker(), cartan)
        return Analysis(pair)
    return build


CATALOG: Dict[str, CatalogEntry] = {}
for entry in [
    CatalogEntry("rank1-aniso-q1",
                 "rank-one model, anisotropic odd root, q=1, c=1",
                 3, _rank_one_entry(1, ANISOTROPIC)),
    CatalogEntry("rank1-aniso-q2",
                 "rank-one model, anisotropic odd root, q=2, c=1",
                 3, _rank_one_entry(2, ANISOTROPIC)),
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


def roots_report(analysis: Analysis, entry_name: str = "") -> dict:
    system = analysis.system
    pair = analysis.pair
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
            norm = pair.dual_pairing(root.lam, root.lam)
            row["isotropy"] = ISOTROPIC if norm == 0 else ANISOTROPIC
            row["q"] = root.m1 // 2
            # the datum lives at the positive member of {lam, -lam}
            datum = data_by_lam.get(root.lam) \
                or data_by_lam.get(tuple(-x for x in root.lam))
            row["gated"] = datum.gated if datum is not None else None
        roots.append(row)
    rho_t = analysis.rho_triple
    return {
        "entry": entry_name,
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
            v = v + w.scale(Q(rng.randint(-3, 3)))
    return v


def centdim_check(analysis: Analysis, rng: random.Random, samples: int = 20) -> bool:
    for _ in range(samples):
        if not centralizer_formula_holds(analysis.pair,
                                         random_p0_vector(analysis, rng)):
            return False
    return True


def multiplicativity_check(analysis: Analysis, basis: InvariantBasis,
                           rng: random.Random, pairs: int) -> bool:
    """Gamma(D D') = Gamma(D) Gamma(D') on sampled invariant pairs."""
    ctx = analysis.ctx
    if not basis.invariants:
        return True
    for _ in range(pairs):
        u = basis.invariants[rng.randrange(len(basis.invariants))]
        v = basis.invariants[rng.randrange(len(basis.invariants))]
        if ctx.gamma_of_product(u, v) != ctx.hc_gamma(u) * ctx.hc_gamma(v):
            return False
    return True


def verify_main_theorem(entry, degree: Optional[int] = None,
                        direction: Optional[Sequence] = None,
                        seed: int = 0, sample_pairs: int = 5) -> dict:
    """Run the full pipeline and fill the per-degree verification report."""
    t0 = time.monotonic()
    if isinstance(entry, str):
        entry = CATALOG[entry]
    if isinstance(entry, CatalogEntry):
        if degree is None:
            degree = entry.default_degree
        analysis = entry.build(direction)
    else:
        analysis = entry
        if degree is None:
            degree = 3
    weyl = analysis.weyl
    data = analysis.data
    r = analysis.rank
    basis = invariants_up_to_degree(analysis.ctx, degree)
    seq = verify_exact_sequence(analysis.ctx, degree, basis, weyl, data)
    rows = seq["rows"]
    for row in rows:
        d = row["degree"]
        row.update({
            "dim_J": filtered_dimension("J", data, weyl, r, d),
            "dim_I": filtered_dimension("I", data, weyl, r, d),
            "dim_I_noweyl": filtered_dimension("I", data, weyl, r, d,
                                               include_weyl=False),
            "dim_SW0": filtered_dimension("SW0", data, weyl, r, d),
        })

    rng = random.Random(seed)
    mult_ok = multiplicativity_check(analysis, basis, rng, sample_pairs)
    cent_ok = centdim_check(analysis, rng, samples=5)

    report = {
        "entry": analysis.name,
        "degree": degree,
        "seed": seed,
        "rows": rows,
        "flags": {
            "weyl_invariance": seq["weyl_invariant"],
            "image_in_J": seq["in_J"],
            "kernel_vanishes": seq["kernel_maps_to_zero"],
            "dims_match": rows[-1]["dim_image"] == rows[-1]["dim_J"],
            "dims_consistent": seq["dims_consistent"],
            "multiplicativity_sample": mult_ok,
            "centralizer_dimension_formula": cent_ok,
        },
        "gated_roots": [
            [str(x) for x in d.lam] for d in data if d.gated],
        "timing_seconds": time.monotonic() - t0,
    }
    report["ok"] = all(report["flags"].values())
    return report
