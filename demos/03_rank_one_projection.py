"""The rho-shifted projection on a rank-one model, exactly.

Synthesises the anisotropic model for one odd root (q = 1), builds its
invariant generators, and projects: the even generator lands on
a^2 + 2qa before the shift and on a^2 - q^2 after it.  The odd generator's
image is the anticenter-type product a(a^2 - 1)...(a^2 - q^2); the degree-3
difference from (a - q)(a^2 - q^2)^q is itself the even generator's image,
so both describe the same ring here.
"""

from fractions import Fraction as Q

from superhc import (ANISOTROPIC, build_rank_one_model, generators,
                     restricted_roots, rho)
from superhc.harish import IwasawaContext


def main():
    q = 1
    model = build_rank_one_model(q, ANISOTROPIC, Q(1))
    g = model.algebra
    print(f"rank-one anisotropic model, q = {q}: dim {g.dim}")
    print("basis:", ", ".join(g.names))

    system = restricted_roots(model.pair)
    print("\nroots:", [(str(r.lam[0]), r.m0, r.m1) for r in system.roots])
    print("rho =", rho(system)[0][0], "(equals -q times the odd root)")

    ctx = IwasawaContext(model.pair, system)
    p2, p3 = generators(model)

    def name_mono(m):
        return "*".join(g.names[i] for i in m) or "1"

    print("\ninvariant generators of S(p)^k:")
    print("  P2 =", " + ".join(f"({c}){name_mono(m)}" for m, c in p2.items()))
    print("  P3 =", " + ".join(f"({c}){name_mono(m)}" for m, c in p3.items()))

    b2 = ctx.beta_from_g(p2)
    print("\nprojection of beta(P2) onto U(a):", ctx.project_to_a(b2).pretty(["a"]))
    print("after the rho shift:              ", ctx.hc_gamma(b2).pretty(["a"]))
    print("image of beta(P3):                ",
          ctx.hc_gamma(ctx.beta_from_g(p3)).pretty(["a"]))

    # the homomorphism property on the non-invariant element a * beta(P2)
    aL2 = ctx.uea.multiply(ctx.word([g.basis("a")]), b2)
    print("\nprojection is multiplicative against invariants:")
    print("  Gamma(a * beta(P2)) =", ctx.hc_gamma(aL2).pretty(["a"]))
    print("  Gamma(a)*Gamma(P2)  =",
          (ctx.hc_gamma(ctx.word([g.basis('a')])) * ctx.hc_gamma(b2)).pretty(["a"]))


if __name__ == "__main__":
    main()
