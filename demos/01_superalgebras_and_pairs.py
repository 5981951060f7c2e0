"""Superalgebras by structure constants, validated, and a symmetric pair.

Builds osp(1|2) from explicit matrices, checks every axiom, doubles it into
a group-type pair and reads off the restricted roots, multiplicities and
the rho shift.
"""

from fractions import Fraction as Q

from superhc import (build_pair, double_with_flip, even_weyl_group,
                     iwasawa_check, osp12, restricted_roots, rho,
                     theta_eigenspaces, verify_algebra)


def main():
    g0 = osp12()
    print(f"osp(1|2): dim {g0.dim}, basis {', '.join(g0.names)}")
    print(f"axiom violations: {len(verify_algebra(g0))}")

    g = double_with_flip(g0)
    k, p = theta_eigenspaces(g)
    print(f"\ndoubled with the flip: dim {g.dim}, dim k = {len(k)}, "
          f"dim p = {len(p)}")

    pair = build_pair(g, [g.vector({"h.l": Q(1), "h.r": Q(-1)})])
    system = restricted_roots(pair)
    print("\nrestricted roots (lambda(H), even mult, odd mult):")
    for root in system.roots:
        print(f"  {str(root.lam[0]):>4}   m0 = {root.m0}   m1 = {root.m1}")
    print(f"dim m = {len(system.m_basis)} (the centraliser of a in k)")

    r, r0, r1 = rho(system)
    print(f"\npositive roots: {[str(x.lam[0]) for x in system.positive_roots()]}")
    print(f"rho = {r[0]}  (rho0 = {r0[0]}, rho1 = {r1[0]}; "
          "cross-checked against the supertrace on n)")
    print(f"even Weyl group order: {len(even_weyl_group(system))}")

    report = iwasawa_check(pair, system)
    print(f"\nIwasawa checks g = k + a + n: ok = {report['ok']}, "
          f"dims {report['dims']}")


if __name__ == "__main__":
    main()
