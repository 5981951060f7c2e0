"""PBW straightening, supersymmetrisation and the adjoint action on U(osp(1|2)).

Everything is exact: odd squares halve into brackets, and ad(x) acts on
products as a graded derivation, with the Koszul sign when x passes an odd
factor.
"""

import random
from fractions import Fraction as Q

from superhc import UEA, osp12
from superhc.pbw import accumulate


def show(uea, elem):
    g = uea.alg
    if not elem:
        return "0"
    bits = []
    for m in sorted(elem, key=lambda m: (len(m), m)):
        word = "*".join(g.names[i] for i in m) or "1"
        bits.append(f"({elem[m]})*{word}")
    return " + ".join(bits)


def main():
    g = osp12()
    u = UEA(g)
    ix, iy, ih = g.index("x"), g.index("y"), g.index("h")

    print("straightening the out-of-order word y*x:")
    print("  y*x =", show(u, u.normal_form_word((iy, ix))))

    print("\nthe odd square x*x halves into a bracket:")
    print("  x*x =", show(u, u.normal_form_word((ix, ix))))

    print("\nsupersymmetrisation of the S(g) monomial x y:")
    print("  beta(xy) =", show(u, u.beta({(ix, iy): Q(1)})))

    print("\nad(x) on the odd generator y and on the word y*y:")
    print("  ad(x)(y) =", show(u, u.adjoint_index(ix, u.generator(iy))))
    print("  ad(x)(y*y) =", show(u, u.adjoint_index(ix, u.normal_form_word((iy, iy)))))

    ie, i_f = g.index("e"), g.index("f")
    # a and b mix even and odd monomials, so the sign matters
    a, b = {}, {}
    accumulate(a, u.normal_form_word((ih, iy)))
    accumulate(a, u.generator(ie))
    accumulate(b, u.normal_form_word((iy, i_f)))
    accumulate(b, u.generator(ix), Q(2))

    # ad(x)(ab) = ad(x)(a) b + (-1)^{|x||a|} a ad(x)(b), a split by parity
    defect = u.adjoint_index(ix, u.multiply(a, b))
    accumulate(defect, u.multiply(u.adjoint_index(ix, a), b), Q(-1))
    for m, c in a.items():
        sign = Q(-1) if sum(u.parity[t] for t in m) % 2 else Q(1)
        accumulate(defect, u.multiply({m: c}, u.adjoint_index(ix, b)), -sign)
    print("\ngraded Leibniz rule for ad(x) on a product a*b:")
    print("  a =", show(u, a))
    print("  b =", show(u, b))
    print("  defect =", show(u, defect))

    rng = random.Random(1)
    words = [tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 5)))
             for _ in range(200)]
    print("\nassociativity: on 200 words, split anywhere, the product of the"
          " two parts' normal forms is the word's normal form:",
          all(u.multiply(u.normal_form_word(w[:j]), u.normal_form_word(w[j:]))
              == u.normal_form_word(w)
              for w in words for j in range(len(w) + 1)))


if __name__ == "__main__":
    main()
