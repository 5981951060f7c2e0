"""PBW calculus: normal forms, products, supersymmetrisation and Hopf maps.

Elements of U(g) are sparse dicts mapping PBW monomials (weakly increasing
index tuples, odd indices distinct) to scalars.  Elements of S(g) use the
same encoding but multiply supercommutatively.  The straightening rule is

    x y = (-1)^{|x||y|} y x + [x, y]        (x > y in the basis order)
    xi xi = (1/2) [xi, xi]                  (xi odd)

applied at the leftmost violation; two-sided memoisation makes repeated
products cheap.  With N < A < K blocks, project_word applies the same rule
but drops every word that cannot reach the pure-A part.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .liesuper import LieSuperalgebra, MixedAlgebras, SuperVector
from .linalg import accumulate

Q = Fraction
# shared by every straightening step; Fractions are immutable
_ONE, _MINUS_ONE, _HALF = Q(1), Q(-1), Q(1, 2)

Monomial = Tuple[int, ...]
UEAElement = Dict[Monomial, object]
SymElement = Dict[Monomial, object]
TensorElement = Dict[Tuple[Monomial, Monomial], object]


class OrderNotIwasawa(Exception):
    """An Iwasawa block projection was requested without N<A<K blocks."""


def scale(u: dict, coeff) -> dict:
    if not coeff:
        return {}
    return {k: coeff * v for k, v in u.items()}


def add(u: dict, v: dict) -> dict:
    out = dict(u)
    accumulate(out, v)
    return out


class UEA:
    """The enveloping algebra of a fixed algebra in a fixed basis order.

    blocks, when given, tags every index as 'N', 'A' or 'K' and must list
    all N indices before all A indices before all K indices; this is the
    order in which the pure-A part of an element is its image modulo
    n U(g) + U(g) k.
    """

    def __init__(self, alg: LieSuperalgebra, blocks: Optional[Sequence[str]] = None):
        # all operations are pure; the only mutable state is the normal-form
        # and projection memos, which tolerate concurrent reads with a single
        # writer (use one UEA per thread otherwise)
        self.alg = alg
        self.parity = alg.parity
        self.dim = alg.dim
        self.blocks = tuple(blocks) if blocks is not None else None
        if self.blocks is not None:
            if len(self.blocks) != self.dim:
                raise ValueError("blocks must tag every basis index")
            order = {"N": 0, "A": 1, "K": 2}
            tags = [order.get(t) for t in self.blocks]
            if None in tags or tags != sorted(tags):
                raise OrderNotIwasawa("blocks must be N* A* K* in basis order")
            self._lo_a = self.blocks.count("N")
            self._lo_k = self._lo_a + self.blocks.count("A")
        self._memo: Dict[Monomial, UEAElement] = {}
        self._proj_memo: Dict[Monomial, UEAElement] = {}

    # -- basics -------------------------------------------------------------
    def mono_parity(self, m: Monomial) -> int:
        return sum(self.parity[i] for i in m) % 2

    def one(self) -> UEAElement:
        return {(): Q(1)}

    def generator(self, key) -> UEAElement:
        i = key if isinstance(key, int) else self.alg.index(key)
        return {(i,): Q(1)}

    def from_vector(self, x: SuperVector) -> UEAElement:
        if x.alg is not self.alg:
            raise MixedAlgebras("vector from another algebra")
        return {(i,): c for i, c in x.c.items()}

    # -- straightening ------------------------------------------------------
    def _rewrite(self, word: Monomial, strategy: str = "leftmost"
                 ) -> Optional[List[Tuple[Monomial, object]]]:
        """One straightening step at the first violation the strategy meets.

        Returns the words, with coefficients, that sum to word in U(g), or
        None when word is already a PBW monomial.
        """
        par = self.parity
        n = len(word)
        idx = range(n - 1) if strategy == "leftmost" else range(n - 2, -1, -1)
        for pos in idx:
            a, b = word[pos], word[pos + 1]
            if a > b or (a == b and par[a]):
                break
        else:
            return None
        head, tail = word[:pos], word[pos + 2:]
        if a == b:
            return [(head + (k,) + tail, _HALF * c)
                    for k, c in self.alg.bracket_indices(a, a).items()]
        out = [(head + (b, a) + tail,
                _MINUS_ONE if par[a] and par[b] else _ONE)]
        out.extend((head + (k,) + tail, c)
                   for k, c in self.alg.bracket_indices(a, b).items())
        return out

    def normal_form_word(self, word: Iterable[int], strategy: str = "leftmost"
                         ) -> UEAElement:
        word = tuple(word)
        memo = strategy == "leftmost"
        if memo:
            hit = self._memo.get(word)
            if hit is not None:
                return hit
        steps = self._rewrite(word, strategy)
        if steps is None:
            res: UEAElement = {word: _ONE}
        else:
            res = {}
            for w, c in steps:
                accumulate(res, self.normal_form_word(w, strategy), c)
        if memo:
            self._memo[word] = res
        return res

    def project_word(self, word: Iterable[int]) -> UEAElement:
        """The pure-A part of normal_form_word(word), straightening only what
        can reach it.

        In the order N < A < K a word whose first letter is in N lies in
        n U(g), and one whose last letter is in K lies in U(g) k; both project
        to 0, so they are dropped at every step, and a PBW monomial that is
        not dropped is pure A.
        """
        if self.blocks is None:
            raise OrderNotIwasawa("projection needs N<A<K blocks")
        word = tuple(word)
        hit = self._proj_memo.get(word)
        if hit is not None:
            return hit
        if word and (word[0] < self._lo_a or word[-1] >= self._lo_k):
            res: UEAElement = {}
        else:
            steps = self._rewrite(word)
            if steps is None:
                res = {word: _ONE}
            else:
                res = {}
                for w, c in steps:
                    accumulate(res, self.project_word(w), c)
        self._proj_memo[word] = res
        return res

    def normal_form(self, factors: Sequence[SuperVector]) -> UEAElement:
        """Normal form of a product of algebra elements (a 'word' of vectors)."""
        out = self.one()
        for x in factors:
            out = self.multiply(out, self.from_vector(x))
        return out

    def multiply(self, u: UEAElement, v: UEAElement) -> UEAElement:
        acc: UEAElement = {}
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                accumulate(acc, self.normal_form_word(m1 + m2), c1 * c2)
        return acc

    def power(self, u: UEAElement, n: int) -> UEAElement:
        out = self.one()
        for _ in range(n):
            out = self.multiply(out, u)
        return out

    # -- adjoint action -----------------------------------------------------
    def adjoint_index(self, i: int, u: UEAElement) -> UEAElement:
        acc: UEAElement = {}
        pi = self.parity[i]
        for m, c in u.items():
            accumulate(acc, self.normal_form_word((i,) + m), c)
            sign = Q(-1) if pi and self.mono_parity(m) else Q(1)
            accumulate(acc, self.normal_form_word(m + (i,)), -sign * c)
        return acc

    def adjoint(self, x: SuperVector, u: UEAElement) -> UEAElement:
        if x.alg is not self.alg:
            raise MixedAlgebras("adjoint by a vector from another algebra")
        if x.parity is None and x.c:
            raise ValueError("adjoint needs a homogeneous vector")
        acc: UEAElement = {}
        for i, c in x.c.items():
            accumulate(acc, self.adjoint_index(i, u), c)
        return acc

    # -- supersymmetrisation ------------------------------------------------
    def beta(self, p: SymElement) -> UEAElement:
        """The PBW section of S(g) -> U(g): Koszul-averaged products."""
        return supersymmetrise(self, p, self.parity, self.generator)

    # -- Hopf structure -----------------------------------------------------
    def tensor_multiply(self, t1: TensorElement, t2: TensorElement) -> TensorElement:
        acc: TensorElement = {}
        for (a, b), c1 in t1.items():
            pb = self.mono_parity(b)
            for (x, y), c2 in t2.items():
                sign = Q(-1) if pb and self.mono_parity(x) else Q(1)
                left = self.normal_form_word(a + x)
                right = self.normal_form_word(b + y)
                c = sign * c1 * c2
                for ml, cl in left.items():
                    for mr, cr in right.items():
                        v = acc.get((ml, mr), Q(0)) + c * cl * cr
                        if v:
                            acc[(ml, mr)] = v
                        elif (ml, mr) in acc:
                            del acc[(ml, mr)]
        return acc

    def coproduct(self, u: UEAElement) -> TensorElement:
        acc: TensorElement = {}
        for m, c in u.items():
            t: TensorElement = {((), ()): Q(1)}
            for i in m:
                prim: TensorElement = {((i,), ()): Q(1), ((), (i,)): Q(1)}
                t = self.tensor_multiply(t, prim)
            accumulate(acc, t, c)
        return acc

    def antipode(self, u: UEAElement) -> UEAElement:
        acc: UEAElement = {}
        for m, c in u.items():
            n = len(m)
            k = sum(self.parity[i] for i in m)
            sign = Q(-1) if (n + k * (k - 1) // 2) % 2 else Q(1)
            accumulate(acc, self.normal_form_word(tuple(reversed(m))), sign * c)
        return acc

    def counit(self, u: UEAElement):
        return u.get((), Q(0))

    def mult_tensor(self, t: TensorElement) -> UEAElement:
        """Multiplication map U(g) (x) U(g) -> U(g) (no extra sign)."""
        acc: UEAElement = {}
        for (a, b), c in t.items():
            accumulate(acc, self.normal_form_word(a + b), c)
        return acc

    def antipode_axiom_defect(self, u: UEAElement) -> UEAElement:
        """mu (S (x) id) Delta(u) - counit(u) 1; zero iff the axiom holds."""
        t = self.coproduct(u)
        applied: TensorElement = {}
        for (a, b), c in t.items():
            for ma, ca in self.antipode({a: Q(1)}).items():
                v = applied.get((ma, b), Q(0)) + c * ca
                if v:
                    applied[(ma, b)] = v
                elif (ma, b) in applied:
                    del applied[(ma, b)]
        out = self.mult_tensor(applied)
        accumulate(out, self.one(), -self.counit(u))
        return out

    # -- monomials ------------------------------------------------------------
    def monomials_up_to(self, d: int) -> List[Monomial]:
        """All PBW monomials of degree <= d, ordered by degree then lex."""
        par = self.parity
        dim = self.dim
        out: List[Monomial] = []

        def gen(prefix: Monomial, start: int, length: int):
            if length == 0:
                out.append(prefix)
                return
            for i in range(start, dim):
                gen(prefix + (i,), i + 1 if par[i] else i, length - 1)

        for length in range(d + 1):
            gen((), 0, length)
        return out

    def graded_piece(self, u: UEAElement, d: int) -> SymElement:
        """Image of the degree-d part of u in gr_d U(g) = S^d(g)."""
        return {m: c for m, c in u.items() if len(m) == d}


def supersymmetrise(uea: UEA, p: SymElement, parity: Sequence[int],
                    factor: Callable[[int], UEAElement]) -> UEAElement:
    """Koszul-averaged products of the letters of each monomial of p.

    factor(i) is the element of U(g) standing for letter i, of parity
    parity[i].  Only the distinct arrangements of a monomial's letters are
    walked: each stands for prod(mult!) of the n! permutations, all with the
    same Koszul sign (repeated letters are even, as odd squares vanish in
    S(g)), and arrangements sharing a prefix share its partial product.
    """
    acc: UEAElement = {}
    for m, c in p.items():
        counts = Counter(m)
        if any(parity[i] and k > 1 for i, k in counts.items()):
            continue  # an odd square: the signed orderings cancel
        weight = c * prod(map(factorial, counts.values())) / factorial(len(m))
        letters = sorted(counts)

        def walk(prefix: UEAElement, sign, todo: int, odd_left: List[int]):
            if not todo:
                accumulate(acc, prefix, sign * weight)
                return
            for i in letters:
                if not counts[i]:
                    continue
                counts[i] -= 1
                s, rest = sign, odd_left
                if parity[i]:
                    # i now precedes the odd letters still to be placed
                    # that came before it in m
                    pos = odd_left.index(i)
                    if pos % 2:
                        s = -s
                    rest = odd_left[:pos] + odd_left[pos + 1:]
                walk(uea.multiply(prefix, factor(i)), s, todo - 1, rest)
                counts[i] += 1

        walk(uea.one(), Q(1), len(m), [i for i in m if parity[i]])
    return acc


# -- the supercommutative algebra S(g) ---------------------------------------

def sort_with_koszul(parity: Sequence[int], letters: Sequence[int]):
    """Sort letters ascending, tracking the Koszul sign; None on odd square."""
    arr = list(letters)
    sign = Q(1)
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            if parity[arr[j - 1]] and parity[arr[j]]:
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    for t in range(len(arr) - 1):
        if arr[t] == arr[t + 1] and parity[arr[t]]:
            return None, Q(0)
    return tuple(arr), sign


def sym_multiply(parity: Sequence[int], p: SymElement, q: SymElement) -> SymElement:
    acc: SymElement = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            merged, sign = sort_with_koszul(parity, m1 + m2)
            if merged is None:
                continue
            v = acc.get(merged, Q(0)) + sign * c1 * c2
            if v:
                acc[merged] = v
            elif merged in acc:
                del acc[merged]
    return acc


def sym_power(parity: Sequence[int], p: SymElement, n: int) -> SymElement:
    out: SymElement = {(): Q(1)}
    for _ in range(n):
        out = sym_multiply(parity, out, p)
    return out


def sym_adjoint_index(alg: LieSuperalgebra, i: int, p: SymElement) -> SymElement:
    """ad(e_i) acting on S(g) as a graded derivation."""
    acc: SymElement = {}
    par = alg.parity
    pi = par[i]
    for m, c in p.items():
        seen = 0
        for slot, letter in enumerate(m):
            sign = Q(-1) if pi and (seen % 2) else Q(1)
            out = alg.bracket_indices(i, letter)
            for k, v in out.items():
                merged, s2 = sort_with_koszul(par, m[:slot] + (k,) + m[slot + 1:])
                if merged is None:
                    continue
                w = acc.get(merged, Q(0)) + sign * s2 * c * v
                if w:
                    acc[merged] = w
                elif merged in acc:
                    del acc[merged]
            seen += par[letter]
    return acc


def sym_adjoint(alg: LieSuperalgebra, x: SuperVector, p: SymElement) -> SymElement:
    acc: SymElement = {}
    for i, c in x.c.items():
        accumulate(acc, sym_adjoint_index(alg, i, p), c)
    return acc


def sym_monomials_up_to(parity: Sequence[int], indices: Sequence[int], d: int
                        ) -> List[Monomial]:
    """Supercommutative monomials of degree <= d in the given generators."""
    out: List[Monomial] = []

    def gen(prefix: Monomial, start: int, length: int):
        if length == 0:
            out.append(prefix)
            return
        for pos in range(start, len(indices)):
            i = indices[pos]
            gen(prefix + (i,), pos + 1 if parity[i] else pos, length - 1)

    for length in range(d + 1):
        gen((), 0, length)
    return out
