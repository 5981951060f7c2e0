"""PBW calculus: normal forms, products and supersymmetrisation.

Elements of U(g) are sparse dicts mapping PBW monomials (weakly increasing
index tuples, odd indices distinct) to scalars.  Elements of S(g) use the
same encoding but multiply supercommutatively.  The straightening rule is

    x y = (-1)^{|x||y|} y x + [x, y]        (x > y in the basis order)
    xi xi = (1/2) [xi, xi]                  (xi odd)

applied by insertion.  Every word the library straightens is a PBW
monomial with one letter out of place: a letter appended (a product with a
letter) or replaced (a term of the adjoint action).  That letter walks to
its place (UEA._walk); each swap gives a Koszul sign and the words of the
bracket, which again have one letter out of place and are one letter
shorter, and an equal odd letter gives the half-square words instead.  Any
other word is fed through the walk one letter at a time (UEA._feed).

Memo contract: UEA._memo maps each word asked, and through the walk's
recursion each shorter word met, to its normal form; the words of the
asked length that a walk passes through are not kept.  (harish's
projection memo keeps pure-a parts, rewritten at the leftmost violation.)
A value is the normal form in compact form: the flat tuple
(w1, c1, w2, c2, ...) of its words and nonzero coefficients, in the order
a dict built by accumulate would hold them; a one-term normal form is the
pair (w, c), a zero one ().  One to three terms take 56 to 88 bytes where
a dict takes 224 (CPython 3.11), and a PBW monomial's value shares the
monomial's tuple.  accumulate_compact adds a compact form into a dict.
Every public method returns a fresh dict, which the caller may mutate.

Scalar contract: a UEA straightens in the scaled basis y_i = D x_i, where
D (UEA.scale) is the least common denominator of the structure constants
and of the halved odd squares.  There [y_a, y_b] = D [x_a, x_b] and
y_i y_i = (D/2) [x_i, x_i] have integral constants, so the memo, rewrite
and every scaled product hold ints.
The public methods take and return PBW coordinates, those of the x^m: a
scaled element is a pair (y, s) standing for y / s in the y^m, and
x^m = D^{-len m} y^m converts at the boundary (UEA.scaled, UEA.unscaled).
With D = 1 the conversions are the identity on integral coefficients.  An
int equals, hashes and prints (scalar_to_string) like the equal Fraction.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain
from math import factorial, lcm, prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .liesuper import LieSuperalgebra, MixedAlgebras, SuperVector
from .linalg import accumulate
from .scalars import int_if_integral

Q = Fraction

Monomial = Tuple[int, ...]
UEAElement = Dict[Monomial, object]
SymElement = Dict[Monomial, object]
# a normal form as the flat tuple (w1, c1, w2, c2, ...); see the module doc
Compact = tuple


class UEA:
    """The enveloping algebra of a fixed algebra in a fixed basis order."""

    def __init__(self, alg: LieSuperalgebra):
        # all operations are pure; the only mutable state is the normal-form
        # memo, which tolerates concurrent reads with a single writer (use
        # one UEA per thread otherwise)
        self.alg = alg
        self.parity = alg.parity
        self.dim = alg.dim
        pairs = {(i, j): out for i in range(alg.dim) for j in range(alg.dim)
                 if (out := alg.bracket_indices(i, j))}
        # xi xi = (1/2) [xi, xi] for each odd letter xi
        halves = {i: {k: c * Q(1, 2) for k, c in pairs.get((i, i), {}).items()}
                  for i in range(alg.dim) if alg.parity[i]}
        self.scale = lcm(*{c.denominator
                           for out in [*pairs.values(), *halves.values()]
                           for c in out.values()})
        # the same constants in the scaled basis, all integral
        self._brackets = {key: self._scale_constants(out)
                          for key, out in pairs.items()}
        self._half_square = {i: self._scale_constants(out)
                             for i, out in halves.items()}
        self._memo: Dict[Monomial, Compact] = {}

    def _scale_constants(self, out: Dict[int, object]) -> Dict[int, object]:
        scale = self.scale
        return {k: scale * c if type(c) is int else int_if_integral(scale * c)
                for k, c in out.items()}

    # -- basics -------------------------------------------------------------
    def one(self) -> UEAElement:
        return {(): 1}

    def generator(self, key) -> UEAElement:
        i = key if isinstance(key, int) else self.alg.index(key)
        return {(i,): 1}

    def from_vector(self, x: SuperVector) -> UEAElement:
        if x.alg is not self.alg:
            raise MixedAlgebras("vector from another algebra")
        return {(i,): c for i, c in x.c.items()}

    # -- the scaled basis ---------------------------------------------------
    def scaled(self, u: UEAElement) -> Tuple[UEAElement, int]:
        """(y, s) with u = y / s, y in scaled coordinates with integral
        coefficients."""
        scale = self.scale
        if scale == 1 and all(type(c) is int for c in u.values()):
            return u, 1
        top = max(map(len, u), default=0)
        s = lcm(*(c.denominator for c in u.values())) * scale ** top
        return {m: int_if_integral(c * (s // scale ** len(m)))
                for m, c in u.items()}, s

    def unscaled(self, y: UEAElement, s: int = 1) -> UEAElement:
        """The PBW coordinates of y / s, y in scaled coordinates; ints where
        integral."""
        scale = self.scale
        if scale == 1 and s == 1:
            return y
        powers = [scale ** k for k in range(max(map(len, y), default=0) + 1)]
        return {m: _ratio(c, powers[len(m)], s) for m, c in y.items()}

    def word_divisor(self, word: Monomial) -> int:
        """s with y^word = s x^word."""
        return self.scale ** len(word)

    # -- straightening ------------------------------------------------------
    def rewrite(self, word: Monomial, strategy: str = "leftmost"
                ) -> Optional[List[Tuple[Monomial, object]]]:
        """One straightening step at the first violation the strategy meets,
        in the scaled basis.

        Returns the words, with integral coefficients, that sum to y^word in
        U(g), or None when word is already a PBW monomial.  harish's
        projection and the rightmost oracle (_rightmost) straighten by it.
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
            return [(head + (k,) + tail, c)
                    for k, c in self._half_square[a].items()]
        out = [(head + (b, a) + tail, -1 if par[a] and par[b] else 1)]
        out.extend((head + (k,) + tail, c)
                   for k, c in self._brackets.get((a, b), _EMPTY).items())
        return out

    def _straighten(self, word: Monomial) -> Compact:
        """The normal form of y^word in the scaled basis, in compact form,
        memoised: its letters are fed one by one through the walk."""
        hit = self._memo.get(word)
        if hit is None:
            hit = self._memo[word] = self._feed(word)
        return hit

    def _placed(self, head: Monomial, k: int, tail: Monomial) -> Compact:
        """_straighten of head + (k,) + tail, where head + tail is a PBW
        monomial: the walk, memoised."""
        word = head + (k,) + tail
        hit = self._memo.get(word)
        if hit is None:
            hit = self._memo[word] = self._walk(word, len(head))
        return hit

    def _feed(self, word: Monomial) -> Compact:
        """The normal form of y^word: its longest PBW prefix, times each
        later letter in turn through the walk, unmemoised."""
        par = self.parity
        n, p = len(word), 1
        while p < n and (word[p - 1] < word[p]
                         or word[p - 1] == word[p] and not par[word[p]]):
            p += 1
        if p >= n:
            return (word, 1)
        if p == n - 1:
            return self._walk(word, p)
        acc: UEAElement = {word[:p]: 1}
        for k in word[p:]:
            grown: UEAElement = {}
            for m, c in acc.items():
                accumulate_compact(grown, self._walk(m + (k,), len(m)), c)
            acc = grown
        return compact(acc)

    def _walk(self, word: Monomial, j: int) -> Compact:
        """The normal form of y^word, in compact form, where word less its
        letter k at j is a PBW monomial: k moves to its place.

        Each swap past a letter l gives the Koszul sign and the words of
        [l, k] (or [k, l]) in l and k's place, which again have one letter
        out of place and are one letter shorter; meeting an equal odd
        letter gives the half-square words instead, and ends the walk.  The
        shorter words go through _placed, so the memo holds them, never the
        words of this length the walk passes through.  The terms are summed
        as rewriting at the only violation would: the end of the walk, then
        the swaps' words from the last swap back to the first.
        """
        head, k, tail = word[:j], word[j], word[j + 1:]
        par = self.parity
        odd = par[k]
        brackets = self._brackets
        swaps = []  # (sign, head, [l, k] or [k, l], tail) per swap
        sign, squares = 1, None
        # k moves left past each greater letter (or an equal odd one) ...
        while head and (head[-1] > k or head[-1] == k and odd):
            l = head[-1]
            head = head[:-1]
            if l == k:
                squares = self._half_square[k]
                break
            out = brackets.get((l, k))
            if out:
                swaps.append((sign, head, out, tail))
            if odd and par[l]:
                sign = -sign
            tail = (l,) + tail
        # ... or right past each smaller one; never both, as head + tail is
        # a PBW monomial
        while squares is None and tail and (tail[0] < k
                                            or tail[0] == k and odd):
            r = tail[0]
            tail = tail[1:]
            if r == k:
                squares = self._half_square[k]
                break
            out = brackets.get((k, r))
            if out:
                swaps.append((sign, head, out, tail))
            if odd and par[r]:
                sign = -sign
            head = head + (r,)
        if squares is None and not swaps:
            # a PBW monomial shares the tuple of the word when k stayed
            return (word, 1) if len(head) == j else (head + (k,) + tail, sign)
        acc: UEAElement = {}
        if squares is None:
            acc[head + (k,) + tail] = sign
        else:
            for h, c in squares.items():
                accumulate_compact(acc, self._placed(head, h, tail), sign * c)
        for s, u, out, v in reversed(swaps):
            for b, c in out.items():
                accumulate_compact(acc, self._placed(u, b, v), s * c)
        return compact(acc)

    def _rightmost(self, word: Monomial) -> UEAElement:
        """The normal form of y^word in the scaled basis, rewritten at the
        rightmost violation and not memoised: the oracle for the walk."""
        steps = self.rewrite(word, "rightmost")
        if steps is None:
            return {word: 1}
        acc: UEAElement = {}
        for w, c in steps:
            accumulate(acc, self._rightmost(w), c)
        return acc

    def normal_form_word(self, word: Iterable[int], strategy: str = "leftmost"
                         ) -> UEAElement:
        """The normal form of the word x^word.  With strategy "leftmost",
        the default, the word goes through the memoised walk (_straighten);
        with any other it is rewritten at its rightmost violation,
        unmemoised (_rightmost), the oracle for the walk."""
        word = tuple(word)
        y = uncompact(self._straighten(word)) if strategy == "leftmost" \
            else self._rightmost(word)
        return self.unscaled(y, self.word_divisor(word))

    def normal_form(self, factors: Sequence[Tuple[UEAElement, int]]
                    ) -> UEAElement:
        """Normal form of a product of algebra elements (a 'word' of vectors),
        each given scaled, as a pair (y, t) standing for y / t (see
        UEA.scaled): the whole product runs in the scaled basis."""
        out, s = self.one(), 1
        for y, t in factors:
            out = self.scaled_product(out, y)
            s *= t
        return self.unscaled(out, s)

    def multiply(self, u: UEAElement, v: UEAElement) -> UEAElement:
        (y, s), (z, t) = self.scaled(u), self.scaled(v)
        return self.unscaled(self.scaled_product(y, z), s * t)

    def scaled_product(self, y: UEAElement, z: UEAElement) -> UEAElement:
        """The product of two elements in scaled coordinates."""
        acc: UEAElement = {}
        for m1, c1 in y.items():
            for m2, c2 in z.items():
                accumulate_compact(acc, self._straighten(m1 + m2), c1 * c2)
        return acc

    # -- adjoint action -----------------------------------------------------
    def adjoint_index(self, i: int, u: UEAElement) -> UEAElement:
        """ad(e_i) u, through scaled_adjoint: e_i = y_i / D."""
        y, s = self.scaled(u)
        return self.unscaled(self.scaled_adjoint(i, y), self.scale * s)

    def scaled_adjoint(self, i: int, y: UEAElement) -> UEAElement:
        """ad(y_i) y in scaled coordinates, with ad(y_i) acting on each word
        as a superderivation:

            ad(x)(y_1...y_k) = sum_j (-1)^{|x|(|y_1|+...+|y_{j-1}|)}
                               y_1...y_{j-1} [x, y_j] y_{j+1}...y_k

        Each term is one word of the same length with a single letter out of
        place, where the commutator x m - (-1)^{|x||m|} m x straightens two
        longer words whose top-degree parts cancel.
        """
        acc: UEAElement = {}
        par = self.parity
        pi = par[i]
        brackets = self._brackets
        for m, c in y.items():
            sign = c
            for j, letter in enumerate(m):
                head, tail = m[:j], m[j + 1:]
                for k, b in brackets.get((i, letter), _EMPTY).items():
                    accumulate_compact(acc, self._placed(head, k, tail),
                                       sign * b)
                if pi and par[letter]:
                    sign = -sign
        return acc

    # -- supersymmetrisation ------------------------------------------------
    def beta(self, p: SymElement) -> UEAElement:
        """The PBW section of S(g) -> U(g): Koszul-averaged products, taken
        in the scaled basis, where x_i = y_i / D."""
        p = {m: c * Q(1, self.word_divisor(m)) for m, c in p.items()}
        return self.unscaled(supersymmetrise(
            p, self.parity, self.one(),
            lambda y, i: self.scaled_product(y, {(i,): 1})))

    # -- monomials ------------------------------------------------------------
    def monomials_up_to(self, d: int, weights: Sequence[Sequence] = ()
                        ) -> List[Monomial]:
        """The PBW monomials m of degree <= d of weight zero, that is with
        sum(w[i] for i in m) == 0 for every w in weights (all of them when
        there are no weights), ordered by degree then lex.

        Each prefix carries its weight down the recursion, and the last
        letter is looked up among the letters of the opposite weight.
        """
        par = self.parity
        dim = self.dim
        # the weight letter i adds, and the letters of each weight in order
        step = [tuple(w[i] for w in weights) for i in range(dim)]
        by_weight: Dict[tuple, List[int]] = {}
        for i in range(dim):
            by_weight.setdefault(step[i], []).append(i)

        def gen(prefix: Monomial, start: int, length: int, weight: tuple):
            if length == 1:
                out.extend(prefix + (i,) for i in
                           by_weight.get(tuple(-x for x in weight), ())
                           if i >= start)
                return
            for i in range(start, dim):
                gen(prefix + (i,), i + 1 if par[i] else i, length - 1,
                    tuple(x + y for x, y in zip(weight, step[i])))

        zero = tuple(0 for _ in weights)
        out: List[Monomial] = [()] if d >= 0 else []
        for length in range(1, d + 1):
            gen((), 0, length, zero)
        return out


def supersymmetrise(p: SymElement, parity: Sequence[int], one: UEAElement,
                    step: Callable[[UEAElement, int], UEAElement],
                    last: Optional[Callable] = None) -> UEAElement:
    """Koszul-averaged products of the letters of each monomial of p.

    step(u, i) is the partial product u times letter i, of parity
    parity[i], starting from one; last(u, i), step by default, is the
    product with the last letter, so a caller that reads only part of the
    result can prune after each step and compute only that part at the end.
    Only the distinct arrangements of a monomial's letters are walked: each
    stands for prod(mult!) of the n! permutations, all with the same Koszul
    sign (repeated letters are even, as odd squares vanish in S(g)), and
    arrangements sharing a prefix share its partial product.
    """
    if last is None:
        last = step
    acc: UEAElement = {}
    for m, c in p.items():
        counts = Counter(m)
        if any(parity[i] and k > 1 for i, k in counts.items()):
            continue  # an odd square: the signed orderings cancel
        weight = c * Q(prod(map(factorial, counts.values())), factorial(len(m)))
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
                walk((last if todo == 1 else step)(prefix, i), s, todo - 1,
                     rest)
                counts[i] += 1

        walk(one, 1, len(m), [i for i in m if parity[i]])
    return acc


_EMPTY: Dict[int, object] = {}


def compact(u: UEAElement) -> Compact:
    """u as the flat tuple (w1, c1, w2, c2, ...), in u's order."""
    return tuple(chain.from_iterable(u.items()))


def uncompact(nf: Compact) -> UEAElement:
    """A fresh dict holding the compact normal form nf."""
    it = iter(nf)
    return dict(zip(it, it))


def accumulate_compact(acc: UEAElement, nf: Compact, coeff) -> None:
    """acc += coeff * nf for a compact normal form nf, whose coefficients
    are nonzero; entries that cancel are dropped.  A coefficient of 1 or -1
    adds or negates nf without multiplying, and no list of scaled terms is
    built."""
    if not coeff:
        return
    one, neg = coeff == 1, coeff == -1
    it = iter(nf)
    for k, w in zip(it, it):
        if not one:
            w = -w if neg else coeff * w
        if k in acc:
            w = acc[k] + w
            if not w:
                del acc[k]
                continue
        acc[k] = w


def _ratio(c, num: int, den: int):
    """c num / den, built once: an int when c is an int and den divides
    c num."""
    if num == den:
        return c
    if type(c) is int:
        q, r = divmod(c * num, den)
        return Q(c * num, den) if r else q
    return Q(c.numerator * num, c.denominator * den)


# -- the supercommutative algebra S(g) ---------------------------------------

def sort_with_koszul(parity: Sequence[int], letters: Sequence[int]):
    """Sort letters ascending, tracking the Koszul sign; None on odd square."""
    arr = list(letters)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            if parity[arr[j - 1]] and parity[arr[j]]:
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    for t in range(len(arr) - 1):
        if arr[t] == arr[t + 1] and parity[arr[t]]:
            return None, 0
    return tuple(arr), sign


def sym_multiply(parity: Sequence[int], p: SymElement, q: SymElement) -> SymElement:
    acc: SymElement = {}
    for m1, c1 in p.items():
        # one row per left monomial: distinct monomials of q stay distinct
        row = {}
        for m2, c2 in q.items():
            merged, sign = sort_with_koszul(parity, m1 + m2)
            if merged is not None:
                row[merged] = sign * c1 * c2
        accumulate(acc, row)
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
            # one row per slot: distinct bracket outputs stay distinct
            sign = -1 if pi and (seen % 2) else 1
            row = {}
            for k, v in alg.bracket_indices(i, letter).items():
                merged, s2 = sort_with_koszul(par, m[:slot] + (k,) + m[slot + 1:])
                if merged is not None:
                    row[merged] = sign * s2 * c * v
            accumulate(acc, row)
            seen += par[letter]
    return acc


def sym_adjoint(alg: LieSuperalgebra, x: SuperVector, p: SymElement) -> SymElement:
    acc: SymElement = {}
    for i, c in x.c.items():
        accumulate(acc, sym_adjoint_index(alg, i, p), c)
    return acc
