import random
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import superhc.linalg as linalg
from superhc.apoly import APoly, change_to_basis
from superhc.builders import sl2
from superhc.linalg import (CommutationFailure, Echelon, IrrationalSpectrum,
                            NotSemisimple, ScalarMatrix, char_poly, eigenspace,
                            kernel, linear_solver, nullspace, rank,
                            rational_roots, simultaneous_eigenspaces,
                            span_basis)
from support import (apply, gauss_jordan, oracle_coordinates, oracle_nullspace,
                     oracle_span_basis, solve_membership)


def _combination(coeffs, vectors):
    """sum_t coeffs[t] * vectors[t] for sparse rows, as a sparse row."""
    out = {}
    for c, b in zip(coeffs, vectors):
        linalg.accumulate(out, b, c)
    return out


def _scaled(c, v):
    return {i: c * x for i, x in v.items() if c * x}


def test_nullspace_identity_is_trivial():
    assert nullspace(ScalarMatrix.identity(2)) == []


def test_nullspace_zero_matrix_is_standard_basis():
    kern = nullspace(ScalarMatrix(2, 2))
    assert kern == [{0: Q(1)}, {1: Q(1)}]


def test_nullspace_rank_one():
    m = ScalarMatrix.from_rows([[1, 2], [2, 4]])
    kern = nullspace(m)
    assert len(kern) == 1
    # oracle: direct multiplication annihilates the kernel vector
    v = kern[0]
    assert apply(m, v) == {}
    assert v.get(0, Q(0)) * Q(1) + v.get(1, Q(0)) * Q(2) == 0


def test_rank_nullity_randomized():
    rng = random.Random(7)
    for _ in range(150):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = [{j: Q(rng.randint(-2, 2)) for j in range(n)
                 if rng.random() < 0.5} for _ in range(m)]
        rows = [{j: v for j, v in r.items() if v} for r in rows]
        mat = ScalarMatrix(m, n, rows)
        kern = nullspace(mat)
        assert rank(mat.rows) + len(kern) == n
        for v in kern:
            assert apply(mat, v) == {}


@st.composite
def sparse_matrices(draw):
    """A small sparse rational matrix as (ncols, rows) and a row order."""
    ncols = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry,
                                         max_size=ncols), max_size=7))
    rows = [{j: x for j, x in r.items() if x} for r in rows]
    return ncols, rows, draw(st.permutations(range(len(rows))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_row_order_cannot_change_a_result(case):
    # _echelonise takes rows sparsest first, ties in the caller's order; the
    # reduced echelon form, and every result read off it, must not depend
    # on the order the rows come in
    ncols, rows, order = case
    shuffled = [rows[i] for i in order]
    mat = ScalarMatrix(len(rows), ncols, rows)
    other = ScalarMatrix(len(rows), ncols, shuffled)
    assert nullspace(other) == nullspace(mat)
    assert rank(shuffled) == rank(rows)
    assert span_basis(shuffled) == span_basis(rows)
    columns = [{i: r[j] for i, r in enumerate(rows) if j in r}
               for j in range(ncols)]
    assert kernel(columns) == nullspace(mat)
    # a basis given in another order has the same coordinates, reordered
    if rank(rows) < len(rows):
        with pytest.raises(ValueError):
            linear_solver(shuffled)
        return
    v = _combination([Q(t + 1) for t in range(len(rows))], rows)
    coords = linear_solver(rows)(v)
    assert linear_solver(shuffled)(v) \
        == {p: coords[i] for p, i in enumerate(order) if i in coords}


# numerators up to 10^6 over mixed denominators, and small integers, which
# make pivots other than 1 and cancellations likely
RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(Q, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3)),
    st.builds(Q, st.integers(-6, 6), st.sampled_from([2, 3, 4, 6, 7, 12])))


@st.composite
def dependent_rows(draw, entries, coefficients):
    """(ncols, rows): sparse rows, some of them combinations of others."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entries,
                                         max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        coeffs = draw(st.lists(coefficients, min_size=len(rows),
                               max_size=len(rows)))
        rows.append(_combination(coeffs, rows))
    rows = [{j: x for j, x in r.items() if x} for r in rows]
    return ncols, draw(st.permutations(rows))


def _check_against_oracle(ncols, rows, coeffs, probe):
    mat = ScalarMatrix(len(rows), ncols, rows)
    assert nullspace(mat) == oracle_nullspace(rows, ncols)
    assert rank(rows) == len(gauss_jordan(rows))
    assert span_basis(rows) == oracle_span_basis(rows)
    if rank(rows) < len(rows):
        with pytest.raises(ValueError):
            linear_solver(rows)
        return
    solve = linear_solver(rows)
    v = _combination(coeffs, rows)
    assert solve(v) == oracle_coordinates(rows, v) \
        == {t: c for t, c in enumerate(coeffs) if c}
    want = oracle_coordinates(rows, probe)
    if want is None:
        with pytest.raises(ValueError):
            solve(probe)
    else:
        assert solve(probe) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dependent_rows(RATIONALS, st.integers(-3, 3)),
       st.lists(RATIONALS, min_size=13, max_size=13),
       st.dictionaries(st.integers(0, 6), RATIONALS, max_size=4))
def test_integer_elimination_matches_fraction_gauss_jordan(case, coeffs, probe):
    # Echelon keeps primitive integer rows with pivots other than 1; every
    # result read off it must equal plain Fraction Gauss-Jordan's
    ncols, rows = case
    probe = {j: x for j, x in probe.items() if x and j < ncols}
    _check_against_oracle(ncols, rows, coeffs[:len(rows)], probe)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dependent_rows(RATIONALS, st.integers(-3, 3)))
def test_rank_takes_tuple_column_keys(case):
    # ring conditions are keyed by tuples such as ("J", root, perp, t): the
    # rank, and which rows an Echelon takes in, cannot depend on the keys,
    # here reordered against the int columns they stand for
    _, rows = case
    keyed = [{("IJW"[j % 3], -j): x for j, x in r.items()} for r in rows]
    assert rank(keyed) == rank(rows) == len(gauss_jordan(rows))
    tuples, ints = Echelon(), Echelon()
    assert [tuples.insert(r) for r in keyed] == [ints.insert(r) for r in rows]


# entries far from 1, so that pivots other than +-1 are the rule
WIDE = st.one_of(st.integers(-60, 60),
                 st.builds(Q, st.integers(-60, 60),
                           st.sampled_from([2, 3, 5, 9, 14])))


@st.composite
def long_sweeps(draw):
    """(ncols, rows): dense rows of ints or Fractions, some of them integer
    combinations of the others, in a drawn order; a row's sweep then passes
    many pivots and a new pivot clears many stored rows."""
    ncols = draw(st.integers(2, 10))
    basis = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), WIDE,
                                          min_size=ncols // 2, max_size=ncols),
                          min_size=1, max_size=8))
    rows = list(basis)
    for _ in range(draw(st.integers(0, 4))):
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(basis),
                               max_size=len(basis)))
        rows.append(_combination(coeffs, basis))
    rows = [{j: x for j, x in r.items() if x} for r in rows]
    return ncols, draw(st.permutations(rows))


def _check_echelon(ech):
    """Each stored row is a primitive int row with a positive pivot at its
    leading column and no other pivot column, and cols, less its empty
    sets, is the index rebuilt from the rows: each column that is not a
    pivot -> the pivots of the rows holding it."""
    index = {}
    for p, r in ech.rows.items():
        assert all(type(x) is int for x in r.values())
        assert min(r) == p and r[p] > 0 and gcd(*r.values()) == 1
        for j in r:
            if j != p:
                assert j not in ech.rows
                index.setdefault(j, set()).add(p)
    assert {j: ps for j, ps in ech.cols.items() if ps} == index
    assert not set(ech.cols) & set(ech.rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(long_sweeps(), st.lists(st.dictionaries(st.integers(0, 11), WIDE,
                                               min_size=1, max_size=12),
                               min_size=1, max_size=3),
       st.lists(st.integers(-4, 4), min_size=12, max_size=12))
def test_echelon_index_and_rows_match_fraction_gauss_jordan(case, extra,
                                                            coeffs):
    # after every insert the rows, each divided by its pivot, are the
    # oracle's reduced echelon rows, and the column index is the one
    # rebuilt from the rows
    ncols, rows = case
    ech = Echelon()
    independent = []
    for t, row in enumerate(rows):
        if ech.insert(row):
            independent.append(row)
        _check_echelon(ech)
        assert {p: {j: Q(x, r[p]) for j, x in r.items()}
                for p, r in ech.rows.items()} == gauss_jordan(rows[:t + 1])
    # a copy grows on its own: new pivots clear the copy's rows only
    before = ({p: dict(r) for p, r in ech.rows.items()},
              {j: set(ps) for j, ps in ech.cols.items()})
    other = ech.copy()
    for row in extra:
        other.insert({j: x for j, x in row.items() if x})
        _check_echelon(other)
    assert (ech.rows, ech.cols) == before
    assert {p: {j: Q(x, r[p]) for j, x in r.items()}
            for p, r in other.rows.items()} \
        == gauss_jordan([*rows, *extra])
    # the rows that grew the span are a basis; a solve over it reads the
    # oracle's coordinates, inside the span and outside it
    solve = linear_solver(independent)
    v = _combination(coeffs, independent)
    assert solve(v) == oracle_coordinates(independent, v) \
        == {t: c for t, c in enumerate(coeffs[:len(independent)]) if c}
    for probe in extra:
        probe = {j: x for j, x in probe.items() if x and j < ncols}
        want = oracle_coordinates(independent, probe)
        if want is None:
            with pytest.raises(ValueError):
                solve(probe)
        else:
            assert solve(probe) == want


def _assert_scalars(rows):
    for r in rows:
        for x in r.values():
            assert isinstance(x, Q), (type(x), x)


def test_results_are_fractions_or_quads_never_ints():
    # integer rows hold ints inside Echelon; none may leak out, and no
    # division of ints may become a float
    rows = [{0: 2, 1: 4, 3: 6}, {1: 3, 2: 9}, {0: 4, 2: 5, 3: 7}]
    _assert_scalars(nullspace(ScalarMatrix(len(rows), 4, rows)))
    _assert_scalars(kernel({i: r[j] for i, r in enumerate(rows) if j in r}
                           for j in range(4)))
    _assert_scalars(span_basis(rows))
    solve = linear_solver(rows)
    _assert_scalars([solve(_combination([3, 5], rows[:2]))])
    _assert_scalars([solve(dict(rows[1]))])
    m = ScalarMatrix(3, 3, [{0: 2, 1: 1}, {1: 2}, {2: 3}])
    _assert_scalars(eigenspace([m], [2]))
    _assert_scalars(eigenspace([m], [3]))


def test_solve_membership_trivial_cases():
    basis = [{0: Q(1), 2: Q(2)}, {1: Q(1), 2: Q(1)}]
    assert solve_membership(basis[0], basis) == {0: Q(1)}
    assert solve_membership({}, basis) == {}
    assert solve_membership({2: Q(1)}, basis) is None


def _roundtrip_inputs():
    rng = random.Random(3)
    for _ in range(150):
        n, k = rng.randint(1, 7), rng.randint(1, 5)
        dense = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
        basis = [{i: x for i, x in enumerate(b) if x} for b in dense]
        coeffs = [Q(rng.randint(-3, 3)) for _ in range(k)]
        yield n, basis, coeffs, _combination(coeffs, basis)


def test_solve_membership_roundtrip_randomized():
    for _, basis, _, v in _roundtrip_inputs():
        sol = solve_membership(v, basis)
        assert sol is not None
        assert _combination([sol.get(t, Q(0)) for t in range(len(basis))],
                            basis) == v


def test_linear_solver_roundtrip_randomized():
    # the same inputs: an independent basis gives back the coefficients
    # (coordinates are unique), a dependent one is rejected up front
    independent = 0
    for n, basis, coeffs, v in _roundtrip_inputs():
        if rank(basis) < len(basis):
            with pytest.raises(ValueError):
                linear_solver(basis)
            continue
        independent += 1
        solve = linear_solver(basis)
        assert solve(v) == {t: c for t, c in enumerate(coeffs) if c}
        assert solve(v) == solve_membership(v, basis)
    assert independent > 50


def test_linear_solver_outside_span_raises():
    solve = linear_solver([{0: Q(1), 2: Q(2)}, {1: Q(1), 2: Q(1)}])
    assert solve({0: Q(2), 1: Q(-1), 2: Q(3)}) == {0: Q(2), 1: Q(-1)}
    assert solve({}) == {}
    with pytest.raises(ValueError):
        solve({2: Q(1)})
    with pytest.raises(ValueError):
        solve({0: Q(1)})
    empty = linear_solver([])
    assert empty({}) == {}
    with pytest.raises(ValueError):
        empty({1: Q(1)})


def test_linear_solver_rejects_dependent_basis():
    with pytest.raises(ValueError):
        linear_solver([{0: Q(1), 1: Q(2)}, {0: Q(2), 1: Q(4)}])
    with pytest.raises(ValueError):
        linear_solver([{0: Q(1)}, {}])


def test_linear_solver_rejects_keys_past_the_basis():
    # the basis {0: 1} has n = 1 and tags its row in column 1: a vector with
    # a key >= n lies outside the span and is never read as a tag
    solve = linear_solver([{0: Q(1)}])
    assert solve({0: Q(3)}) == {0: Q(3)}
    for v in ({1: Q(1)}, {5: Q(1)}, {0: Q(1), 1: Q(1)}):
        with pytest.raises(ValueError):
            solve(v)


def test_linear_solver_of_the_empty_basis():
    solve = linear_solver([])
    assert solve({}) == {}
    with pytest.raises(ValueError):
        solve({0: Q(1)})


def test_nullspace_vectors_end_at_distinct_free_columns():
    # checked by Fraction arithmetic (support.apply): each vector lies in
    # the kernel, has a 1 at its largest key, and no two share that key
    rng = random.Random(13)
    for _ in range(150):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = [{j: Q(rng.randint(-2, 2)) for j in range(n)
                 if rng.random() < 0.5} for _ in range(m)]
        mat = ScalarMatrix(m, n, [{j: v for j, v in r.items() if v}
                                  for r in rows])
        kern = nullspace(mat)
        assert rank(mat.rows) + len(kern) == n
        ends = [max(v) for v in kern]
        assert len(set(ends)) == len(ends)
        for v in kern:
            assert v[max(v)] == 1
            assert apply(mat, v) == {}


def test_linear_solver_eliminates_once(monkeypatch):
    calls = []
    original = linalg._echelonise

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(linalg, "_echelonise", counting)
    basis = [{0: Q(1), 1: Q(1), 3: Q(2)}, {1: Q(1), 2: Q(3)},
             {0: Q(2), 2: Q(1), 3: Q(1)}]
    solve = linear_solver(basis)
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [Q(rng.randint(-4, 4)) for _ in basis]
        v = _combination(coeffs, basis)
        assert solve(v) == {t: c for t, c in enumerate(coeffs) if c}
    assert calls == [3]


def test_char_poly():
    m = ScalarMatrix.from_rows([[2, 1], [1, 1]])
    # char poly of [[2,1],[1,1]] is x^2 - 3x + 1
    assert char_poly(m) == [Q(1), Q(-3), Q(1)]


def test_change_to_basis_rewrites_each_new_basis_vector_as_its_variable():
    # the linear function with coefficients B[j] over the old variables is
    # the j-th new variable; change_to_basis solves against B once per call
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        r = rng.randint(1, 4)
        basis = [tuple(Q(rng.randint(-3, 3)) for _ in range(r)) for _ in range(r)]
        if rank(dict(enumerate(b)) for b in basis) < r:
            continue
        change = change_to_basis(basis)
        for j in range(r):
            assert change(APoly.linear(basis[j])) == APoly.variable(r, j)
        checked += 1


def test_change_to_basis_rejects_a_singular_basis():
    with pytest.raises(ValueError):
        change_to_basis([(Q(1), Q(2)), (Q(2), Q(4))])
    with pytest.raises(ValueError):
        change_to_basis([(Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0))])


def test_rational_roots_full_split():
    # (x-1)(x+2)^2 = x^3 + 3x^2 - 4
    roots = rational_roots([Q(1), Q(3), Q(0), Q(-4)])
    assert sorted(roots) == [(Q(-2), 2), (Q(1), 1)]


def test_rational_roots_irrational_remainder():
    # x^2 - 2, and (x - 1)(x^2 - 2): a rational root does not make it split
    assert rational_roots([Q(1), Q(0), Q(-2)]) is None
    assert rational_roots([Q(1), Q(-1), Q(-2), Q(2)]) is None


def test_simultaneous_eigenspaces_identity():
    blocks = simultaneous_eigenspaces([ScalarMatrix.identity(3)])
    assert len(blocks) == 1
    values, basis = blocks[0]
    assert values == (Q(1),) and len(basis) == 3


def test_simultaneous_eigenspaces_diagonal():
    m = ScalarMatrix.from_rows([[1, 0], [0, 2]])
    blocks = simultaneous_eigenspaces([m])
    assert sorted((v[0], len(b)) for v, b in blocks) == [(Q(1), 1), (Q(2), 1)]


def test_simultaneous_eigenspaces_sl2_cartan():
    # ad(h) on sl(2) has eigenvalues -2, 0, 2 with 1-dim blocks; the
    # brute-force oracle is the eigenvector check below
    g = sl2()
    m = g.ad_matrix(g.basis("h"))
    blocks = simultaneous_eigenspaces([m])
    assert sorted(v[0] for v, _ in blocks) == [Q(-2), Q(0), Q(2)]
    for values, basis in blocks:
        assert len(basis) == 1
        v = basis[0]
        assert apply(m, v) == _scaled(values[0], v)


def test_commutation_failure():
    a = ScalarMatrix.from_rows([[0, 1], [0, 0]])
    b = ScalarMatrix.from_rows([[0, 0], [1, 0]])
    with pytest.raises(CommutationFailure):
        simultaneous_eigenspaces([a, b])


def test_not_semisimple():
    m = ScalarMatrix.from_rows([[1, 1], [0, 1]])  # a Jordan block
    with pytest.raises(NotSemisimple):
        simultaneous_eigenspaces([m])


def test_irrational_spectrum():
    m = ScalarMatrix.from_rows([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
    with pytest.raises(IrrationalSpectrum):
        simultaneous_eigenspaces([m])


def test_span_basis_deterministic():
    vecs = [{0: Q(2), 1: Q(4)}, {0: Q(1), 1: Q(2)}, {1: Q(1)}]
    assert span_basis(vecs) == [{0: Q(1)}, {1: Q(1)}]


def test_span_basis_accepts_a_generator():
    vecs = [{0: Q(2), 1: Q(4)}, {0: Q(1), 1: Q(2)}, {1: Q(1)}]
    assert span_basis(v for v in vecs) == span_basis(vecs)


def test_simultaneous_eigenspaces_dimensions_fill_space():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 5)
        diag1 = [Q(rng.randint(-2, 2)) for _ in range(n)]
        diag2 = [Q(rng.randint(-2, 2)) for _ in range(n)]
        m1 = ScalarMatrix.from_rows(
            [[diag1[i] if i == j else 0 for j in range(n)] for i in range(n)])
        m2 = ScalarMatrix.from_rows(
            [[diag2[i] if i == j else 0 for j in range(n)] for i in range(n)])
        blocks = simultaneous_eigenspaces([m1, m2])
        assert sum(len(b) for _, b in blocks) == n
        tuples = [v for v, _ in blocks]
        assert len(set(tuples)) == len(tuples)


def _unimodular(n, rng):
    """P and P^-1, both integral: a product of elementary matrices
    I + c E_ij, whose inverses I - c E_ij are multiplied in reverse."""
    p, p_inv = ScalarMatrix.identity(n), ScalarMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        e = ScalarMatrix.identity(n)
        e.rows[i][j] = Q(c)
        e_inv = ScalarMatrix.identity(n)
        e_inv.rows[i][j] = Q(-c)
        p, p_inv = p.mul(e), e_inv.mul(p_inv)
    return p, p_inv


def test_simultaneous_eigenspaces_conjugated_diagonal_family():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 5)
        p, p_inv = _unimodular(n, rng)
        assert p.mul(p_inv) == ScalarMatrix.identity(n)
        diags = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(2)]
        ms = [p.mul(ScalarMatrix.from_rows(
            [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]))
            .mul(p_inv) for d in diags]
        blocks = simultaneous_eigenspaces(ms)
        assert sum(len(b) for _, b in blocks) == n
        assert len(span_basis([v for _, b in blocks for v in b])) == n
        tuples = [values for values, _ in blocks]
        assert len(set(tuples)) == len(tuples)
        occurs = list(zip(*diags))
        for values, basis in blocks:
            assert len(basis) == occurs.count(values)
            for v in basis:
                for m, ev in zip(ms, values):
                    assert apply(m, v) == _scaled(ev, v)
