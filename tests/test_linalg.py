import itertools
import tracemalloc
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from entwine import GF, QQ, LinMap, Subspace, kernel_image, kron, \
    solve_affine
from entwine.linalg import _stored, _values, invert, quotient_by, rref
from entwine.errors import InputError
from entwine.linalg import (LinearConstraints, SCALAR, compose_all,
                            corestrict, op_in_unknown, right_inverse,
                            unflatten)

import oracle


def q(x):
    return Fraction(x)


def qmat(dom, cod, rows):
    return LinMap.from_rows(QQ, dom, cod, [[q(x) for x in r] for r in rows])


# -- solve_affine ------------------------------------------------------------

def test_identity_solve():
    sol = solve_affine(LinMap.identity(QQ, (2,)), (q(1), q(0)))
    assert sol.particular == (1, 0)
    assert sol.homogeneous.dim == 0


def test_zero_map_infeasible():
    sol = solve_affine(LinMap.zero(QQ, (2,), (2,)), (q(1), q(0)))
    assert not sol.feasible
    assert sol.homogeneous.dim == 2


def test_single_equation():
    sol = solve_affine(qmat((2,), (1,), [[1, 1]]), (q(1),))
    assert sol.particular == (1, 0)
    assert sol.homogeneous.basis == ((1, -1),)


def test_substitution_property():
    m = qmat((3,), (2,), [[1, 2, 3], [0, 1, 1]])
    b = (q(5), q(2))
    sol = solve_affine(m, b)
    assert sol.feasible
    assert m.apply(sol.particular) == b
    for h in sol.homogeneous.basis:
        combined = tuple(x + y for x, y in zip(sol.particular, h))
        assert m.apply(combined) == b


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4),
       st.lists(st.integers(-3, 3), min_size=24, max_size=24),
       st.booleans())
def test_solve_affine_exactness(rows, cols, raw, use_f3):
    field = GF(3) if use_f3 else QQ
    entries = [[field.of_int(raw[(i * cols + j) % len(raw)])
                for j in range(cols)] for i in range(rows)]
    m = LinMap.from_rows(field, (cols,), (rows,), entries)
    b = m.apply(tuple(field.of_int(raw[j]) for j in range(cols)))
    sol = solve_affine(m, b)
    assert sol.feasible
    assert m.apply(sol.particular) == b
    for h in sol.homogeneous.basis:
        assert all(x == 0 for x in m.apply(h))


# -- kernel_image ------------------------------------------------------------

def test_kernel_image_identity():
    k, im = kernel_image(LinMap.identity(QQ, (3,)))
    assert k.dim == 0 and im.dim == 3


def test_kernel_image_zero():
    k, im = kernel_image(LinMap.zero(QQ, (3,), (2,)))
    assert k.dim == 3 and im.dim == 0


def test_kernel_over_f2_matches_oracle():
    rows = [[1, 1], [1, 1]]
    m = LinMap.from_rows(GF(2), (2,), (2,), rows)
    k, im = kernel_image(m)
    assert k.basis == ((1, 1),)
    assert im.dim == 1
    assert oracle.rank(rows, p=2) == 1
    assert oracle.kernel_dim(rows, p=2) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(st.integers(-2, 2), min_size=16, max_size=16))
def test_rank_nullity(rows, cols, raw):
    entries = [[q(raw[(i * cols + j) % len(raw)]) for j in range(cols)]
               for i in range(rows)]
    m = LinMap.from_rows(QQ, (cols,), (rows,), entries)
    k, im = kernel_image(m)
    assert k.dim + im.dim == cols
    assert oracle.rank(entries) == im.dim


# -- kron and flattening -----------------------------------------------------

def test_kron_identities():
    assert kron(LinMap.identity(QQ, (2,)),
                LinMap.identity(QQ, (3,))).equals(LinMap.identity(QQ, (6,)))
    f = qmat((2,), (2,), [[0, 1], [1, 0]])
    assert kron(f, LinMap.identity(QQ, (1,))).entries == f.entries


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=8, max_size=8),
       st.lists(st.integers(-2, 2), min_size=9, max_size=9),
       st.lists(st.integers(-2, 2), min_size=8, max_size=8),
       st.lists(st.integers(-2, 2), min_size=9, max_size=9))
def test_kron_composition(raw_f, raw_g, raw_f2, raw_g2):
    f = qmat((2,), (2,), [raw_f[:2], raw_f[2:4]])
    f2 = qmat((2,), (2,), [raw_f2[:2], raw_f2[2:4]])
    g = qmat((3,), (3,), [raw_g[:3], raw_g[3:6], raw_g[6:9]])
    g2 = qmat((3,), (3,), [raw_g2[:3], raw_g2[3:6], raw_g2[6:9]])
    lhs = kron(f, g).compose(kron(f2, g2))
    rhs = kron(f.compose(f2), g.compose(g2))
    assert lhs.equals(rhs)


def test_unflatten_is_row_major():
    shape = (2, 1, 3)
    indices = list(itertools.product(*map(range, shape)))
    assert [unflatten(shape, k) for k in range(len(indices))] == indices
    assert unflatten((), 0) == ()


def test_kron_associativity_shapes():
    a = LinMap.identity(QQ, (2,))
    b = qmat((3,), (2,), [[1, 0, 2], [0, 1, 1]])
    c = LinMap.identity(QQ, (2,))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert left.equals(right)
    assert left.domain == (2, 3, 2)


# -- subspaces and quotients ---------------------------------------------------

def test_echelon_idempotent():
    vecs = [(q(2), q(4), q(0)), (q(1), q(2), q(1)), (q(3), q(6), q(1))]
    s1 = Subspace.from_vectors(QQ, (3,), vecs)
    s2 = Subspace.from_vectors(QQ, (3,), s1.basis)
    assert s1.basis == s2.basis
    assert s1.pivots == s2.pivots


def test_subspace_membership_and_coords():
    s = Subspace.from_vectors(QQ, (3,), [(q(1), q(0), q(1)), (q(0), q(1), q(1))])
    assert s.contains((q(2), q(3), q(5)))
    assert s.coords((q(2), q(3), q(5))) == (2, 3)
    assert not s.contains((q(1), q(0), q(0)))


def test_membership_rejects_wrong_length():
    # x - y = 0 on a 2-dimensional space: a vector of another length is an
    # input error, not judged on a prefix or indexed out of range
    sol = solve_affine(qmat((2,), (1,), [[1, -1]]), (q(0),))
    assert sol.contains((q(1), q(1)))
    for vec in ((q(1), q(1), q(5)), (q(1),)):
        for check in (sol.contains, sol.homogeneous.contains,
                      sol.homogeneous.coords):
            with pytest.raises(InputError):
                check(vec)


MEMBERSHIP_FIELDS = {None: QQ, 2: GF(2), 7: GF(7)}


@st.composite
def spanning_sets(draw):
    """(p, n, rows, coefficients): 0 to 4 spanning vectors of length n, 1
    to 6, some repeated or zero, and the coefficients of one member."""
    p = draw(st.sampled_from(list(MEMBERSHIP_FIELDS)))
    field = MEMBERSHIP_FIELDS[p]
    n = draw(st.integers(1, 6))
    scalars = _RATIONALS if p is None else st.integers(0, p - 1)
    rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), max_size=4))
    rows = [[field.zero if x == 0 else x for x in row] for row in rows]
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
    coefficients = draw(st.lists(scalars, min_size=len(rows),
                                 max_size=len(rows)))
    return p, n, rows, coefficients


@settings(max_examples=200, deadline=None)
@given(spanning_sets(), st.data())
def test_membership_matches_the_oracle_rank(system, data):
    p, n, rows, coefficients = system
    field = MEMBERSHIP_FIELDS[p]
    s = Subspace.from_vectors(field, (n,), rows)
    assert s.dim == oracle.rank(rows, p)
    member = [field.zero] * n
    for c, row in zip(coefficients, rows):
        member = [field.add(x, field.mul(c, y)) for x, y in zip(member, row)]
    candidates = [tuple(member)]
    # the member moved at one pivot column and at one other column
    free = [j for j in range(n) if j not in s.pivots]
    for columns in (s.pivots, free):
        if columns:
            j = data.draw(st.sampled_from(columns))
            moved = list(member)
            moved[j] = field.add(moved[j], field.one)
            candidates.append(tuple(moved))
    transposes = []
    transpose = LinMap.transpose
    with mock.patch.object(LinMap, "transpose",
                           lambda m: transposes.append(m) or transpose(m)):
        # ten membership questions, then one corestriction
        for v in itertools.islice(itertools.cycle(candidates), 5):
            inside = oracle.rank(rows + [list(v)], p) == s.dim
            assert s.contains(v) == inside
            coords = s.coords(v)
            assert (coords is not None) == inside
            if inside:
                assert s.inclusion.apply(coords) == v
        squeezed = corestrict(LinMap.element(field, (n,), candidates[0]), s)
    # the subspace builds its inclusion once, however often it is asked
    assert len(transposes) <= 1
    assert squeezed.flat() == s.coords(candidates[0])
    assert s.retraction.compose(s.inclusion).equals(
        LinMap.identity(field, (s.dim,)))
    assert s.contains(candidates[0])


def test_quotient_projection_section():
    rel = Subspace.from_vectors(QQ, (3,), [(q(1), q(-1), q(0))])
    quot = quotient_by(rel)
    assert quot.dim == 2
    assert quot.projection.compose(quot.section).equals(LinMap.identity(QQ, (2,)))
    for v in rel.basis:
        assert all(x == 0 for x in quot.projection.apply(v))


def test_invert_round_trip():
    m = qmat((3,), (3,), [[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    inv = invert(m)
    assert inv.compose(m).equals(LinMap.identity(QQ, (3,)))
    assert m.compose(inv).equals(LinMap.identity(QQ, (3,)))


def test_scalar_text_encoding():
    assert QQ.fmt(q(3)) == "3"
    assert QQ.fmt(Fraction(-3, 2)) == "-3/2"
    assert QQ.parse("7/2") == Fraction(7, 2)
    f5 = GF(5)
    assert f5.fmt(f5.parse(3)) == 3
    with pytest.raises(Exception):
        f5.parse(7)


# -- differential checks against the dense oracle -----------------------------

FIELDS = {None: QQ, 2: GF(2), 3: GF(3), 10007: GF(10007)}


def _dot(row, vec, p):
    """Plain dot product, reduced into the field (Fraction when p is None)."""
    total = sum(a * b for a, b in zip(row, vec))
    return Fraction(total) if p is None else total % p


@st.composite
def sparse_systems(draw):
    """(p, rows, rhs): a random sparse matrix with 5-40 % nonzeros, some
    duplicated rows and some zero rows, in shuffled order."""
    p = draw(st.sampled_from(list(FIELDS)))
    field = FIELDS[p]
    n_rows, n_cols = draw(st.integers(1, 10)), draw(st.integers(1, 14))
    density = draw(st.integers(5, 40))
    if p is None:
        nonzero = st.fractions(-5, 5, max_denominator=4).filter(bool)
    else:
        nonzero = st.integers(1, p - 1)
    cells = st.tuples(st.integers(0, 99), nonzero)
    rows = [[v if u < density else field.zero
             for u, v in draw(st.lists(cells, min_size=n_cols,
                                       max_size=n_cols))]
            for _ in range(n_rows)]
    rows += [list(rows[i]) for i in draw(st.lists(
        st.integers(0, n_rows - 1), max_size=3))]
    rows += [[field.zero] * n_cols for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        # a consistent right-hand side, rows . x for a random x
        x = draw(st.lists(st.integers(0, 2), min_size=n_cols,
                          max_size=n_cols))
        rhs = [_dot(row, x, p) for row in rows]
    else:
        rhs = [field.of_int(v) for v in draw(st.lists(
            st.integers(0, 3), min_size=len(rows), max_size=len(rows)))]
    return p, rows, rhs


def _is_reduced_echelon(reduced, pivots):
    for i, (row, c) in enumerate(zip(reduced, pivots)):
        if row[c] != 1 or any(row[:c]):
            return False
        if any(other[c] for j, other in enumerate(reduced) if j != i):
            return False
    return list(pivots) == sorted(set(pivots))


@settings(max_examples=150, deadline=None)
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_elimination_matches_oracle(system, rnd):
    p, rows, rhs = system
    field = FIELDS[p]
    n_cols = len(rows[0])
    # rref works on sparse rows of numerators, and its reduced rows are
    # numerators over one denominator, read as values through _values
    reduced, den, pivots = rref(field, _stored(field, rows)[0])
    reduced = [_values(field, r, den, n_cols) for r in reduced]
    _, oracle_pivots = oracle.echelon(rows, p)
    assert list(pivots) == oracle_pivots
    assert len(reduced) == oracle.rank(rows, p)
    assert _is_reduced_echelon(reduced, pivots)

    m = LinMap.from_rows(field, (n_cols,), (len(rows),), rows)
    sol = solve_affine(m, rhs)
    oracle_particular, _ = oracle.solve(rows, rhs, p)
    if oracle_particular is None:
        assert sol.particular is None
    else:
        assert sol.particular == tuple(oracle_particular)
    for v in sol.homogeneous.basis:
        assert all(_dot(row, v, p) == 0 for row in rows)
    assert sol.homogeneous.dim == n_cols - len(pivots)

    shuffled = list(rows)
    rnd.shuffle(shuffled)
    a = Subspace.from_vectors(field, (n_cols,), rows)
    b = Subspace.from_vectors(field, (n_cols,), shuffled)
    assert (a.basis, a.pivots) == (b.basis, b.pivots)


def _oracle_rref(rows, p=None):
    """The reduced row echelon form from oracle.echelon, by clearing the
    entries above each pivot (the oracle leaves them)."""
    m, pivots = oracle.echelon(rows, p)
    for i in reversed(range(len(m))):
        for r in range(i):
            x = m[r][pivots[i]]
            if x:
                m[r] = [a - x * b if p is None else (a - x * b) % p
                        for a, b in zip(m[r], m[i])]
    return m, pivots


def _dense_rref(field, rows):
    """rref of dense rows, its reduced rows made dense again."""
    n_cols = len(rows[0])
    reduced, den, pivots = rref(field, _stored(field, rows)[0])
    return ([list(_values(field, row, den, n_cols)) for row in reduced],
            list(pivots))


@st.composite
def hard_rational_rows(draw):
    """Dense rational rows with numerators up to 10^40 and denominators up
    to 10^20, tall, wide or square, with zero entries, zero rows, duplicate
    rows and rows that are rational combinations of others, shuffled."""
    small, large = draw(st.sampled_from([(1, 4), (4, 12)]))
    n_rows, n_cols = draw(st.sampled_from(
        [(large, small), (small, large), (small, small)]).flatmap(
        lambda shape: st.tuples(st.integers(1, shape[0]),
                                st.integers(1, shape[1]))))
    big = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                    st.integers(1, 10 ** 20))
    entry = st.one_of(st.just(Fraction(0)), big)
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    for _ in range(draw(st.integers(0, 3))):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        a, b = draw(big), draw(big)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    rows += [list(rows[i]) for i in draw(st.lists(
        st.integers(0, n_rows - 1), max_size=2))]
    rows += [[Fraction(0)] * n_cols for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows))


@settings(max_examples=120, deadline=None)
@given(hard_rational_rows(), st.randoms(use_true_random=False))
def test_rational_elimination_matches_the_oracle_entry_by_entry(rows, rnd):
    n_cols = len(rows[0])
    sparse = _stored(QQ, rows)[0]
    reduced, den, pivots = rref(QQ, sparse)
    assert all(type(x) is int for row in reduced for _, x in row)
    # one positive denominator with no factor common to every numerator
    assert den > 0 and gcd(den, *[x for row in reduced for _, x in row]) == 1
    dense = [list(_values(QQ, row, den, n_cols)) for row in reduced]
    expected, expected_pivots = _oracle_rref(rows)
    assert list(pivots) == expected_pivots
    assert dense == expected
    # the same row space, reordered and rescaled, has the same form
    rescaled = [tuple((j, x * (k + 1)) for j, x in row)
                for k, row in enumerate(sparse)]
    rnd.shuffle(rescaled)
    assert rref(QQ, rescaled) == (reduced, den, pivots)


def test_rref_compose_and_assembly_over_q_build_no_fraction(monkeypatch):
    """Over Q the stored form is integer numerators over one denominator:
    rref, compose and op_in_unknown run on ints and build no Fraction."""
    # 20 rational combinations of 5 rows of width 12: rank 5, so the
    # reduced rows carry entries beyond their pivots
    base = [[Fraction((3 * k + 5 * j) % 11 - 5, 1 + (k * j) % 7)
             for j in range(12)] for k in range(5)]
    rows = []
    for i in range(20):
        coeffs = [Fraction((i * k) % 5 - 2, 1 + (i + k) % 3) for k in range(5)]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base))
                     for j in range(12)])
    m = LinMap.from_rows(QQ, (12,), (20,), rows)
    square = LinMap.from_rows(QQ, (12,), (12,), base + base[:4] + base[:3])
    assert m.den > 1 and square.den > 1
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting)
    reduced, den, pivots = rref(QQ, list(m.nonzeros))
    product = m.compose(square)
    block = op_in_unknown((12,), (12,), [(1, (square, SCALAR, SCALAR, m)),
                                         (-1, (square, SCALAR, SCALAR, m))])
    monkeypatch.undo()
    assert built == []
    assert len(pivots) == 5 and den > 1
    assert all(type(x) is int for row in reduced for _, x in row)
    assert product.entries == _naive_product(QQ, rows, square.entries)
    assert block.is_zero_map()


# -- the column index: clearing a new pivot fills in earlier rows -------------

FILL_IN_FIELDS = {None: QQ, 2: GF(2), 7: GF(7)}


@pytest.mark.parametrize("p", list(FILL_IN_FIELDS))
def test_a_new_pivot_is_cleared_from_rows_that_hold_it(p):
    """Rows a_i e_i + b_i e_(i+1), i < 6, in this order, then e_6 + e_7.
    Row i's pivot is i; it holds column i + 1 from its own entries, and
    clearing pivot i + 1 from it fills it in at column i + 2, then i + 3,
    and so on: each later pivot must be cleared from every earlier row,
    found through the pivot row's own support (column i + 1) or through
    fill-in (the columns beyond)."""
    field = FILL_IN_FIELDS[p]
    # odd and prime to 7, so nonzero in every field here
    a, b = (3, 5, 9, 11, 13, 15), (-1, 3, 5, -3, 9, 11)
    n = len(a)
    rows = []
    for i in range(n):
        row = [field.zero] * (n + 2)
        row[i], row[i + 1] = field.of_int(a[i]), field.of_int(b[i])
        rows.append(row)
    rows.append([field.zero] * n + [field.one, field.one])
    expected = _oracle_rref(rows, p)
    assert expected[1] == list(range(n + 1))
    assert _dense_rref(field, rows) == expected


@st.composite
def staircase_systems(draw):
    """(p, rows): rows whose leading columns increase down the list, each
    with a few entries to the right of its lead, so that every new pivot
    is cleared from earlier rows and fills them in with its own entries."""
    p = draw(st.sampled_from(list(FILL_IN_FIELDS)))
    field = FILL_IN_FIELDS[p]
    if p is None:
        nonzero = st.fractions(-5, 5, max_denominator=4).filter(bool)
    else:
        nonzero = st.integers(1, p - 1)
    n_cols = draw(st.integers(2, 14))
    rows, lead = [], 0
    while lead < n_cols:
        row = [field.zero] * n_cols
        row[lead] = draw(nonzero)
        for j in draw(st.lists(st.integers(lead, n_cols - 1), max_size=3)):
            row[j] = draw(nonzero)
        rows.append(row)
        lead += draw(st.integers(1, 3))
    return p, rows


@settings(max_examples=150, deadline=None)
@given(staircase_systems())
def test_staircase_elimination_matches_the_oracle(system):
    p, rows = system
    assert _dense_rref(FILL_IN_FIELDS[p], rows) == _oracle_rref(rows, p)


def _naive_product(field, a, b, m=None):
    """a . b by plain loops; m is the width of b, needed when b has no rows."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0]) if m is None else m):
            acc = field.zero
            for k in range(len(b)):
                acc = field.add(acc, field.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _naive_kron(field, a, b):
    return tuple(tuple(field.mul(a[i1][j1], b[i2][j2])
                       for j1 in range(len(a[0])) for j2 in range(len(b[0])))
                 for i1 in range(len(a)) for i2 in range(len(b)))


@st.composite
def zero_heavy(draw, p, n_rows, n_cols):
    field = FIELDS[p]
    values = st.integers(-3, 3) if p is None else st.integers(0, p - 1)
    cells = st.tuples(st.integers(0, 9), values)
    return [[field.of_int(v) if u < 2 else field.zero
             for u, v in draw(st.lists(cells, min_size=n_cols,
                                       max_size=n_cols))]
            for _ in range(n_rows)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(FIELDS)), st.integers(1, 5),
       st.integers(1, 5), st.integers(1, 5), st.data())
def test_products_match_naive_loops(p, n, k, m, data):
    field = FIELDS[p]
    a = data.draw(zero_heavy(p, n, k))
    b = data.draw(zero_heavy(p, k, m))
    c = data.draw(zero_heavy(p, n, k))
    fa = LinMap.from_rows(field, (k,), (n,), a)
    fb = LinMap.from_rows(field, (m,), (k,), b)
    fc = LinMap.from_rows(field, (k,), (n,), c)
    assert fa.compose(fb).entries == _naive_product(field, a, b)
    assert kron(fa, fb).entries == _naive_kron(field, a, b)
    assert fa.sub(fc).entries == tuple(
        tuple(field.sub(x, y) for x, y in zip(r, s)) for r, s in zip(a, c))
    vec = data.draw(zero_heavy(p, 1, k))[0]
    assert fa.apply(vec) == tuple(
        r[0] for r in _naive_product(field, a, [[v] for v in vec]))


# -- products over Q with denominators: integer kernels vs Fraction loops ----

def _fraction_product(a, b):
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(len(b))),
                           Fraction(0))
                       for j in range(len(b[0])))
                 for i in range(len(a)))


def _assert_canonical(entries):
    """Every entry a Fraction, and every zero the field's shared zero."""
    for row in entries:
        for x in row:
            assert type(x) is Fraction
            assert x or x is QQ.zero


_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
_NONZERO_RATIONALS = st.builds(Fraction, st.integers(1, 6) | st.integers(-6, -1),
                               st.integers(1, 12))


@st.composite
def rational_rows(draw, n_rows, n_cols):
    """Rows of Fractions with denominators up to 12, about a third zero
    (the shared zero or a fresh Fraction(0, d))."""
    cells = st.tuples(st.integers(0, 2), _RATIONALS)
    return [[v if u else QQ.zero
             for u, v in draw(st.lists(cells, min_size=n_cols,
                                       max_size=n_cols))]
            for _ in range(n_rows)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(2, 4), st.integers(1, 4),
       st.booleans(), st.data())
def test_rational_products_match_fraction_loops(n, k, m, cancel, data):
    a = data.draw(rational_rows(n, k))
    b = data.draw(rational_rows(k, m))
    vec = data.draw(rational_rows(1, k))[0]
    if cancel:
        # row 0 of a . b and entry 0 of a . vec are sums that cancel to 0
        x = data.draw(_NONZERO_RATIONALS)
        a[0] = [x, -x] + [QQ.zero] * (k - 2)
        b[1] = list(b[0])
        vec[1] = vec[0]
    fa = LinMap.from_rows(QQ, (k,), (n,), a)
    fb = LinMap.from_rows(QQ, (m,), (k,), b)
    product = fa.compose(fb).entries
    assert product == _fraction_product(a, b)
    _assert_canonical(product)
    if cancel:
        assert all(x is QQ.zero for x in product[0])
    tensor = kron(fa, fb).entries
    assert tensor == tuple(tuple(x * y for x in ra for y in rb)
                           for ra in a for rb in b)
    _assert_canonical(tensor)
    image = fa.apply(vec)
    assert image == tuple(r[0] for r in _fraction_product(a, [[v] for v in vec]))
    _assert_canonical([image])


def _fraction_op_in_unknown(pre, post, lt, xd, xc, rt):
    """The matrix of X |-> post . (1_L (x) X (x) 1_R) . pre, one column per
    matrix unit E_rs, by plain Fraction products."""
    cols = []
    for r in range(xc):
        for s in range(xd):
            mid = [[Fraction(0)] * (lt * xd * rt) for _ in range(lt * xc * rt)]
            for l in range(lt):
                for rho in range(rt):
                    mid[(l * xc + r) * rt + rho][(l * xd + s) * rt + rho] = \
                        Fraction(1)
            image = _fraction_product(post, _fraction_product(mid, pre))
            cols.append([x for row in image for x in row])
    return tuple(zip(*cols))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.booleans(), st.data())
def test_rational_op_in_unknown_matches_fraction_loops(lt, rt, xd, xc, dd, ee,
                                                       cancel, data):
    pre = data.draw(rational_rows(lt * xd * rt, dd))
    post = data.draw(rational_rows(ee, lt * xc * rt))
    if cancel and lt == 2:
        # the l = 1 half of pre repeats the l = 0 half and post's row 0 negates
        # it, so every sum over l in the rows (0, d) cancels
        half = xd * rt
        pre[half:] = [list(row) for row in pre[:half]]
        post[0][xc * rt:] = [-x for x in post[0][:xc * rt]]
    fpre = LinMap.from_rows(QQ, (dd,), (lt, xd, rt), pre)
    fpost = LinMap.from_rows(QQ, (lt, xc, rt), (ee,), post)
    op = op_in_unknown((xd,), (xc,), [(1, (fpre, (lt,), (rt,), fpost))]).entries
    assert op == _fraction_op_in_unknown(pre, post, lt, xd, xc, rt)
    _assert_canonical(op)
    if cancel and lt == 2:
        assert all(x is QQ.zero for row in op[:dd] for x in row)


# -- products with unit-selection factors -------------------------------------

SELECTION_FIELDS = {None: QQ, 2: GF(2), 3: GF(3), 7: GF(7)}


def _selection_rows(field, picked, n_cols):
    """Dense rows with a 1 in column picked[i] of row i, none where it is None."""
    return [[field.one if c == j else field.zero for c in range(n_cols)]
            for j in picked]


@st.composite
def unit_selections(draw, field):
    """A map whose every row is empty or a single 1: an identity (0x0 and 1x1
    included), a permutation, a twist, or a selection of n_cols columns that
    may leave rows empty and either picks no column twice or picks one
    column in two rows at the end."""
    kind = draw(st.sampled_from(["identity", "permutation", "twist",
                                 "injective", "repeated"]))
    if kind == "identity":
        return LinMap.identity(field, (draw(st.integers(0, 4)),))
    if kind == "twist":
        return LinMap.twist(field, (draw(st.integers(0, 3)),),
                            (draw(st.integers(0, 3)),))
    n_cols = draw(st.integers(0, 5))
    if kind == "permutation":
        picked = draw(st.permutations(range(n_cols)))
    else:
        column = st.integers(0, n_cols - 1) if n_cols else st.nothing()
        picked = draw(st.lists(st.none() | column, max_size=5))
        if kind == "injective":
            picked = [j if j not in picked[:i] else None
                      for i, j in enumerate(picked)]
        elif n_cols:
            picked += [draw(column)] * 2
    return LinMap.from_rows(field, (n_cols,), (len(picked),),
                            _selection_rows(field, picked, n_cols))


@st.composite
def other_factors(draw, field, n_rows, n_cols):
    """Dense rows for the other factor of a product: a unit selection, a
    selection whose last row holds two 1s (found only at that row), or
    values (Fractions with denominators over Q, about a third zero)."""
    kind = draw(st.sampled_from(["selection", "late", "values"]))
    if kind != "values":
        column = st.integers(0, n_cols - 1) if n_cols else st.none()
        picked = draw(st.lists(st.none() | column, min_size=n_rows,
                               max_size=n_rows))
        rows = _selection_rows(field, picked, n_cols)
        if kind == "late" and n_rows and n_cols > 1:
            rows[-1][0] = rows[-1][-1] = field.one
        return rows
    if field.p is None:
        return draw(rational_rows(n_rows, n_cols))
    cells = st.tuples(st.integers(0, 2), st.integers(1, field.p - 1))
    return [[v if u else 0 for u, v in draw(st.lists(cells, min_size=n_cols,
                                                     max_size=n_cols))]
            for _ in range(n_rows)]


def _assert_product(field, got, expected):
    """got holds exactly the expected dense rows, in canonical sparse form."""
    assert got.entries == tuple(map(tuple, expected))
    # the whole record, den included, and so its hash
    want = LinMap.from_rows(field, got.domain, got.codomain, expected)
    assert got == want and hash(got) == hash(want)
    if field.p is None:
        _assert_canonical(got.entries)
    else:
        assert got.den == 1
        assert all(type(x) is int and 0 < x < field.p
                   for nz in got.nonzeros for _, x in nz)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(SELECTION_FIELDS)), st.integers(0, 4),
       st.integers(0, 3), st.data())
def test_products_with_unit_selections_match_naive_loops(p, m, n, data):
    field = SELECTION_FIELDS[p]
    s = data.draw(unit_selections(field))
    sel = s.entries
    b = data.draw(other_factors(field, s.cols, m))
    fb = LinMap.from_rows(field, (m,), (s.cols,), b)
    _assert_product(field, s.compose(fb), _naive_product(field, sel, b, m))
    a = data.draw(other_factors(field, m, s.rows))
    fa = LinMap.from_rows(field, (s.rows,), (m,), a)
    _assert_product(field, fa.compose(s), _naive_product(field, a, sel, s.cols))
    c = data.draw(other_factors(field, n, m))
    fc = LinMap.from_rows(field, (m,), (n,), c)
    _assert_product(field, kron(s, fc), _naive_kron(field, sel, c))
    _assert_product(field, kron(fc, s), _naive_kron(field, c, sel))


# -- the two accumulators of compose ------------------------------------------

def _fills(fa, fb):
    """Whether fa . fb is expected to fill its rows, so that compose sums
    each row in a dense list: nnz(fa) nnz(fb) / rows(fb) >= its cells."""
    nnz = sum(map(len, fa.nonzeros)) * sum(map(len, fb.nonzeros))
    return nnz >= fa.rows * fb.cols * fb.rows


def _spread(field, n_cols, entries):
    """A dense row of n_cols values, entries[j] at column j."""
    return [entries.get(j, field.zero) for j in range(n_cols)]


def _q_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _dense_operands():
    """Products with every operand entry nonzero, by field."""
    f = Fraction
    # a[0] = (b[0] + b[1] - 2 b[2]) / 2 cancels to 0; dens 2.3.5.7 and 3.4
    q_cancel = (_q_rows([[f(1, 2), f(1, 2), -1], [f(-3, 5), f(1, 7), 2],
                         [f(1, 6), -5, 3]]),
                _q_rows([[f(1, 3), -2, f(5, 4)], [f(5, 3), 4, f(-1, 4)],
                         [1, 1, f(1, 2)]]))
    # (1/2)(1/3) + (1/2)(1/3) = 2/6: the constructor reduces den 6 to 3
    q_gcd = (_q_rows([[f(1, 2), f(1, 2)]]),
             _q_rows([[f(1, 3), f(1, 3)], [f(1, 3), f(-1, 3)]]))
    # 3 + 4 = 7 and 1 + 6 = 7 vanish mod 7
    f7 = ([[3, 4], [1, 6], [2, 5]], [[1, 2, 3], [1, 5, 6]])
    return [(QQ, *q_cancel), (QQ, *q_gcd), (GF(7), *f7)]


def _wide_sparse_operands():
    """Products of a few nonzeros into 40 columns, by field."""
    f = Fraction
    # row 0 at column 39 sums (-1/2) 4 + (2/3) 3 = 0 over Q, 3 + 4 = 7 over
    # GF(7); over Q the product's den 30 reduces to 10
    q = (QQ, [{3: f(-1, 2), 17: f(2, 3)}, {29: f(5, 6)}, {}],
         {3: {0: f(1, 5), 39: 4}, 17: {39: 3}, 29: {7: f(-3, 5)}})
    f7 = (GF(7), [{3: 3, 17: 4}, {29: 5}, {}],
          {3: {0: 2, 39: 1}, 17: {39: 1}, 29: {7: 6}})
    return [(field, [_spread(field, 30, r) for r in a],
             [_spread(field, 40, b.get(k, {})) for k in range(30)])
            for field, a, b in (q, f7)]


@pytest.mark.parametrize("case", range(3), ids=["Q-cancel", "Q-gcd", "F7"])
def test_a_product_that_fills_its_rows_matches_naive_loops(case):
    field, a, b = _dense_operands()[case]
    fa = LinMap.from_rows(field, (len(b),), (len(a),), a)
    fb = LinMap.from_rows(field, (len(b[0]),), (len(b),), b)
    assert _fills(fa, fb)
    got = fa.compose(fb)
    _assert_product(field, got, _naive_product(field, a, b))
    if case == 0:
        assert not got.nonzeros[0]
    elif case == 1:
        assert (fa.den * fb.den, got.den) == (6, 3)
    else:
        assert len(got.nonzeros[0]) < len(b[0])


@pytest.mark.parametrize("case", range(2), ids=["Q", "F7"])
def test_a_wide_sparse_product_matches_naive_loops(case):
    field, a, b = _wide_sparse_operands()[case]
    fa = LinMap.from_rows(field, (30,), (3,), a)
    fb = LinMap.from_rows(field, (40,), (30,), b)
    assert not _fills(fa, fb)
    got = fa.compose(fb)
    _assert_product(field, got, _naive_product(field, a, b))
    assert [j for j, _ in got.nonzeros[0]] == [0]
    if field.p is None:
        assert got.den == 10 < fa.den * fb.den


@pytest.mark.parametrize("field", [GF(7), QQ], ids=["F7", "Q"])
def test_a_wide_sparse_product_holds_no_row_of_its_width(field):
    # two rows, one nonzero each, after a diagonal of 2s (not a selection):
    # a dense accumulator would hold n ints per row
    n = 200_000
    fa = LinMap(field, (n,), (2,), (((5, 3),), ((n - 1, 3),)))
    diagonal = LinMap(field, (n,), (n,), tuple([((i, 2),) for i in range(n)]))
    tracemalloc.start()
    try:
        got = fa.compose(diagonal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nonzeros == (((5, 6),), ((n - 1, 6),))
    assert peak < n * 8


def test_compose_is_the_one_product_that_multiplies():
    field = GF(5)
    fa = LinMap.from_rows(field, (2,), (2,), [[1, 2], [3, 0]])
    fb = LinMap.from_rows(field, (3,), (2,), [[0, 4, 1], [2, 2, 0]])
    calls = []
    compose = LinMap.compose
    with mock.patch.object(LinMap, "compose",
                           lambda m, other: calls.append(m) or compose(m, other)):
        assert fa.apply((1, 4)) == (4, 3)
        assert len(calls) == 1
        calls.clear()
        assert kron(fa, fb).entries == _naive_kron(field, fa.entries, fb.entries)
        assert len(calls) == 1
        calls.clear()
        kron(fa, LinMap.twist(field, (2,), (3,)))
        kron(LinMap.identity(field, (2,)), fb)
        assert not calls


# -- right inverses and equations of a solution set ---------------------------

@settings(max_examples=60, deadline=None)
@given(sparse_systems())
def test_right_inverse_columns_are_the_particular_solutions(system):
    p, rows, _ = system
    field = FIELDS[p]
    n_cols = len(rows[0])
    m = LinMap.from_rows(field, (n_cols,), (len(rows),), rows)
    units = [tuple(field.one if i == t else field.zero for i in range(m.rows))
             for t in range(m.rows)]
    solutions = [solve_affine(m, e) for e in units]
    if not all(sol.feasible for sol in solutions):
        with pytest.raises(InputError):
            right_inverse(m)
        return
    r = right_inverse(m)
    assert tuple(zip(*r.entries)) == tuple(sol.particular for sol in solutions)
    assert m.compose(r).equals(LinMap.identity(field, (m.rows,)))


@settings(max_examples=60, deadline=None)
@given(sparse_systems())
def test_equations_have_the_same_solution_set(system):
    p, rows, rhs = system
    field = FIELDS[p]
    m = LinMap.from_rows(field, (len(rows[0]),), (len(rows),), rows)
    sol = solve_affine(m, rhs)
    if not sol.feasible:
        with pytest.raises(InputError):
            sol.equations()
        return
    again = solve_affine(*sol.equations())
    assert again.particular == sol.particular
    assert again.homogeneous == sol.homogeneous


# -- one-pass assembly of a linear condition ----------------------------------

def _one_term(term, x_dom, x_cod):
    return op_in_unknown(x_dom, x_cod, [(1, term)])


def _assembled_block(field, x_dom, x_cod, lhs, rhs):
    sys_ = LinearConstraints(field, x_dom, x_cod)
    sys_.require("condition", lhs, rhs)
    return sys_.blocks[0].matrix


@st.composite
def condition_terms(draw, field):
    """(x_dom, x_cod, lhs, rhs): two terms (pre, L, R, post) on one unknown
    with the same D and E, each side with its own L and R, and factors that
    are unit selections or values (over Q with their own denominators)."""
    xd, xc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dd, ee = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    terms = []
    for _ in range(2):
        lt, rt = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        pre = draw(other_factors(field, lt * xd * rt, dd))
        post = draw(other_factors(field, ee, lt * xc * rt))
        terms.append((LinMap.from_rows(field, (dd,), (lt, xd, rt), pre),
                      (lt,), (rt,),
                      LinMap.from_rows(field, (lt, xc, rt), (ee,), post)))
    return (xd,), (xc,), terms[0], terms[1]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(SELECTION_FIELDS)), st.data())
def test_signed_assembly_matches_the_difference_of_its_sides(p, data):
    field = SELECTION_FIELDS[p]
    x_dom, x_cod, lhs, rhs = data.draw(condition_terms(field))
    expected = _one_term(lhs, x_dom, x_cod).sub(_one_term(rhs, x_dom, x_cod))
    got = op_in_unknown(x_dom, x_cod, [(1, lhs), (-1, rhs)])
    block = _assembled_block(field, x_dom, x_cod, lhs, rhs)
    for m in (got, block):
        assert (m.domain, m.codomain) == (expected.domain, expected.codomain)
        _assert_product(field, m, expected.entries)


def test_signed_assembly_over_q_with_different_denominators():
    # lhs: X |-> (1/3) X . diag(1, 1/2); rhs: X |-> (1/4) X, on 2x2 unknowns
    third = kron(LinMap.element(QQ, SCALAR, (Fraction(1, 3),)),
                 LinMap.identity(QQ, (2,)))
    half = LinMap.from_rows(QQ, (2,), (2,), [[q(1), q(0)], [q(0), Fraction(1, 2)]])
    quarter = kron(LinMap.element(QQ, SCALAR, (Fraction(1, 4),)),
                   LinMap.identity(QQ, (2,)))
    lhs = (half, SCALAR, SCALAR, third)
    rhs = (LinMap.identity(QQ, (2,)), SCALAR, SCALAR, quarter)
    block = _assembled_block(QQ, (2,), (2,), lhs, rhs)
    expected = _one_term(lhs, (2,), (2,)).sub(_one_term(rhs, (2,), (2,)))
    assert block == expected
    # vec(X) entry (r, s) -> output (r, s) with (1/3) c_s - 1/4, c = (1, 1/2)
    diagonal = {r * 2 + s: Fraction(1, 3) * (1, Fraction(1, 2))[s] - Fraction(1, 4)
                for r in range(2) for s in range(2)}
    assert block == LinMap.from_rows(QQ, (2, 2), (2, 2), [
        [diagonal[k] if j == k else q(0) for j in range(4)] for k in range(4)])
    _assert_canonical(block.entries)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([None, 5]), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3), st.data())
def test_mixed_signs_match_the_signed_sum_of_one_term_references(p, xd, xc, dd,
                                                                 ee, data):
    # three terms signed +, -, +, each with its own L and R; over Q each
    # term's pre carries one more denominator of its own (2, 3 or 5)
    field = QQ if p is None else GF(p)
    terms = []
    expected = [[0] * (xc * xd) for _ in range(ee * dd)]
    for sign, (lt, rt), den in zip((1, -1, 1), ((1, 2), (2, 1), (2, 2)),
                                   (2, 3, 5)):
        pre = data.draw(other_factors(field, lt * xd * rt, dd))
        post = data.draw(other_factors(field, ee, lt * xc * rt))
        if p is None:
            pre = [[x / den for x in row] for row in pre]
        terms.append((sign, (LinMap.from_rows(field, (dd,), (lt, xd, rt), pre),
                             (lt,), (rt,),
                             LinMap.from_rows(field, (lt, xc, rt), (ee,), post))))
        reference = _fraction_op_in_unknown(pre, post, lt, xd, xc, rt)
        for row, ref in zip(expected, reference):
            row[:] = [x + sign * y for x, y in zip(row, ref)]
    if p is not None:
        expected = [[int(x) % p for x in row] for row in expected]
    _assert_product(field, op_in_unknown((xd,), (xc,), terms), expected)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_equal_sides_give_only_empty_rows(field):
    pre = LinMap.from_rows(field, (3,), (2, 2, 1),
                           [[field.of_int(v) for v in row] for row in
                            [[1, 2, 0], [0, 1, 1], [2, 0, 3], [1, 1, 1]]])
    post = LinMap.from_rows(field, (2, 2, 1), (2,),
                            [[field.of_int(v) for v in row] for row in
                             [[1, 0, 2, 1], [0, 3, 1, 1]]])
    term = (pre, (2,), SCALAR, post)
    # the same composite, with L and R written as other shapes
    again = (pre.reshaped(codomain=(1, 2, 2)), (1, 2), (1,),
             post.reshaped(domain=(1, 2, 2, 1)))
    for rhs in (term, again):
        block = _assembled_block(field, (2,), (2,), term, rhs)
        assert block.nonzeros == ((),) * 6
        assert block.codomain == (2, 3)


def test_terms_of_different_shapes_are_rejected():
    x = (2,)
    ident = LinMap.identity(QQ, x)
    wide = LinMap.from_rows(QQ, (3,), x, [[q(1), q(0), q(0)], [q(0), q(1), q(0)]])
    tall = LinMap.from_rows(QQ, x, (3,), [[q(1), q(0)], [q(0), q(1)], [q(1), q(1)]])
    sys_ = LinearConstraints(QQ, x, x)
    # D differs: the lhs starts from 2 dimensions, the rhs from 3
    with pytest.raises(InputError):
        sys_.require("D", (ident, SCALAR, SCALAR, ident),
                     (wide, SCALAR, SCALAR, ident))
    # E differs: the lhs lands in 2 dimensions, the rhs in 3
    with pytest.raises(InputError):
        sys_.require("E", (ident, SCALAR, SCALAR, ident),
                     (ident, SCALAR, SCALAR, tall))
    # a term on the wrong unknown
    with pytest.raises(InputError):
        sys_.require("X", (tall, SCALAR, SCALAR, ident))
    assert sys_.blocks == []
    # no term at all
    with pytest.raises(InputError):
        op_in_unknown(x, x, [])


# -- chains of products in any order ------------------------------------------

@st.composite
def chains(draw, field):
    """2 to 5 composable maps, each a unit selection or values."""
    dims = draw(st.lists(st.integers(0, 4), min_size=3, max_size=6))
    return [LinMap.from_rows(field, (dims[i + 1],), (dims[i],),
                             draw(other_factors(field, dims[i], dims[i + 1])))
            for i in range(len(dims) - 1)]


def _left_to_right(maps):
    out = maps[0]
    for m in maps[1:]:
        out = out.compose(m)
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(SELECTION_FIELDS)), st.data())
def test_compose_all_matches_left_to_right(p, data):
    field = SELECTION_FIELDS[p]
    maps = data.draw(chains(field))
    got, expected = compose_all(*maps), _left_to_right(maps)
    assert (got.domain, got.codomain) == (expected.domain, expected.codomain)
    _assert_product(field, got, expected.entries)


def _error(fn, *args):
    with pytest.raises(InputError) as info:
        fn(*args)
    return str(info.value)


def test_compose_all_mismatch_raises_the_left_to_right_error():
    f = LinMap.identity(QQ, (2,))
    g = LinMap.zero(QQ, (3,), (2,))
    h = LinMap.zero(QQ, (2,), (4,))     # g's domain is 3, h's codomain 4
    k = LinMap.zero(QQ, (5,), (3,))     # g's domain is 3, k's codomain 3
    for maps in ([f, g, h], [f, g, h, k], [f, g, k, f], [g, f, h], [k, k, f]):
        assert _error(compose_all, *maps) == _error(_left_to_right, maps)
    other = LinMap.identity(GF(3), (2,))
    assert _error(compose_all, f, f, other) == _error(_left_to_right, [f, f, other])
