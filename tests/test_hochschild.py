import functools
import itertools
import random
from fractions import Fraction

import pytest

from entwine import (Algebra, Bimodule, GF, LinMap, QQ, Subspace,
                     cohomology_dim, make_example, regular_bimodule,
                     relative_complex)
from entwine import hochschild
from entwine.entmod import balanced_power
from entwine.hochschild import _assemble_complex, verify_bimodule
from entwine.structures import verify_algebra
from entwine.errors import DomainError, InconsistencyError
from entwine.linalg import descend, kernel, kron, kron_all

from constructions import full_subspace
import oracle


def q(x):
    return Fraction(x)


def ground_line(field, alg):
    return Subspace.from_vectors(field, (alg.dim,), [tuple(alg.unit)])


def delta1_rows(n, p=None):
    """The degree-one coboundary on Hom(A, A) for the order-n cyclic group
    algebra with scalars taken over the ground line, assembled by hand:
    delta f (s^a, s^b) = s^a f(s^b) - f(s^{a+b}) + f(s^a) s^b."""
    rows = []
    for a in range(n):
        for b in range(n):
            for out in range(n):
                row = [0] * (n * n)
                # s^a f(s^b): coefficient of f(s^b) at position out - a
                row[((out - a) % n) * n + b] += 1
                row[out * n + (a + b) % n] -= 1
                row[((out - b) % n) * n + a] += 1
                rows.append(row)
    return rows


def coboundary_rows(n, degree):
    """The degree-`degree` coboundary on Hom(A^(x)degree, A) for the
    order-n cyclic group algebra over the ground line, assembled by hand:
    delta g (s^a0, ..., s^ak) = s^a0 g(s^a1, ..., s^ak)
        + sum_i (-1)^(i+1) g(..., s^(ai + ai+1), ...)
        + (-1)^(k+1) g(s^a0, ..., s^a(k-1)) s^ak,
    with a cochain g stored as its coefficients g[out][(a1, ..., ak)]."""
    width = n ** degree

    def coord(out, args):
        flat = 0
        for a in args:
            flat = flat * n + a
        return out * width + flat

    rows = []
    for args in itertools.product(range(n), repeat=degree + 1):
        for out in range(n):
            row = [0] * (n * width)
            row[coord((out - args[0]) % n, args[1:])] += 1
            for i in range(degree):
                merged = args[:i] + ((args[i] + args[i + 1]) % n,) + args[i + 2:]
                row[coord(out, merged)] += (-1) ** (i + 1)
            row[coord((out - args[-1]) % n, args[:-1])] += (-1) ** (degree + 1)
            rows.append(row)
    return rows


def library_order(rows, n, degree, p):
    """coboundary_rows re-ordered from (args, out) to the library's
    (out, args), with entries reduced mod p."""
    width = n ** (degree + 1)
    return [tuple(x % p if p else x for x in rows[args * n + out])
            for out in range(n) for args in range(width)]


@pytest.mark.parametrize("n, field, expected", [
    (2, GF(2), [2, 2, 2]),
    (3, GF(3), [3, 3, 3]),
    (2, QQ, [2, 0, 0]),
    (3, QQ, [3, 0, 0]),
    (4, GF(7), [4, 0, 0]),
], ids=["C2-GF2", "C3-GF3", "C2-Q", "C3-Q", "C4-GF7"])
def test_low_degree_cohomology_matches_hand_coboundaries(n, field, expected):
    p = field.p
    deltas = [coboundary_rows(n, k) for k in range(3)]
    ranks = [oracle.rank(rows, p=p) for rows in deltas]
    oracle_dims = [oracle.kernel_dim(deltas[k], p=p) - (ranks[k - 1] if k else 0)
                   for k in range(3)]
    assert oracle_dims == expected
    alg = make_example("hopf_self_galois", {"field": field, "n": n}).payload.alg
    cx = relative_complex(alg, ground_line(field, alg), regular_bimodule(alg),
                          max_degree=2)
    assert [s.dim for s in cx.spaces] == [n ** (k + 1) for k in range(4)]
    # over the ground line every cochain space is the whole Hom space, so
    # cochain coordinates are matrix entries
    for k in range(3):
        assert list(cx.boundaries[k].entries) == library_order(deltas[k], n, k, p)
    assert [cohomology_dim(cx, k)[0] for k in range(3)] == expected


def test_h1_mod2_oracle_first(c2_f2):
    rows = delta1_rows(2)
    assert oracle.kernel_dim(rows, p=2) == 2
    # no inner derivations: the degree-zero coboundary vanishes on a
    # commutative algebra, rank 0
    zero_rows = [[0, 0], [0, 0], [0, 0], [0, 0]]
    assert oracle.rank(zero_rows, p=2) == 0
    cx = relative_complex(c2_f2.alg, ground_line(GF(2), c2_f2.alg),
                          regular_bimodule(c2_f2.alg), max_degree=1)
    dim, reps = cohomology_dim(cx, 1)
    assert dim == 2
    assert reps.dim == 2


def test_h1_rational_vanishes(c2_q):
    rows = delta1_rows(2)
    assert oracle.kernel_dim(rows) == 0
    cx = relative_complex(c2_q.alg, ground_line(QQ, c2_q.alg),
                          regular_bimodule(c2_q.alg), max_degree=1)
    dim, _ = cohomology_dim(cx, 1)
    assert dim == 0


def test_h0_is_centralizer(c2_q):
    cx = relative_complex(c2_q.alg, ground_line(QQ, c2_q.alg),
                          regular_bimodule(c2_q.alg), max_degree=1)
    dim, _ = cohomology_dim(cx, 0)
    assert dim == 2  # commutative algebra: everything centralises


def test_relative_to_itself_telescopes(c2_q):
    full = full_subspace(QQ, (2,))
    cx = relative_complex(c2_q.alg, full, regular_bimodule(c2_q.alg),
                          max_degree=2)
    assert [s.dim for s in cx.spaces] == [2, 2, 2, 2]
    assert cohomology_dim(cx, 1)[0] == 0
    assert cohomology_dim(cx, 2)[0] == 0


def test_coboundary_squares_vanish():
    for field in (QQ, GF(2), GF(3)):
        ext = make_example("hopf_self_galois", {"field": field, "n": 2}).payload
        cx = relative_complex(ext.alg, ground_line(field, ext.alg),
                              regular_bimodule(ext.alg), max_degree=2)
        for lower, upper in zip(cx.boundaries, cx.boundaries[1:]):
            assert upper.compose(lower).is_zero_map()


def test_non_subalgebra_rejected(c2_q):
    # a failed precondition is not a failed law, so its DomainError carries
    # no witness; a witness is always a CheckFailure
    bad = Subspace.from_vectors(QQ, (2,), [(q(0), q(1))])
    with pytest.raises(DomainError, match="unital subalgebra") as err:
        relative_complex(c2_q.alg, bad, regular_bimodule(c2_q.alg))
    assert err.value.witness is None


def test_unital_subalgebra_check():
    alg = make_example("group_algebra", {"field": QQ, "n": 3}).payload.alg

    def span(*vectors):
        return Subspace.from_vectors(QQ, (3,), [tuple(map(q, v)) for v in vectors])
    # no unit
    assert not hochschild._is_unital_subalgebra(alg, span((0, 1, 0)))
    # the unit, but s . s = s^2 leaves span{1, s}
    assert not hochschild._is_unital_subalgebra(alg, span((1, 0, 0), (0, 1, 0)))
    assert hochschild._is_unital_subalgebra(alg, span((2, 0, 0)))
    assert hochschild._is_unital_subalgebra(alg, span((2, 0, 0), (0, 1, 1)))


def test_invalid_bimodule_rejected(c2_q):
    a = c2_q.alg
    broken = Bimodule(2, LinMap.zero(QQ, (2, 2), (2,)),
                      a.mult.reshaped((2, 2), (2,)))
    with pytest.raises(DomainError):
        relative_complex(a, ground_line(QQ, a), broken)


def _outer_bimodule(alg):
    """A (x) A with multiplication on the outside legs only."""
    d = alg.dim
    ida = alg.identity()
    left = kron(alg.mult, ida).reshaped((d, d * d), (d * d,))
    right = kron(ida, alg.mult).reshaped((d * d, d), (d * d,))
    return Bimodule(d * d, left, right)


def test_separable_case_kills_h1_battery(c2_q):
    # whenever the extension is separable, the first cohomology vanishes for
    # every bimodule in the battery
    battery = [regular_bimodule(c2_q.alg), _outer_bimodule(c2_q.alg)]
    for m in battery:
        assert verify_bimodule(c2_q.alg, m).ok
        cx = relative_complex(c2_q.alg, ground_line(QQ, c2_q.alg), m,
                              max_degree=1)
        assert cohomology_dim(cx, 1)[0] == 0


def test_nonseparable_battery_detects(c2_f2):
    battery = [regular_bimodule(c2_f2.alg), _outer_bimodule(c2_f2.alg)]
    dims = []
    for m in battery:
        cx = relative_complex(c2_f2.alg, ground_line(GF(2), c2_f2.alg), m,
                              max_degree=1)
        dims.append(cohomology_dim(cx, 1)[0])
    assert any(d > 0 for d in dims)


def upper_triangular(field=QQ):
    """T2: basis e11, e12, e22 with e11 e11 = e11, e11 e12 = e12,
    e12 e22 = e12, e22 e22 = e22, every other product zero."""
    table = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}
    one, zero = field.one, field.zero
    rows = [[one if table.get((i, j)) == out else zero
             for i in range(3) for j in range(3)] for out in range(3)]
    return Algebra(3, LinMap.from_rows(field, (3, 3), (3,), rows),
                   (one, zero, one))


def test_vanishing_regular_h1_does_not_make_separable():
    # T2 over the ground field has zero regular-bimodule H^1, yet it is not
    # separable: e12 spans a nonzero square-zero ideal, and the outer
    # bimodule A (x) A, whose H^1 vanishes for a separable extension, has
    # nonzero H^1
    alg = upper_triangular()
    assert verify_algebra(alg).ok
    e12 = (q(0), q(1), q(0))
    assert not any(alg.mult.apply(tuple(x * y for x in e12 for y in e12)))
    b = ground_line(QQ, alg)
    regular = relative_complex(alg, b, regular_bimodule(alg), max_degree=1)
    assert cohomology_dim(regular, 1)[0] == 0
    outer = relative_complex(alg, b, _outer_bimodule(alg), max_degree=1)
    assert cohomology_dim(outer, 1)[0] > 0


def test_sweedler_stress_instance_consistency():
    # the four-dimensional stress instance is not semisimple; a nonzero
    # first cohomology and an infeasible normalised-integral system must
    # agree on that
    from entwine import check_separable
    ext = make_example("hopf_self_galois",
                       {"field": QQ, "hopf": "sweedler"}).payload
    cx = relative_complex(ext.alg, ground_line(QQ, ext.alg),
                          regular_bimodule(ext.alg), max_degree=1)
    dim, _ = cohomology_dim(cx, 1)
    assert dim > 0
    assert check_separable(ext) is None


# ---------------------------------------------------------------------------
# coboundaries over a nontrivial subalgebra, against the per-cochain formula


def _matmul(f, a, b):
    return [[functools.reduce(f.add, [f.mul(x, y) for x, y in zip(row, col)],
                              f.zero) for col in zip(*b)] for row in a]


def _random_basis(f, n, rng):
    """(P, P^-1) for a product of random shears and scalings, each factor
    inverted on its own, in plain scalar arithmetic."""
    ident = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    scales = [s for s in map(f.of_int, (1, 2, 3)) if not f.is_zero(s)]
    p, p_inv = ident, ident
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        e, e_inv = [list(r) for r in ident], [list(r) for r in ident]
        c = f.of_int(rng.choice((-1, 1, 2)))
        e[i][j], e_inv[i][j] = c, f.neg(c)
        s = rng.choice(scales)
        e[i][i], e_inv[i][i] = s, f.inv(s)
        e_inv[i][j] = f.mul(e_inv[i][j], f.inv(s))
        p, p_inv = _matmul(f, p, e), _matmul(f, e_inv, p_inv)
    assert _matmul(f, p, p_inv) == ident
    return p, p_inv


def _in_basis(alg, sub_vectors, p, p_inv):
    """The algebra and the span of sub_vectors with the columns of p as the
    new basis: mult becomes p^-1 . mult . (p (x) p)."""
    f = alg.field
    pp = [[f.mul(x, y) for x in arow for y in brow] for arow in p for brow in p]
    mult = _matmul(f, p_inv, _matmul(f, [list(r) for r in alg.mult.entries], pp))
    unit = [r[0] for r in _matmul(f, p_inv, [[x] for x in alg.unit])]
    vecs = [[r[0] for r in _matmul(f, p_inv, [[x] for x in v])]
            for v in sub_vectors]
    new = Algebra(alg.dim, LinMap.from_rows(f, (alg.dim, alg.dim), (alg.dim,),
                                            mult), tuple(unit))
    return new, Subspace.from_vectors(f, (alg.dim,), vecs)


def algebra_over(case, field, rng):
    """(A, B) for a case, in a random basis unless rng is None."""
    if case == "T2":
        alg = upper_triangular(field)
        vectors = [(field.one, field.zero, field.zero),
                   (field.zero, field.zero, field.one)]      # the diagonal
    else:
        n, d = case
        ext = make_example("hopf_quotient_galois",
                           {"field": field, "n": n, "d": d}).payload
        alg, vectors = ext.alg, ext.fixed.basis
    if rng is None:
        return alg, Subspace.from_vectors(field, (alg.dim,), vectors)
    return _in_basis(alg, vectors, *_random_basis(field, alg.dim, rng))


def per_cochain_boundary(cx, n):
    """delta of each degree-n cochain basis vector, one at a time: g read on
    A^n through the balanced power's projection, the n + 2 terms composed as
    full maps and summed entry by entry with their signs, the sum descended
    to the (n+1)-fold power and read in cochain coordinates."""
    alg, m = cx.alg, cx.bimodule
    f, d = alg.field, alg.dim
    src = balanced_power(alg, cx.sub, n)
    dst = balanced_power(alg, cx.sub, n + 1)
    ida = alg.identity()
    faces = [kron_all(LinMap.identity(f, (d,) * i), alg.mult,
                      LinMap.identity(f, (d,) * (n - 1 - i))) for i in range(n)]
    columns = []
    for vec in cx.spaces[n].basis:
        g = LinMap.from_flat(f, (src.dim,), (m.dim,), vec).compose(src.projection)
        terms = ([m.left.compose(kron(ida, g))] + [g.compose(face) for face in faces]
                 + [m.right.compose(kron(g, ida))])
        total = [f.zero] * (m.dim * d ** (n + 1))
        for i, term in enumerate(terms):
            op = f.add if i % 2 == 0 else f.sub
            total = [op(x, y) for x, y in zip(total, term.flat())]
        delta = LinMap.from_flat(f, (d,) * (n + 1), (m.dim,), total)
        columns.append(cx.spaces[n + 1].coords(descend(delta, dst).flat()))
    return columns


def assert_representatives_match_the_oracle(cx, n):
    """cohomology_dim(cx, n) against a greedy reference on oracle ranks
    alone: walk the cycle basis in order and keep each vector that raises
    the rank of the coboundaries and of the vectors kept before it."""
    rank = functools.partial(oracle.rank, p=cx.alg.field.p)
    delta = cx.boundaries[n]
    cycles = [list(v) for v in kernel(delta).basis]
    assert len(cycles) == oracle.kernel_dim(delta.entries, p=cx.alg.field.p)
    assert all(not any(delta.apply(v)) for v in cycles)
    coboundaries = [list(c) for c in zip(*cx.boundaries[n - 1].entries)] if n else []
    kept = []
    for v in cycles:
        if rank(coboundaries + kept + [v]) > rank(coboundaries + kept):
            kept.append(v)
    dim, reps = cohomology_dim(cx, n)
    assert dim == len(kept) == rank(cycles) - rank(coboundaries)
    reps = [list(v) for v in reps.basis]
    assert rank(reps) == rank(kept) == rank(reps + kept)


# the outer bimodule of the six-dimensional algebra is left out: its
# degree-three cochain space alone is a 1944-unknown system over Q
@pytest.mark.parametrize("basis", ["catalog", "random"])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)],
                         ids=["Q", "GF2", "GF3", "GF7"])
@pytest.mark.parametrize("case, bimodule", [
    ((4, 2), regular_bimodule), ((4, 2), _outer_bimodule),
    ((6, 3), regular_bimodule),
    ("T2", regular_bimodule), ("T2", _outer_bimodule),
], ids=["hqg-n4-d2-regular", "hqg-n4-d2-outer", "hqg-n6-d3-regular",
        "T2-regular", "T2-outer"])
def test_boundaries_match_the_per_cochain_formula(case, bimodule, field, basis):
    rng = random.Random(f"{case}:{field}") if basis == "random" else None
    alg, b = algebra_over(case, field, rng)
    assert b.dim == 2
    cx = relative_complex(alg, b, bimodule(alg), max_degree=2)
    for n in range(3):
        expected = per_cochain_boundary(cx, n)
        assert None not in expected
        assert [cx.boundaries[n].column(j)
                for j in range(cx.spaces[n].dim)] == expected
        assert_representatives_match_the_oracle(cx, n)


@pytest.mark.parametrize("n, field", [(2, GF(2)), (3, GF(3))],
                         ids=["C2-GF2", "C3-GF3"])
def test_representatives_match_the_oracle_where_cohomology_is_nonzero(n, field):
    alg = make_example("hopf_self_galois", {"field": field, "n": n}).payload.alg
    rng = random.Random(f"hopf_self_galois:{n}:{field}")
    alg, line = _in_basis(alg, [alg.unit], *_random_basis(field, alg.dim, rng))
    cx = relative_complex(alg, line, regular_bimodule(alg), max_degree=2)
    assert [cohomology_dim(cx, k)[0] for k in range(3)] == [n, n, n]
    for k in range(3):
        assert_representatives_match_the_oracle(cx, k)


def test_assembly_checks_raise_inconsistency(monkeypatch):
    # _assemble_complex trusts its caller's checks; inputs that break them
    # trip its own descent, cochain-space and square checks
    t2, diagonal = algebra_over("T2", QQ, None)
    unbalanced = balanced_power(t2, ground_line(QQ, t2), 2)
    with pytest.raises(InconsistencyError, match="does not descend"):
        _assemble_complex(t2, diagonal, regular_bimodule(t2), 2, unbalanced)
    # T2 acting on k^2 by matrices on the left and by transposes on the
    # right: both actions are unital and associative but do not commute
    natural = [(0, 0, 0), (0, 1, 1), (1, 2, 1)]       # (out, e_ij, in)
    transposed = [(0, 0, 0), (1, 1, 0), (1, 2, 1)]
    left = [[q(0)] * 6 for _ in range(2)]
    right = [[q(0)] * 6 for _ in range(2)]
    for out, a, x in natural:
        left[out][a * 2 + x] = q(1)
    for out, a, x in transposed:
        right[out][x * 3 + a] = q(1)
    m = Bimodule(2, LinMap.from_rows(QQ, (3, 2), (2,), left),
                 LinMap.from_rows(QQ, (2, 3), (2,), right))
    with pytest.raises(InconsistencyError, match="square does not vanish"):
        _assemble_complex(t2, ground_line(QQ, t2), m, 1)
    # a degree-two cochain space emptied under the assembly
    real = hochschild._cochain_space

    def emptied(alg_, b_, m_, power):
        space = real(alg_, b_, m_, power)
        if len(power.ambient) < 2:
            return space
        return Subspace.zero(QQ, space.ambient)
    monkeypatch.setattr(hochschild, "_cochain_space", emptied)
    c2 = make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload.alg
    with pytest.raises(InconsistencyError, match="does not lie in"):
        _assemble_complex(c2, ground_line(QQ, c2), regular_bimodule(c2), 1)
