import itertools
from fractions import Fraction

import pytest

from entwine import (Algebra, Bimodule, GF, LinMap, QQ, Subspace,
                     cohomology_dim, make_example, regular_bimodule,
                     relative_complex)
from entwine.hochschild import verify_bimodule
from entwine.structures import verify_algebra
from entwine.errors import DomainError
from entwine.linalg import kron

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


@pytest.mark.parametrize("n, field, expected", [
    (2, GF(2), [2, 2, 2]),
    (3, GF(3), [3, 3, 3]),
    (2, QQ, [2, 0, 0]),
    (3, QQ, [3, 0, 0]),
], ids=["C2-GF2", "C3-GF3", "C2-Q", "C3-Q"])
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
    assert [oracle.rank(cx.boundaries[k].entries, p=p)
            for k in range(3)] == ranks
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
    full = Subspace.full(QQ, (2,))
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
    bad = Subspace.from_vectors(QQ, (2,), [(q(0), q(1))])
    with pytest.raises(DomainError, match="unital subalgebra"):
        relative_complex(c2_q.alg, bad, regular_bimodule(c2_q.alg))


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


def upper_triangular():
    """T2 over Q: basis e11, e12, e22 with e11 e11 = e11, e11 e12 = e12,
    e12 e22 = e12, e22 e22 = e22, every other product zero."""
    table = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}
    rows = [[q(1) if table.get((i, j)) == out else q(0)
             for i in range(3) for j in range(3)] for out in range(3)]
    return Algebra(3, LinMap.from_rows(QQ, (3, 3), (3,), rows),
                   (q(1), q(0), q(1)))


def test_vanishing_regular_h1_does_not_make_separable():
    # T2 over the ground field has zero regular-bimodule H^1, yet it is not
    # separable: e12 spans a nonzero square-zero ideal, and the outer
    # bimodule A (x) A, whose H^1 vanishes for a separable extension, has
    # nonzero H^1
    alg = upper_triangular()
    assert verify_algebra(alg).ok
    e12 = (q(0), q(1), q(0))
    assert not any(alg.multiply(e12, e12))
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
