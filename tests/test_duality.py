"""Coextension certificates checked by hand, as a regression net for building
a coextension as the Galois extension of its transposed data.

Every catalog self-coextension (n = 2, 3, 4, 6 and the function-algebra
version for n = 2, 3) over Q, GF(2), GF(3), GF(5) and GF(7), and the
committed random-basis document `rat_coext_q3.json`, is built by the
library; its coideal, cotensor square, upsilon, cointegral, kappa and
cotranslation map are then checked against the structure constants with
plain loops and the independent row reducer in `tests/oracle.py`, never
with the library's verifiers or solver.
"""

import functools
import os
from fractions import Fraction

import pytest

from entwine import (GF, QQ, build_coextension, dual_entwining,
                     make_example, schema)
from entwine.galois import cotranslation_map, pointed_kappa
from entwine.separability import check_coseparable

import oracle

FIELDS = {"Q": QQ, "GF2": GF(2), "GF3": GF(3), "GF5": GF(5), "GF7": GF(7)}
CATALOG = [("self", n, False) for n in (2, 3, 4, 6)] + \
    [("dual", n, True) for n in (2, 3)]
RAT_DOC = os.path.join(os.path.dirname(__file__), "golden", "docs",
                       "rat_coext_q3.json")
CASES = [f"{kind}_n{n}_{fname}" for kind, n, _ in CATALOG
         for fname in FIELDS] + ["rat_coext_q3"]


@functools.lru_cache(maxsize=None)
def _coextension(case):
    if case == "rat_coext_q3":
        with open(RAT_DOC, encoding="utf-8") as fh:
            doc = schema.parse_document(fh.read())
        return build_coextension(doc.coalgebra, doc.algebra, doc.action_c)
    kind, n, fname = case.split("_")
    return make_example("self_coextension",
                        {"field": FIELDS[fname], "n": int(n[1:]),
                         "dual": kind == "dual"}).payload


class _Data:
    """Dense structure constants of a coextension and exact reduction:
    D[i*dc+j][k] (comultiplication), eps[k], M[r][a*da+b] (multiplication),
    unit[r] and R[m][k*da+b] (the action C (x) A -> C)."""

    def __init__(self, x):
        self.p = x.field.p
        self.dc, self.da = x.coalg.dim, x.alg.dim
        self.D = x.coalg.comult.entries
        self.eps = tuple(x.coalg.counit)
        self.M = x.alg.mult.entries
        self.unit = tuple(x.alg.unit)
        self.R = x.rho_c.entries

    def red(self, v):
        return v % self.p if self.p else v

    def reds(self, vec):
        return [self.red(v) for v in vec]

    def delta(self, k):
        """The nonzero terms (i, j, coefficient) of Delta(e_k)."""
        dc = self.dc
        return [(i, j, self.D[i * dc + j][k]) for i in range(dc)
                for j in range(dc) if self.D[i * dc + j][k]]

    def act(self, k, b):
        """e_k . e_b as a dense vector of C."""
        return [self.R[m][k * self.da + b] for m in range(self.dc)]

    def cocan(self, k, b):
        """c1 (x) c2 . a for c = e_k, a = e_b, as a flat vector of C (x) C."""
        dc = self.dc
        out = [0] * (dc * dc)
        for i, j, d in self.delta(k):
            for m, r in enumerate(self.act(j, b)):
                out[i * dc + m] += d * r
        return self.reds(out)


def _kernel_basis(rows, width, p):
    """A basis of the solutions of rows . v = 0, by the oracle."""
    if not rows:
        return [[1 if t == s else 0 for t in range(width)]
                for s in range(width)]
    return oracle.solve(rows, [0] * len(rows), p)[1]


def _cotensor_rows(data, coideal):
    """Rows whose kernel in C (x) C is C []_B C for B = C / coideal: for each
    functional phi vanishing on the coideal, (C (x) phi (x) C) applied to
    (Delta (x) C - C (x) Delta)(v) must vanish."""
    dc = data.dc
    rows = []
    for phi in _kernel_basis([list(v) for v in coideal], dc, data.p):
        for i in range(dc):
            for l in range(dc):
                row = [0] * (dc * dc)
                for a in range(dc):
                    for j in range(dc):
                        row[a * dc + l] += data.D[i * dc + j][a] * phi[j]
                for b in range(dc):
                    for j in range(dc):
                        row[i * dc + b] -= phi[j] * data.D[j * dc + l][b]
                rows.append(data.reds(row))
    return rows


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@pytest.mark.parametrize("case", CASES)
def test_coideal_and_cotensor_square_by_hand(case):
    x = _coextension(case)
    data = _Data(x)
    dc, da, p = data.dc, data.da, data.p
    # the coideal is spanned by the second-slot contractions of
    # Delta(c . a) - c1 (x) c2 . a over basis c, a
    spanners = []
    for k in range(dc):
        for b in range(da):
            w = [0] * (dc * dc)
            for m, r in enumerate(data.act(k, b)):
                for i, j, d in data.delta(m):
                    w[i * dc + j] += r * d
            for i, j, d in data.delta(k):
                for m, r in enumerate(data.act(j, b)):
                    w[i * dc + m] -= d * r
            for t in range(dc):
                spanners.append([data.red(w[s * dc + t]) for s in range(dc)])
    coideal = [list(v) for v in x.coideal.basis]
    assert oracle.rank(coideal, p) == len(coideal) == oracle.rank(spanners, p)
    assert oracle.rank(spanners + coideal, p) == len(coideal)
    assert x.base.dim == dc - len(coideal)
    # the cotensor square: independent, inside C []_B C, of full dimension,
    # and as big as C (x) A, as a Galois coextension needs
    square = [list(v) for v in x.cosquare.basis]
    rows = _cotensor_rows(data, coideal)
    for v in square:
        assert all(data.red(_dot(row, v)) == 0 for row in rows)
    assert oracle.rank(square, p) == len(square) == dc * da
    assert oracle.kernel_dim(rows, p) == len(square)


@pytest.mark.parametrize("case", CASES)
def test_upsilon_is_a_normalised_colinear_functional(case):
    x = _coextension(case)
    cert = check_coseparable(x)
    if cert is None:
        pytest.skip("not coseparable; feasibility is checked separately")
    data = _Data(x)
    dc, da, p = data.dc, data.da, data.p
    square = [list(v) for v in x.cosquare.basis]
    assert len(cert.upsilon) == len(square)
    # any functional on C (x) C that restricts to upsilon on the square
    ups, _ = oracle.solve(square, list(cert.upsilon), p)
    assert ups is not None
    # (C (x) upsilon)(Delta (x) C) = (upsilon (x) C)(C (x) Delta) on C [] C
    for v in square:
        lhs, rhs = [0] * dc, [0] * dc
        for a in range(dc):
            for b in range(dc):
                if not v[a * dc + b]:
                    continue
                for i, j, d in data.delta(a):
                    lhs[i] += v[a * dc + b] * d * ups[j * dc + b]
                for j, l, d in data.delta(b):
                    rhs[l] += v[a * dc + b] * ups[a * dc + j] * d
        assert data.reds(lhs) == data.reds(rhs)
    # upsilon . Delta = eps, with Delta(c) inside the square
    for k in range(dc):
        diag = [0] * (dc * dc)
        for i, j, d in data.delta(k):
            diag[i * dc + j] = d
        assert oracle.rank(square + [diag], p) == len(square)
        assert data.red(_dot(ups, diag)) == data.eps[k]
    # upsilon pulled back along the canonical map is the cointegral
    y = cert.source_cointegral.value
    for k in range(dc):
        for b in range(da):
            assert data.red(_dot(ups, data.cocan(k, b))) == y[k * da + b]


@pytest.mark.parametrize("case", CASES)
def test_coseparable_iff_cointegral_system_is_feasible(case):
    x = _coextension(case)
    assert dual_entwining(x.ent) == x.dual.ent and \
        dual_entwining(dual_entwining(x.ent)) == x.ent
    data = _Data(x)
    dc, da, p = data.dc, data.da, data.p
    psi = x.ent.psi.entries          # psi[beta*dc+l][j*da+b]
    # c1 y(c2 (x) a) = y(c1 (x) a_alpha) c2^alpha, in y[k*da+b]
    rows = []
    for k in range(dc):
        for b in range(da):
            for m in range(dc):
                row = [0] * (dc * da)
                for i, j, d in data.delta(k):
                    if i == m:
                        row[j * da + b] += d
                    for beta in range(da):
                        row[i * da + beta] -= d * psi[beta * dc + m][j * da + b]
                rows.append(data.reds(row))
    rhs = [0] * len(rows)
    # y(c (x) 1) = eps(c)
    for k in range(dc):
        rows.append([data.unit[b] if s == k else 0
                     for s in range(dc) for b in range(da)])
        rhs.append(data.eps[k])
    feasible = oracle.rank(rows, p) == oracle.rank(
        [row + [t] for row, t in zip(rows, rhs)], p)
    cert = check_coseparable(x)
    assert feasible == (cert is not None)
    if cert is not None:
        y = cert.source_cointegral.value
        assert [data.red(_dot(row, y)) for row in rows] == rhs


@pytest.mark.parametrize("case", CASES)
def test_kappa_is_the_character_of_the_counit(case):
    x = _coextension(case)
    data = _Data(x)
    dc, da, p = data.dc, data.da, data.p
    pivot = next(k for k in range(dc) if data.eps[k])
    inv = 1 / Fraction(data.eps[pivot]) if p is None else \
        pow(data.eps[pivot], p - 2, p)
    # eps(c . a) = eps(c) kappa(a) fixes kappa on the pivot basis vector
    cand = tuple(data.red(_dot(data.eps, data.act(pivot, b)) * inv)
                 for b in range(da))
    factors = all(data.red(_dot(data.eps, data.act(k, b)))
                  == data.red(data.eps[k] * cand[b])
                  for k in range(dc) for b in range(da))
    multiplicative = all(
        data.red(sum(data.M[r][a * da + b] * cand[r] for r in range(da)))
        == data.red(cand[a] * cand[b]) for a in range(da) for b in range(da))
    unital = data.red(_dot(data.unit, cand)) == 1
    expected = cand if factors and multiplicative and unital else None
    assert pointed_kappa(x) == expected


@pytest.mark.parametrize("case", CASES)
def test_cotranslation_map_laws_by_hand(case):
    x = _coextension(case)
    if x.base.dim != 1 or pointed_kappa(x) is None:
        pytest.skip("cotranslation map needs a pointed coextension of k")
    data = _Data(x)
    dc, da = data.dc, data.da
    G = cotranslation_map(x).entries     # G[r][c*dc+c']

    def gamma(c, c2):
        return [G[r][c * dc + c2] for r in range(da)]

    def times(u, w):
        return [sum(u[s] * w[t] * data.M[r][s * da + t]
                    for s in range(da) if u[s] for t in range(da) if w[t])
                for r in range(da)]
    e = [[1 if r == s else 0 for r in range(da)] for s in range(da)]
    for c in range(dc):
        for c2 in range(dc):
            # gamma(c (x) c') a = gamma(c (x) c' . a)
            for b in range(da):
                acted = [0] * da
                for m, r in enumerate(data.act(c2, b)):
                    for s, g in enumerate(gamma(c, m)):
                        acted[s] += r * g
                assert data.reds(times(gamma(c, c2), e[b])) == \
                    data.reds(acted)
            # gamma(c (x) c'1) gamma(c'2 (x) c'') = eps(c') gamma(c (x) c'')
            for c3 in range(dc):
                lhs = [0] * da
                for i, j, d in data.delta(c2):
                    for r, v in enumerate(times(gamma(c, i), gamma(j, c3))):
                        lhs[r] += d * v
                rhs = [data.eps[c2] * g for g in gamma(c, c3)]
                assert data.reds(lhs) == data.reds(rhs)
    # gamma . Delta = unit . eps
    for k in range(dc):
        norm = [0] * da
        for i, j, d in data.delta(k):
            for r, g in enumerate(gamma(i, j)):
                norm[r] += d * g
        assert data.reds(norm) == data.reds(u * data.eps[k]
                                            for u in data.unit)
