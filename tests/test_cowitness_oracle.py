"""Cointegral and cointegral-map systems assembled by hand.

For every entwining of the default catalog over Q, GF(2), GF(3), GF(5) and
GF(7), normalised or not, the defining identities of a cointegral
y: C (x) A -> k and of a cointegral map zeta: C -> A (x) A are written out
with plain loops over the dense structure constants and reduced by the
independent row reducer in `tests/oracle.py`. The library's solver must
agree on feasibility and nullity, and its particular solution must satisfy
the hand-built rows. Nothing here uses the library's operator assembly.
"""

import functools

import pytest

from entwine import GF, QQ, WitnessKind, solve_witness

from constructions import default_catalog, entwining_of
import oracle

FIELDS = {"Q": QQ, "GF2": GF(2), "GF3": GF(3), "GF5": GF(5), "GF7": GF(7)}


@functools.lru_cache(maxsize=None)
def _catalog(fname):
    return tuple(entwining_of(entry) for entry in default_catalog(FIELDS[fname]))


CASES = [(fname, i) for fname in FIELDS for i in range(len(_catalog("Q")))]


class _Data:
    """Dense structure constants of an entwining: D[i*dc+j][k]
    (comultiplication), eps[k], M[r][a*da+b] (multiplication), unit[r] and
    P[beta*dc+l][j*da+b] (psi: C (x) A -> A (x) C)."""

    def __init__(self, e):
        self.p = e.field.p
        self.dc, self.da = e.coalg.dim, e.alg.dim
        self.D = e.coalg.comult.entries
        self.eps = tuple(e.coalg.counit)
        self.M = e.alg.mult.entries
        self.unit = tuple(e.alg.unit)
        self.P = e.psi.entries

    def reds(self, vec):
        return [v % self.p if self.p else v for v in vec]


def _cointegral_rows(d, normalized):
    """Rows and right-hand side on y[k*da+b] = y(c_k (x) a_b)."""
    dc, da = d.dc, d.da
    rows, rhs = [], []
    # c1 y(c2 (x) a) = y(c1 (x) a_alpha) c2^alpha, output leg m
    for k in range(dc):
        for b in range(da):
            for m in range(dc):
                row = [0] * (dc * da)
                for i in range(dc):
                    for j in range(dc):
                        dk = d.D[i * dc + j][k]
                        if not dk:
                            continue
                        if i == m:
                            row[j * da + b] += dk
                        for beta in range(da):
                            row[i * da + beta] -= \
                                dk * d.P[beta * dc + m][j * da + b]
                rows.append(d.reds(row))
                rhs.append(0)
    if normalized:
        # y(c (x) 1) = eps(c)
        for k in range(dc):
            row = [0] * (dc * da)
            for b in range(da):
                row[k * da + b] = d.unit[b]
            rows.append(d.reds(row))
            rhs.append(d.eps[k])
    return rows, rhs


def _cointegral_map_rows(d, normalized):
    """Rows and right-hand side on zeta[(r*da+s)*dc+k], the coefficient of
    a_r (x) a_s in zeta(c_k)."""
    dc, da = d.dc, d.da
    width = da * da * dc

    def z(k, r, s):
        return (r * da + s) * dc + k
    rows, rhs = [], []
    # zeta(c)^1 (x) zeta(c)^2 a = a_alpha zeta(c^alpha)^1 (x) zeta(c^alpha)^2
    for k in range(dc):
        for b in range(da):
            for u in range(da):
                for v in range(da):
                    row = [0] * width
                    for s in range(da):
                        row[z(k, u, s)] += d.M[v][s * da + b]
                    for beta in range(da):
                        for l in range(dc):
                            pb = d.P[beta * dc + l][k * da + b]
                            if not pb:
                                continue
                            for r in range(da):
                                row[z(l, r, v)] -= pb * d.M[u][beta * da + r]
                    rows.append(d.reds(row))
                    rhs.append(0)
    # zeta(c1) (x) c2 = (A (x) psi)(psi (x) A)(c1 (x) zeta(c2)), output (u, v, w)
    for k in range(dc):
        for u in range(da):
            for v in range(da):
                for w in range(dc):
                    row = [0] * width
                    for i in range(dc):
                        for j in range(dc):
                            dk = d.D[i * dc + j][k]
                            if not dk:
                                continue
                            if j == w:
                                row[z(i, u, v)] += dk
                            for r in range(da):
                                for s in range(da):
                                    coef = sum(d.P[u * dc + l][i * da + r]
                                               * d.P[v * dc + w][l * da + s]
                                               for l in range(dc))
                                    row[z(j, r, s)] -= dk * coef
                    rows.append(d.reds(row))
                    rhs.append(0)
    if normalized:
        # zeta(c)^1 zeta(c)^2 = eps(c) 1
        for k in range(dc):
            for u in range(da):
                row = [0] * width
                for r in range(da):
                    for s in range(da):
                        row[z(k, r, s)] += d.M[u][r * da + s]
                rows.append(d.reds(row))
                rhs.append(d.reds([d.eps[k] * d.unit[u]])[0])
    return rows, rhs


HAND = {WitnessKind.COINTEGRAL: _cointegral_rows,
        WitnessKind.COINTEGRAL_MAP: _cointegral_map_rows}


@pytest.mark.parametrize("kind", list(HAND), ids=lambda k: k.value)
@pytest.mark.parametrize("normalized", [True, False],
                         ids=["normalised", "unnormalised"])
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}_{c[1]}")
def test_cowitness_system_matches_hand_rows(case, normalized, kind):
    fname, i = case
    e = _catalog(fname)[i]
    d = _Data(e)
    rows, rhs = HAND[kind](d, normalized)
    p = d.p
    feasible = oracle.rank(rows, p) == oracle.rank(
        [row + [t] for row, t in zip(rows, rhs)], p)
    sol = solve_witness(kind, e, normalized=normalized)
    assert sol.feasible == feasible
    assert sol.homogeneous.dim == oracle.kernel_dim(rows, p)
    if feasible:
        got = [sum(a * x for a, x in zip(row, sol.particular))
               for row in rows]
        assert d.reds(got) == d.reds(rhs)
