"""Seeded input generation: catalog data re-expressed in a random basis.

Catalog data has integer structure constants (0, 1 and -1), so a basis
change stays in integer arithmetic when the change of basis is unimodular:
over Q the change is a permutation times a unit lower and a unit upper
triangular matrix with entries in {-1, 0, 1}, whose inverse is again an
integer matrix; over GF(p) it is a uniformly drawn invertible matrix.  The
generator never calls the library's linear algebra, so a change to the
library cannot change the documents, and the same seed always gives the
same bytes.

For a basis change P of A (columns are the new basis in old coordinates)
and Q of C:
    mult'   = P^-1 . mult . (P x P)        unit'   = P^-1 . unit
    comult' = (Q^-1 x Q^-1) . comult . Q   counit' = counit . Q
    coaction' (A -> A x C) = (P^-1 x Q^-1) . coaction . P
    action'   (C x A -> C) = Q^-1 . action . (Q x P)
"""

from __future__ import annotations

import json
import random

SCHEMA = "entwine/1"


# ---------------------------------------------------------------------------
# integer matrices (lists of lists), reduced mod p when p is given


def _reduce(m, p):
    if p is None:
        return m
    return [[x % p for x in row] for row in m]


def matmul(a, b, p=None):
    n, k, w = len(a), len(b), len(b[0])
    out = [[0] * w for _ in range(n)]
    for i in range(n):
        row, acc = a[i], out[i]
        for t in range(k):
            x = row[t]
            if x:
                brow = b[t]
                for j in range(w):
                    y = brow[j]
                    if y:
                        acc[j] += x * y
    return _reduce(out, p)


def kron(a, b, p=None):
    out = []
    for arow in a:
        for brow in b:
            out.append([x * y for x in arow for y in brow])
    return _reduce(out, p)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def inverse(m, p=None):
    """Exact inverse by Gauss-Jordan; over Q the input is unimodular, so the
    result is an integer matrix (checked)."""
    from fractions import Fraction
    n = len(m)
    if p is None:
        aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(m)]
    else:
        aug = [[x % p for x in row] + [int(i == j) for j in range(n)]
               for i, row in enumerate(m)]
    for c in range(n):
        pr = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        piv = aug[c][c]
        inv = 1 / piv if p is None else pow(piv, p - 2, p)
        aug[c] = [x * inv if p is None else (x * inv) % p for x in aug[c]]
        for r in range(n):
            fac = aug[r][c]
            if r != c and fac != 0:
                aug[r] = [x - fac * y if p is None else (x - fac * y) % p
                          for x, y in zip(aug[r], aug[c])]
    out = [row[n:] for row in aug]
    if p is None:
        if any(x.denominator != 1 for row in out for x in row):
            raise ValueError("basis change is not unimodular")
        out = [[int(x) for x in row] for row in out]
    return out


def random_basis(rng: random.Random, n: int, p=None):
    """(P, P^-1) for a seeded random change of basis of dimension n."""
    if p is not None:
        while True:
            m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            inv = inverse(m, p)
            if inv is not None:
                return m, inv
    lower = identity(n)
    upper = identity(n)
    for i in range(n):
        for j in range(n):
            if i > j:
                lower[i][j] = rng.choice((-1, 0, 1))
            elif i < j:
                upper[i][j] = rng.choice((-1, 0, 1))
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    m = matmul(pm, matmul(lower, upper))
    return m, inverse(m)


# ---------------------------------------------------------------------------
# documents


def _fmt(x, p):
    return x % p if p is not None else str(x)


def _mat_json(m, p):
    return [[_fmt(x, p) for x in row] for row in m]


def _vec_json(v, p):
    return [_fmt(x, p) for x in v]


def _field_json(p):
    return {"kind": "Q"} if p is None else {"kind": "Fp", "p": p}


def _int(x, p):
    """A catalog scalar as an integer (catalog data is integral)."""
    if p is not None:
        return int(x)
    if x.denominator != 1:
        raise ValueError("catalog datum is not integral")
    return int(x.numerator)


def _ints(linmap, p):
    return [[_int(x, p) for x in row] for row in linmap.entries]


def conjugated_document(alg, coalg, *, coaction=None, action=None, p=None,
                        rng: random.Random | None = None) -> dict:
    """An entwine/1 document for (alg, coalg, coaction or action), expressed
    in seeded random bases of A and C (the catalog basis when rng is None)."""
    da, dc = alg.dim, coalg.dim
    if rng is None:
        pa = pa_inv = identity(da)
        qc = qc_inv = identity(dc)
    else:
        pa, pa_inv = random_basis(rng, da, p)
        qc, qc_inv = random_basis(rng, dc, p)
    mult = matmul(pa_inv, matmul(_ints(alg.mult, p), kron(pa, pa, p), p), p)
    unit = [r[0] for r in matmul(pa_inv, [[_int(x, p)] for x in alg.unit], p)]
    comult = matmul(kron(qc_inv, qc_inv, p),
                    matmul(_ints(coalg.comult, p), qc, p), p)
    counit = matmul([[_int(x, p) for x in coalg.counit]], qc, p)[0]
    doc = {"schema": SCHEMA, "field": _field_json(p),
           "algebra": {"dim": da, "mult": _mat_json(mult, p),
                       "unit": _vec_json(unit, p)},
           "coalgebra": {"dim": dc, "comult": _mat_json(comult, p),
                         "counit": _vec_json(counit, p)}}
    if coaction is not None:
        rho = matmul(kron(pa_inv, qc_inv, p),
                     matmul(_ints(coaction, p), pa, p), p)
        doc["coactionA"] = _mat_json(rho, p)
    if action is not None:
        act = matmul(qc_inv, matmul(_ints(action, p), kron(qc, pa, p), p), p)
        doc["actionC"] = _mat_json(act, p)
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))
