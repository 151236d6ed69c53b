"""Write the rational-basis fixture documents used by test_cli_golden.py.

Each document is a catalog entry re-expressed in a seeded random basis of A
and of C whose change-of-basis matrices have non-integral inverses, so the
structure constants carry denominators other than 1.  The change of basis
is P = (permutation) . D . L . U with D diagonal over {1, 2, 3, 1/2, 2/3},
L and U unit triangular with entries in {-1, 0, 1}; the conjugation
formulas are those of perfbench/gen.py.  Only fractions.Fraction arithmetic
is used, never the library's linear algebra.  The documents are committed;
run this once to rewrite them:

    PYTHONPATH=src python tests/golden/rational_docs.py
"""

import json
import os
import random
from fractions import Fraction

from entwine import QQ, make_example

HERE = os.path.join(os.path.dirname(__file__), "docs")

# stem -> (catalog name, parameters, seed)
DOCS = {
    "rat_sweedler_q": ("hopf_self_galois", {"hopf": "sweedler"}, 1),
    "rat_ext_q3": ("hopf_self_galois", {"n": 3}, 2),
    "rat_coext_q3": ("self_coextension", {"n": 3}, 3),
}


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def kron(a, b):
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def inverse(m):
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        pr = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pr] = aug[pr], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                fac = aug[r][c]
                aug[r] = [x - fac * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def random_basis(rng, n):
    scales = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
              Fraction(2, 3))
    d = [[rng.choice(scales) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    lower = [[Fraction(1 if i == j else rng.choice((-1, 0, 1)) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else rng.choice((-1, 0, 1)) if i < j else 0)
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    m = matmul(pm, matmul(d, matmul(lower, upper)))
    return m, inverse(m)


def _rows(linmap):
    return [list(row) for row in linmap.entries]


def _json(m):
    return [[str(x) for x in row] for row in m]


def document(name, params, seed):
    payload = make_example(name, dict(params, field=QQ)).payload
    alg, coalg = payload.alg, payload.coalg
    rng = random.Random(f"rational-golden:{seed}")
    pa, pa_inv = random_basis(rng, alg.dim)
    qc, qc_inv = random_basis(rng, coalg.dim)
    mult = matmul(pa_inv, matmul(_rows(alg.mult), kron(pa, pa)))
    unit = matmul(pa_inv, [[x] for x in alg.unit])
    comult = matmul(kron(qc_inv, qc_inv), matmul(_rows(coalg.comult), qc))
    counit = matmul([list(coalg.counit)], qc)
    doc = {"schema": "entwine/1", "field": {"kind": "Q"},
           "algebra": {"dim": alg.dim, "mult": _json(mult),
                       "unit": [str(r[0]) for r in unit]},
           "coalgebra": {"dim": coalg.dim, "comult": _json(comult),
                         "counit": [str(x) for x in counit[0]]}}
    if hasattr(payload, "rho_a"):
        doc["coactionA"] = _json(matmul(kron(pa_inv, qc_inv),
                                        matmul(_rows(payload.rho_a), pa)))
    else:
        doc["actionC"] = _json(matmul(qc_inv, matmul(_rows(payload.rho_c),
                                                     kron(qc, pa))))
    return doc


if __name__ == "__main__":
    os.makedirs(HERE, exist_ok=True)
    for stem, (name, params, seed) in DOCS.items():
        with open(os.path.join(HERE, f"{stem}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(document(name, params, seed), fh, indent=1)
            fh.write("\n")
