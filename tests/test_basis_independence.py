"""Answers that do not depend on the basis, and the paper's implications.

Each example is a catalog Galois extension (hopf_self_galois with n <= 3,
and Sweedler's algebra) over Q, GF(2), GF(3) or GF(7), re-expressed in a
random basis of A and of C.  Over Q the change of basis is the one of
tests/golden/rational_docs.py, P = (permutation) . D . L . U with D diagonal
over {1, 2, 3, 1/2, 2/3}; over GF(p) it is the same construction mod p.
The conjugation uses plain Fraction or integer arithmetic, never the
library's linear algebra, and the document goes through the JSON schema.

In the drawn basis the answers (separable, split, strong, the first
Hochschild cohomology, the lambda and frakz families) must equal those in
the catalog basis, the implications between them must hold, and every
certificate must re-verify.
"""

import functools
import math
import os
import random
import sys

from hypothesis import given, settings, strategies as st

from entwine import GF, QQ, WitnessKind, make_example, schema
from entwine.entwining import counit_morphism
from entwine.galois import build_galois
from entwine.hochschild import _assemble_complex, cohomology_dim, regular_bimodule
from entwine.separability import (check_strongly_separable,
                                  expectation_violations, verify_idempotent,
                                  verify_strong)
from entwine.witness import (check_witness, cointegrability_system,
                             integrability_system, particular_witness)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))
import rational_docs  # noqa: E402

# (catalog name, parameters, whether the lambda family is compared): the
# lambda system of Sweedler's algebra in a random basis over Q takes seconds
ENTRIES = [("hopf_self_galois", {"n": 1}, True),
           ("hopf_self_galois", {"n": 2}, True),
           ("hopf_self_galois", {"n": 3}, True),
           ("hopf_self_galois", {"hopf": "sweedler"}, False)]
# Sweedler's algebra degenerates in characteristic 2
DRAWS = [(index, p) for index in range(len(ENTRIES)) for p in (None, 2, 3, 7)
         if not (p == 2 and "hopf" in ENTRIES[index][1])]


# ---------------------------------------------------------------------------
# the change of basis mod p


def _matmul_p(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def _kron_p(a, b, p):
    return [[x * y % p for x in arow for y in brow] for arow in a for brow in b]


def _inverse_p(m, p):
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        pr = next(r for r in range(c, n) if aug[r][c] % p)
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                fac = aug[r][c]
                aug[r] = [(x - fac * y) % p for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _random_basis_p(rng, n, p):
    d = [[rng.randrange(1, p) if i == j else 0 for j in range(n)]
         for i in range(n)]
    lower = [[1 if i == j else rng.choice((p - 1, 0, 1)) if i > j else 0
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.choice((p - 1, 0, 1)) if i < j else 0
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    m = _matmul_p(pm, _matmul_p(d, _matmul_p(lower, upper, p), p), p)
    return m, _inverse_p(m, p)


def _arithmetic(p):
    """(matmul, kron, random_basis, to_json) over Q (p None) or GF(p)."""
    if p is None:
        return (rational_docs.matmul, rational_docs.kron,
                rational_docs.random_basis, str)
    return (lambda a, b: _matmul_p(a, b, p), lambda a, b: _kron_p(a, b, p),
            lambda rng, n: _random_basis_p(rng, n, p), int)


def _rows(linmap, p):
    return [[x if p is None else int(x) for x in row] for row in linmap.entries]


def conjugated_extension(name, params, p, rng):
    """The catalog extension in random bases of A and C (the catalog basis
    when rng is None), rebuilt from its JSON document."""
    field = QQ if p is None else GF(p)
    ext = make_example(name, dict(params, field=field)).payload
    matmul, kron, random_basis, js = _arithmetic(p)
    alg, coalg = ext.alg, ext.coalg
    if rng is None:
        pa = pa_inv = [[int(i == j) for j in range(alg.dim)]
                       for i in range(alg.dim)]
        qc = qc_inv = [[int(i == j) for j in range(coalg.dim)]
                       for i in range(coalg.dim)]
    else:
        pa, pa_inv = random_basis(rng, alg.dim)
        qc, qc_inv = random_basis(rng, coalg.dim)
    mult = matmul(pa_inv, matmul(_rows(alg.mult, p), kron(pa, pa)))
    unit = [r[0] for r in matmul(pa_inv, _rows(alg.unit_map(), p))]
    comult = matmul(kron(qc_inv, qc_inv), matmul(_rows(coalg.comult, p), qc))
    counit = matmul([[x if p is None else int(x) for x in coalg.counit]], qc)
    rho = matmul(kron(pa_inv, qc_inv), matmul(_rows(ext.rho_a, p), pa))
    doc = {"schema": "entwine/1",
           "field": {"kind": "Q"} if p is None else {"kind": "Fp", "p": p},
           "algebra": {"dim": alg.dim,
                       "mult": [[js(x) for x in row] for row in mult],
                       "unit": [js(x) for x in unit]},
           "coalgebra": {"dim": coalg.dim,
                         "comult": [[js(x) for x in row] for row in comult],
                         "counit": [js(x) for x in counit[0]]},
           "coactionA": [[js(x) for x in row] for row in rho]}
    parsed = schema.parse_document(doc)
    return build_galois(parsed.algebra, parsed.coalgebra, parsed.coaction_a)


# ---------------------------------------------------------------------------
# answers


def _family(build, mor):
    """(feasible, family dimension, rank) of a functor-level system, with
    its particular solution re-checked on the system that was solved."""
    sys_, _ = build(mor, total=True)
    sol = sys_.solve()
    if sol.feasible:
        assert sys_.violations(sol.particular) == []
    nullity = sol.homogeneous.dim
    return sol.feasible, nullity, math.prod(sol.homogeneous.ambient) - nullity


def answers(ext, with_lambda):
    """The basis-free answers about ext, after re-verifying every
    certificate in ext's own basis."""
    strong = check_strongly_separable(ext, "fixed_integral")
    sep, split = strong.separability, strong.split
    integral = particular_witness(WitnessKind.INTEGRAL, ext.ent,
                                  normalized=True)
    cx = _assemble_complex(ext.alg, ext.fixed, regular_bimodule(ext.alg), 1,
                           ext.square)
    h1, _ = cohomology_dim(cx, 1)
    if sep is not None:
        assert verify_idempotent(ext, sep.u) == []
        assert check_witness(WitnessKind.INTEGRAL, ext.ent,
                             sep.source_integral.value) == []
    if split is not None:
        assert expectation_violations(ext, split[0].expectation) == []
    if strong.found:
        cert = strong.certificate
        assert verify_strong(ext, cert.separability.u,
                             cert.split.expectation, cert.tau) == []
    mor = counit_morphism(ext.ent)
    out = {"separable": sep is not None, "split": split is not None,
           "strong": strong.found, "h1": h1,
           "frakz": _family(cointegrability_system, mor)}
    if with_lambda:
        out["lambda"] = _family(integrability_system, mor)
    # the paper's implications
    if out["strong"]:
        assert out["separable"] and out["split"]
    assert out["separable"] == (integral is not None)
    # this holds on the catalog entries checked here, not as a theorem:
    # vanishing regular-bimodule H^1 is necessary for separability but not
    # sufficient (see test_hochschild's upper-triangular algebra)
    assert out["separable"] == (h1 == 0)
    return out


@functools.lru_cache(maxsize=None)
def catalog_answers(index, p):
    name, params, with_lambda = ENTRIES[index]
    return answers(conjugated_extension(name, params, p, None), with_lambda)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(DRAWS), st.integers(0, 2 ** 32))
def test_answers_do_not_depend_on_the_basis(draw, seed):
    index, p = draw
    name, params, with_lambda = ENTRIES[index]
    ext = conjugated_extension(name, params, p, random.Random(seed))
    assert answers(ext, with_lambda) == catalog_answers(index, p)
