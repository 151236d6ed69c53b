from fractions import Fraction

import pytest

from entwine import (GF, LinMap, QQ, default_catalog, entwining_of,
                     make_example, tensor_entwining, twist_entwining,
                     verify_entwining, verify_morphism)
from entwine.entwining import (Entwining, counit_morphism, ground_entwining,
                               identity_morphism, unit_morphism)
from entwine.errors import DomainError, InputError


def q(x):
    return Fraction(x)


def catalog_pairs(field):
    """All (algebra, coalgebra) pairs carried by the default catalog."""
    pairs = []
    for entry in default_catalog(field):
        ent = entwining_of(entry)
        pairs.append((ent.alg, ent.coalg))
    return pairs


def test_twist_passes_on_all_catalog_pairs():
    for field in (QQ, GF(2), GF(3)):
        for alg, coalg in catalog_pairs(field):
            assert verify_entwining(twist_entwining(alg, coalg)).ok


def test_canonical_c2_psi_formula(c2_q):
    # psi(g_i (x) g_j) = g_j (x) g_{i+j}, checked entry by entry
    psi = c2_q.ent.psi
    for i in range(2):
        for j in range(2):
            col = psi.column(i * 2 + j)
            for p in range(2):
                for k in range(2):
                    expected = q(1) if (p == j and k == (i + j) % 2) else q(0)
                    assert col[p * 2 + k] == expected
    assert verify_entwining(c2_q.ent).ok


def test_perturbed_twist_fails(hopf_c2_q):
    tw = twist_entwining(hopf_c2_q.alg, hopf_c2_q.coalg)
    rows = [list(r) for r in tw.psi.entries]
    rows[0][0] = q(2)
    bad = Entwining(hopf_c2_q.alg, hopf_c2_q.coalg,
                    LinMap.from_rows(QQ, (2, 2), (2, 2), rows))
    report = verify_entwining(bad)
    assert not report.ok
    assert any(f.law == "unitality" for f in report.failures)


def test_invalid_entwining_constructor_raises(hopf_c2_q):
    tw = twist_entwining(hopf_c2_q.alg, hopf_c2_q.coalg)
    rows = [list(r) for r in tw.psi.entries]
    rows[0][0] = q(2)
    from entwine import make_entwining
    with pytest.raises(DomainError):
        make_entwining(hopf_c2_q.alg, hopf_c2_q.coalg,
                       LinMap.from_rows(QQ, (2, 2), (2, 2), rows))


def test_identity_morphism_passes_everywhere():
    for field in (QQ, GF(2)):
        for entry in default_catalog(field):
            ent = entwining_of(entry)
            assert verify_morphism(identity_morphism(ent)).ok


def test_counit_and_unit_morphisms_pass_everywhere():
    for field in (QQ, GF(3)):
        for entry in default_catalog(field):
            ent = entwining_of(entry)
            assert verify_morphism(counit_morphism(ent)).ok
            assert verify_morphism(unit_morphism(ent)).ok


def test_tensor_with_ground_is_identity(c2_q):
    e = c2_q.ent
    t = tensor_entwining(e, ground_entwining(QQ))
    assert t.psi.entries == e.psi.entries
    t2 = tensor_entwining(ground_entwining(QQ), e)
    assert t2.psi.entries == e.psi.entries


def test_twist_tensor_twist_is_twist():
    h2 = make_example("group_algebra", {"field": QQ, "n": 2}).payload
    tw = twist_entwining(h2.alg, h2.coalg)
    t = tensor_entwining(tw, tw)
    expected = twist_entwining(t.alg, t.coalg)
    assert t.psi.equals(expected.psi)


def test_tensor_closure(c2_q):
    t = tensor_entwining(c2_q.ent, c2_q.ent)
    assert verify_entwining(t).ok
    assert t.alg.dim == 4 and t.coalg.dim == 4


def test_tensor_field_mismatch_rejected(c2_q, c2_f2):
    with pytest.raises(InputError):
        tensor_entwining(c2_q.ent, c2_f2.ent)


def test_entwining_unit_counit_invariants():
    # for every accepted entwining: psi(c (x) 1) = 1 (x) c and
    # (A (x) eps) psi = eps (x) A hold on the nose
    from entwine.linalg import kron
    for entry in default_catalog(QQ):
        e = entwining_of(entry)
        lhs = e.psi.compose(kron(e.coalg.identity(), e.alg.unit_map()))
        rhs = kron(e.alg.unit_map(), e.coalg.identity())
        assert lhs.equals(rhs)
        lhs2 = kron(e.alg.identity(), e.coalg.counit_map()).compose(e.psi)
        rhs2 = kron(e.coalg.counit_map(), e.alg.identity())
        assert lhs2.equals(rhs2)


def test_tensor_of_mixed_canonical_entwinings():
    e2 = make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload.ent
    e3 = make_example("hopf_self_galois", {"field": QQ, "n": 3}).payload.ent
    t = tensor_entwining(e2, e3)
    assert t.alg.dim == 6 and t.coalg.dim == 6
    assert verify_entwining(t).ok
