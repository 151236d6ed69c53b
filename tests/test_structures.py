from fractions import Fraction

import pytest

from entwine import (Algebra, Coalgebra, DomainError, LinMap, QQ, Subspace,
                     dual_swap, quotient_coalgebra, verify_algebra,
                     verify_coalgebra)
from entwine.catalog import cyclic_group_hopf, function_group_hopf
from entwine.errors import InconsistencyError

from constructions import full_subspace


def q(x):
    return Fraction(x)


def test_group_algebra_passes(hopf_c2_q):
    assert verify_algebra(hopf_c2_q.alg).ok
    assert verify_coalgebra(hopf_c2_q.coalg).ok


def test_broken_unit_reports_witness(hopf_c2_q):
    alg = hopf_c2_q.alg
    bad = Algebra(2, alg.mult, (q(0), q(1)))
    report = verify_algebra(bad)
    assert not report.ok
    laws = {fail.law for fail in report.failures}
    assert "left unit" in laws or "right unit" in laws
    assert all(isinstance(fail.at, tuple) for fail in report.failures)


def test_require_turns_a_failed_report_into_its_error(hopf_c2_q):
    report = verify_algebra(Algebra(2, hopf_c2_q.alg.mult, (q(0), q(1))))
    line = str(report)
    assert line == "algebra: FAIL " + "; ".join(
        f"{fail.law} fails at basis index {fail.at}" for fail in report.failures)
    with pytest.raises(DomainError) as err:
        report.require()
    assert str(err.value) == line
    assert err.value.witness == report.failures[0]
    with pytest.raises(InconsistencyError, match="^algebra: FAIL "):
        report.require(InconsistencyError)
    clean = verify_algebra(hopf_c2_q.alg)
    assert str(clean) == "algebra: ok"
    clean.require()


def test_one_dimensional_algebra():
    a = Algebra(1, LinMap.from_rows(QQ, (1, 1), (1,), [[q(1)]]), (q(1),))
    assert verify_algebra(a).ok


def test_grouplike_coalgebra_and_broken_counit():
    h = cyclic_group_hopf(2, QQ)
    assert verify_coalgebra(h.coalg).ok
    bad = Coalgebra(2, h.coalg.comult, (q(0), q(1)))
    assert not verify_coalgebra(bad).ok


def test_dual_swap_involution(hopf_c2_q):
    alg = hopf_c2_q.alg
    assert dual_swap(dual_swap(alg)) == alg
    coalg = hopf_c2_q.coalg
    assert dual_swap(dual_swap(coalg)) == coalg


def test_dual_of_group_algebra_is_function_coalgebra():
    n = 3
    h = cyclic_group_hopf(n, QQ)
    dual = dual_swap(h.alg)
    # convolution coproduct: the class over position k splits as all (i, j)
    # with i + j = k
    for k in range(n):
        col = dual.comult.column(k)
        for i in range(n):
            for j in range(n):
                expected = q(1) if (i + j) % n == k else q(0)
                assert col[i * n + j] == expected
    assert verify_coalgebra(dual).ok


def test_dual_passes_axioms_iff_original_does():
    for n in (1, 2, 3):
        h = cyclic_group_hopf(n, QQ)
        assert verify_coalgebra(dual_swap(h.alg)).ok
        assert verify_algebra(dual_swap(h.coalg)).ok
    fh = function_group_hopf(2, QQ)
    assert verify_coalgebra(dual_swap(fh.alg)).ok


def test_quotient_by_zero_is_identity(hopf_c2_q):
    c = hopf_c2_q.coalg
    result, proj = quotient_coalgebra(c, Subspace.from_vectors(QQ, (2,), []))
    assert result.dim == 2
    assert proj.equals(LinMap.identity(QQ, (2,)))


def test_quotient_by_augmentation_coideal(hopf_c2_q):
    c = hopf_c2_q.coalg
    coideal = Subspace.from_vectors(QQ, (2,), [(q(1), q(-1))])
    result, proj = quotient_coalgebra(c, coideal)
    assert result.dim == 1
    assert verify_coalgebra(result).ok
    # the projection intertwines the structure maps exactly
    from entwine.linalg import kron
    assert kron(proj, proj).compose(c.comult).equals(result.comult.compose(proj))


def test_quotient_by_everything_rejected(hopf_c2_q):
    c = hopf_c2_q.coalg
    with pytest.raises(DomainError):
        quotient_coalgebra(c, full_subspace(QQ, (2,)))


def test_non_coideal_rejected_with_witness():
    # the alternating sum in the order-four group-like coalgebra kills the
    # counit but its coproduct escapes I (x) C + C (x) I
    h = cyclic_group_hopf(4, QQ)
    sub = Subspace.from_vectors(QQ, (4,), [(q(1), q(-1), q(1), q(-1))])
    with pytest.raises(DomainError) as err:
        quotient_coalgebra(h.coalg, sub)
    assert err.value.witness is not None


def test_coideal_failures_name_the_first_failing_basis_vector():
    # the witness is the first vector of I's echelon basis that breaks the
    # condition, not merely the first basis vector
    h = cyclic_group_hopf(4, QQ)
    counit_bad = Subspace.from_vectors(QQ, (4,), [(q(1), q(-1), q(0), q(0)),
                                                  (q(0), q(0), q(1), q(0))])
    with pytest.raises(DomainError, match="counit") as err:
        quotient_coalgebra(h.coalg, counit_bad)
    assert err.value.witness.law == "counit vanishing"
    assert counit_bad.basis[err.value.witness.at[0]] == (q(0), q(0), q(1), q(0))
    comult_bad = Subspace.from_vectors(QQ, (4,), [(q(1), q(0), q(-1), q(0)),
                                                  (q(0), q(1), q(1), q(-2))])
    with pytest.raises(DomainError, match="comultiplication") as err:
        quotient_coalgebra(h.coalg, comult_bad)
    assert err.value.witness.law == "comultiplication closure"
    assert comult_bad.basis[err.value.witness.at[0]] == (q(0), q(1), q(1), q(-2))


def test_dual_of_broken_structure_fails_too():
    # duality transports axiom failures: a broken counit becomes a broken
    # unit on the other side
    h = cyclic_group_hopf(2, QQ)
    bad = Coalgebra(2, h.coalg.comult, (q(0), q(1)))
    assert not verify_coalgebra(bad).ok
    assert not verify_algebra(dual_swap(bad)).ok
