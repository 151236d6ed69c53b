import hashlib
import json
from fractions import Fraction
from math import prod

import pytest

from entwine import (DomainError, GF, InputError, LinMap, QQ, WitnessKind,
                     check_witness, cointegral_from_casimir,
                     cointegral_map_from_can_inv, integral_from_invariant,
                     integral_map_from_cotranslation, lambda_from_nu,
                     make_example, nu_from_lambda, solve_witness)
from entwine.entmod import hom_AC, regular_module, standard_module
from entwine.entwining import counit_morphism, unit_morphism
from entwine.errors import CheckFailure
from entwine.witness import (as_witness, cointegrability_system,
                             frakz_witness, gamma_from_lambda,
                             integrability_system, lambda_from_gamma,
                             lambda_witness, witness_shapes)
import oracle


def q(x):
    return Fraction(x)


# -- the hand-assembled integral system ---------------------------------------

def integral_system_rows(n):
    """Centrality rows of the canonical entwining of the order-n cyclic
    group, assembled from first principles: for each group element a = s^m,
    a.z lands at (j+m, i) while z.a lands at (j+m, i+m)."""
    rows = []
    for m in range(n):
        for p in range(n):
            for qq in range(n):
                row = [0] * (n * n)
                for j in range(n):
                    for i in range(n):
                        if (j + m) % n == p and i == qq:
                            row[j * n + i] += 1
                        if (j + m) % n == p and (i + m) % n == qq:
                            row[j * n + i] -= 1
                rows.append(row)
    return rows


def normalisation_rows(n):
    rows, rhs = [], []
    for j in range(n):
        row = [0] * (n * n)
        for i in range(n):
            row[j * n + i] = 1
        rows.append(row)
        rhs.append(1 if j == 0 else 0)
    return rows, rhs


def test_integral_oracle_first_then_solver(c2_q):
    rows = integral_system_rows(2)
    nrows, nrhs = normalisation_rows(2)
    particular, kernel = oracle.solve(rows + nrows, [0] * len(rows) + nrhs)
    assert particular == [Fraction(1, 2), Fraction(1, 2), 0, 0]
    assert kernel == []
    sol = solve_witness(WitnessKind.INTEGRAL, c2_q.ent, normalized=True)
    assert sol.particular == tuple(particular)
    assert sol.homogeneous.dim == 0


def test_integral_infeasible_mod2_oracle_first(c2_f2):
    rows = integral_system_rows(2)
    nrows, nrhs = normalisation_rows(2)
    particular, _ = oracle.solve(rows + nrows, [0] * len(rows) + nrhs, p=2)
    assert particular is None
    sol = solve_witness(WitnessKind.INTEGRAL, c2_f2.ent, normalized=True)
    assert not sol.feasible


def test_unnormalized_integrals(c2_f2):
    # without the normalisation the mod-2 system still has solutions
    sol = solve_witness(WitnessKind.INTEGRAL, c2_f2.ent, normalized=False)
    assert sol.feasible
    assert sol.homogeneous.dim == 2
    for v in sol.homogeneous.basis:
        assert not check_witness(WitnessKind.INTEGRAL, c2_f2.ent, v,
                                 normalized=False)


def test_integral_map_family(c2_q):
    sol = solve_witness(WitnessKind.INTEGRAL_MAP, c2_q.ent, normalized=True)
    assert sol.feasible
    assert sol.homogeneous.dim == 1
    # identity pattern: gamma(g_i (x) g_i) = 1, zero off the diagonal
    delta = [q(0)] * 8
    delta[0], delta[3] = q(1), q(1)
    assert sol.contains(tuple(delta))
    # one-parameter direction: gamma(g_i (x) g_j) = s (the other group
    # element) off the diagonal
    shifted = list(delta)
    shifted[4 + 1], shifted[4 + 2] = q(1), q(1)
    assert sol.contains(tuple(shifted))
    # everything in the family passes the identity checker
    for member in sol.members([(q(-1), q(0), q(1))] * sol.homogeneous.dim):
        assert not check_witness(WitnessKind.INTEGRAL_MAP, c2_q.ent, member,
                                 normalized=True)


def test_cointegral_map_contains_can_inv_unit(c2_q):
    sol = solve_witness(WitnessKind.COINTEGRAL_MAP, c2_q.ent, normalized=True)
    assert sol.feasible
    zeta = [q(0)] * 8
    zeta[0 * 2 + 0] = q(1)   # zeta(1) = 1 (x) 1
    zeta[3 * 2 + 1] = q(1)   # zeta(s) = s (x) s
    assert sol.contains(tuple(zeta))


def test_solution_family_closure(c2_q):
    # substituting particular plus each homogeneous basis vector passes the
    # defining identities, for every witness kind
    for kind in WitnessKind:
        sol = solve_witness(kind, c2_q.ent, normalized=True)
        if not sol.feasible:
            continue
        assert not check_witness(kind, c2_q.ent, sol.particular, True)
        f = QQ
        for h in sol.homogeneous.basis:
            member = tuple(f.add(a, b) for a, b in zip(sol.particular, h))
            assert not check_witness(kind, c2_q.ent, member, True)


def test_witness_rejects_bad_candidate(c2_q):
    # the first basis vector of the unknown fails every kind's identities
    for kind in WitnessKind:
        dom, cod = witness_shapes(kind, c2_q.ent)
        bad = (q(1),) + (q(0),) * (prod(dom + cod) - 1)
        assert check_witness(kind, c2_q.ent, bad, True)
        with pytest.raises(DomainError):
            as_witness(kind, c2_q.ent, bad, True)


# -- functor-level solvers -----------------------------------------------------

def test_counit_morphism_equivalences(c2_q, c2_f2):
    for ext in (c2_q, c2_f2):
        mor = counit_morphism(ext.ent)
        frz = cointegrability_system(mor)[0].solve()
        integral = solve_witness(WitnessKind.INTEGRAL, ext.ent, True)
        assert frz.feasible == integral.feasible
        lam = integrability_system(mor)[0].solve()
        gam = solve_witness(WitnessKind.INTEGRAL_MAP, ext.ent, True)
        assert lam.feasible == gam.feasible


def test_unit_morphism_equivalences(c2_q, c2_f2):
    for ext in (c2_q, c2_f2):
        mor = unit_morphism(ext.ent)
        lam = integrability_system(mor)[0].solve()
        coi = solve_witness(WitnessKind.COINTEGRAL, ext.ent, True)
        assert lam.feasible == coi.feasible
        frz = cointegrability_system(mor)[0].solve()
        coim = solve_witness(WitnessKind.COINTEGRAL_MAP, ext.ent, True)
        assert frz.feasible == coim.feasible


def test_gamma_lambda_bijection(c2_q):
    mor = counit_morphism(c2_q.ent)
    lam_sol = integrability_system(mor)[0].solve()
    gam_sol = solve_witness(WitnessKind.INTEGRAL_MAP, c2_q.ent, True)
    assert lam_sol.homogeneous.dim == gam_sol.homogeneous.dim
    # particular and every homogeneous direction map into the other family
    lamw = lambda_witness(mor, lam_sol.particular)
    gam = gamma_from_lambda(lamw)
    gvec = tuple(x for row in gam.entries for x in row)
    assert gam_sol.contains(gvec)
    # and back: reconstruct lambda from the particular integral map
    gmap = as_witness(WitnessKind.INTEGRAL_MAP, c2_q.ent, gam_sol.particular,
                      True).as_map()
    lam2 = lambda_from_gamma(gmap, mor)
    assert lam_sol.contains(lam2.value)
    # round trip on the nose
    assert gamma_from_lambda(lambda_from_gamma(gam, mor)).entries == gam.entries
    round_lam = lambda_from_gamma(gamma_from_lambda(lamw), mor)
    assert round_lam.value == lamw.value


def test_nu_splits_phi(c2_q):
    mor = counit_morphism(c2_q.ent)
    lam_sol = integrability_system(mor)[0].solve()
    lamw = lambda_witness(mor, lam_sol.particular)
    for m in (c2_q.module_A(),
              standard_module("mod_tensor_c", regular_module(c2_q.alg),
                              c2_q.ent)):
        nu = nu_from_lambda(lamw, m)  # verifies the splitting internally
        assert nu.rows == m.dim


def test_nu_lambda_round_trip(c2_q):
    mor = counit_morphism(c2_q.ent)
    lam_sol = integrability_system(mor)[0].solve()
    lamw = lambda_witness(mor, lam_sol.particular)
    ac = standard_module("mod_tensor_c", regular_module(c2_q.alg), c2_q.ent)
    nu = nu_from_lambda(lamw, ac)
    back = lambda_from_nu(nu, mor)
    assert back.value == lamw.value


def test_lambda_from_nu_rejects_broken_candidate(c2_q):
    mor = counit_morphism(c2_q.ent)
    lam_sol = integrability_system(mor)[0].solve()
    lamw = lambda_witness(mor, lam_sol.particular)
    ac = standard_module("mod_tensor_c", regular_module(c2_q.alg), c2_q.ent)
    nu = nu_from_lambda(lamw, ac)
    rows = [list(r) for r in nu.entries]
    rows[0][0] = rows[0][0] + 1
    broken = LinMap.from_rows(QQ, nu.domain, nu.codomain, rows)
    with pytest.raises(DomainError):
        lambda_from_nu(broken, mor)


def test_nu_naturality(c2_q):
    # nu commutes with every entwined-module map generated by hom_AC
    mor = counit_morphism(c2_q.ent)
    lam_sol = integrability_system(mor)[0].solve()
    lamw = lambda_witness(mor, lam_sol.particular)
    m = c2_q.module_A()
    n = standard_module("mod_tensor_c", regular_module(c2_q.alg), c2_q.ent)
    nu_m = nu_from_lambda(lamw, m)
    nu_n = nu_from_lambda(lamw, n)
    from entwine.entmod import coinduce, induce, induce_morphism, \
        coinduce_morphism
    fm, qm = induce(mor, m)
    fn, qn = induce(mor, n)
    _, sm = coinduce(mor, fm)
    _, sn = coinduce(mor, fn)
    homs = hom_AC(m, n)
    for vec in homs.basis:
        phi = LinMap.from_flat(QQ, (m.dim,), (n.dim,), vec)
        fphi = induce_morphism(mor, phi, qm, qn)
        gfphi = coinduce_morphism(mor, fphi, sm, sn)
        assert nu_n.compose(gfphi).equals(phi.compose(nu_m))


def test_frakz_context_and_witness(c2_q):
    mor = counit_morphism(c2_q.ent)
    sol = cointegrability_system(mor)[0].solve()
    assert sol.feasible
    frakz_witness(mor, sol.particular)


def test_morphism_witnesses_reject_a_corrupted_candidate(c2_q):
    mor = counit_morphism(c2_q.ent)
    for side, build, wrap in (("lambda", integrability_system, lambda_witness),
                              ("frakz", cointegrability_system, frakz_witness)):
        sys_, _ = build(mor)
        good = list(sys_.solve().particular)
        good[0] = QQ.add(good[0], q(1))
        bad = sys_.violations(tuple(good))
        assert bad
        with pytest.raises(DomainError, match=f"the {side} identities") as exc:
            wrap(mor, good)
        assert exc.value.witness == bad[0]
    frz = frakz_witness(mor, cointegrability_system(mor)[0].solve().particular)
    with pytest.raises(InputError):
        nu_from_lambda(frz, c2_q.module_A())


# -- witnesses from structure ---------------------------------------------------

def test_invariant_element_witness():
    entry = make_example("hopf_quotient_galois", {"field": QQ, "n": 4, "d": 2})
    ext = entry.payload
    w = integral_from_invariant(ent=ext.ent,
                                action_c=entry.extras["action"],
                                eps_a=(q(1),) * 4,
                                invariant=entry.extras["invariant"])
    assert w.kind == WitnessKind.INTEGRAL
    assert not check_witness(WitnessKind.INTEGRAL, ext.ent, w.value, True)


def test_invariant_element_trivial_quotient():
    entry = make_example("hopf_quotient_galois", {"field": QQ, "n": 2, "d": 1})
    ext = entry.payload
    assert ext.coalg.dim == 1
    w = integral_from_invariant(ent=ext.ent,
                                action_c=entry.extras["action"],
                                eps_a=(q(1),) * 2,
                                invariant=entry.extras["invariant"])
    assert w.normalized


def test_invariant_element_hypothesis_failure():
    entry = make_example("hopf_quotient_galois", {"field": QQ, "n": 4, "d": 2})
    ext = entry.payload
    with pytest.raises(DomainError):
        integral_from_invariant(ent=ext.ent,
                                action_c=entry.extras["action"],
                                eps_a=(q(1),) * 4,
                                invariant=(q(1), q(0)))


def test_invariant_element_failure_names_the_first_failing_basis_element():
    entry = make_example("hopf_quotient_galois", {"field": QQ, "n": 4, "d": 2})
    ext = entry.payload
    with pytest.raises(DomainError) as err:
        integral_from_invariant(ent=ext.ent, action_c=entry.extras["action"],
                                eps_a=(q(1),) * 4, invariant=(q(1), q(0)))
    assert err.value.witness == CheckFailure("invariance", (1,))
    # the true invariant, against a character that is wrong only on s^3
    with pytest.raises(DomainError) as err:
        integral_from_invariant(ent=ext.ent, action_c=entry.extras["action"],
                                eps_a=(q(1), q(1), q(1), q(2)),
                                invariant=entry.extras["invariant"])
    assert err.value.witness == CheckFailure("invariance", (3,))
    with pytest.raises(DomainError) as err:
        integral_from_invariant(ent=ext.ent, action_c=entry.extras["action"],
                                eps_a=(q(1),) * 4, invariant=(q(1), q(1)))
    assert err.value.witness == CheckFailure("normalisation", ())


def test_structural_witnesses_reject_a_character_of_the_wrong_length():
    quot = make_example("hopf_quotient_galois", {"field": QQ, "n": 4, "d": 2})
    com = make_example("comodule_algebra_entwining", {"field": QQ, "n": 3})
    for n in (3, 5):
        with pytest.raises(InputError):
            integral_from_invariant(ent=quot.payload.ent,
                                    action_c=quot.extras["action"],
                                    eps_a=(q(1),) * n,
                                    invariant=quot.extras["invariant"])
    unit = tuple(com.extras["c_unit"])
    for one_c in (unit[:-1], unit + (q(0),)):
        with pytest.raises(InputError):
            cointegral_from_casimir(ent=com.payload,
                                    coaction_a=com.extras["coactionA"],
                                    one_c=one_c, kappa=com.extras["kappa"])


def test_casimir_functional_witness():
    for field in (QQ, GF(2)):
        entry = make_example("comodule_algebra_entwining",
                             {"field": field, "n": 2})
        w = cointegral_from_casimir(ent=entry.payload,
                                    coaction_a=entry.extras["coactionA"],
                                    one_c=entry.extras["c_unit"],
                                    kappa=entry.extras["kappa"])
        assert w.kind == WitnessKind.COINTEGRAL


def test_casimir_functional_failure():
    entry = make_example("comodule_algebra_entwining", {"field": QQ, "n": 2})
    with pytest.raises(DomainError):
        cointegral_from_casimir(ent=entry.payload,
                                coaction_a=entry.extras["coactionA"],
                                one_c=entry.extras["c_unit"],
                                kappa=(q(1), q(1)))


def test_cotranslation_witness(coext_q):
    w = integral_map_from_cotranslation(coext_q)
    assert w.kind == WitnessKind.INTEGRAL_MAP
    assert not check_witness(WitnessKind.INTEGRAL_MAP, coext_q.ent, w.value,
                             True)


def test_can_inv_unit_witness(c2_q):
    w = cointegral_map_from_can_inv(c2_q)
    assert w.kind == WitnessKind.COINTEGRAL_MAP
    zeta = w.as_map()
    # zeta(s^j) = s^{-j} (x) s^j
    for j in range(2):
        col = zeta.column(j)
        for p in range(2):
            for r in range(2):
                expected = q(1) if (p == (-j) % 2 and r == j) else q(0)
                assert col[p * 2 + r] == expected


def test_frakz_counit_carrier_is_ac(c2_q):
    # along the counit morphism the balanced carrier (A (x) C) (x)_A A
    # collapses onto A (x) C; the correspondence identifies frakz solutions
    # with normalised integrals
    from entwine.witness import cointegrability_system
    mor = counit_morphism(c2_q.ent)
    sys_, ctx = cointegrability_system(mor, total=True)
    assert ctx.carrier.dim == 4
    sol = sys_.solve()
    intg = solve_witness(WitnessKind.INTEGRAL, c2_q.ent, True)
    assert sol.feasible and intg.feasible
    # embed A (x) C by a unit on the right leg, then project
    from entwine.linalg import kron
    embed = ctx.carrier.projection.compose(
        kron(LinMap.identity(QQ, (4,)), c2_q.alg.unit_map()))
    # the frakz matrix has a single column (the ground coalgebra); pulling
    # it back along the embedding must give the integral
    w = frakz_witness(mor, sol.particular)
    column = tuple(w.matrix.entries[i][0] for i in range(4))
    back = solve_witness(WitnessKind.INTEGRAL, c2_q.ent, True)
    # invert the embedding on its image
    from entwine.linalg import solve_affine
    lifted = solve_affine(embed, column)
    assert lifted.feasible
    assert back.contains(lifted.particular)


def test_family_closure_across_catalog():
    # substituting the particular plus each homogeneous basis vector passes
    # the identity checker for every witness kind and catalog entwining
    from entwine import default_catalog, entwining_of
    for field in (QQ, GF(2)):
        for entry in default_catalog(field):
            e = entwining_of(entry)
            for kind in WitnessKind:
                sol = solve_witness(kind, e, normalized=True)
                if not sol.feasible:
                    continue
                assert not check_witness(kind, e, sol.particular, True)
                for h in sol.homogeneous.basis:
                    member = tuple(field.add(a, b)
                                   for a, b in zip(sol.particular, h))
                    assert not check_witness(kind, e, member, True)


def test_identity_morphism_on_ground_entwining():
    # both functor-level systems are trivially feasible on the unit object
    from entwine.entwining import ground_entwining, identity_morphism
    mor = identity_morphism(ground_entwining(QQ))
    assert integrability_system(mor)[0].solve().feasible
    assert cointegrability_system(mor)[0].solve().feasible


def test_identity_morphism_on_c2(c2_q):
    # the identity functor is separable, so both witnesses exist
    from entwine.entwining import identity_morphism
    mor = identity_morphism(c2_q.ent)
    assert integrability_system(mor)[0].solve().feasible
    assert cointegrability_system(mor)[0].solve().feasible


def test_integral_map_identities_by_explicit_loops(c2_q):
    # re-derive both integral-map identities with bare index arithmetic on
    # the group (psi sends s^i (x) s^j to s^j (x) s^{i+j}), independently of
    # the operator assembly used by the solver and checker
    n = 2
    sol = solve_witness(WitnessKind.INTEGRAL_MAP, c2_q.ent, True)
    candidates = [sol.particular]
    candidates += [tuple(QQ.add(a, b) for a, b in zip(sol.particular, h))
                   for h in sol.homogeneous.basis]
    for flat in candidates:
        gamma = {(i, j): [flat[p * (n * n) + i * n + j] for p in range(n)]
                 for i in range(n) for j in range(n)}
        # comodule side: gamma(c (x) c'1) (x) c'2 = psi(c1 (x) gamma(c2 (x) c'))
        for i in range(n):
            for j in range(n):
                for p in range(n):
                    for k in range(n):
                        lhs = gamma[(i, j)][p] if k == j else 0
                        rhs = gamma[(i, j)][p] if k == (i + p) % n else 0
                        assert lhs == rhs
        # module side: gamma(c (x) c') a = a_ab gamma(c^b (x) c'^a)
        for i in range(n):
            for j in range(n):
                for t in range(n):
                    for p in range(n):
                        lhs = gamma[(i, j)][(p - t) % n]
                        rhs = gamma[((i + t) % n, (j + t) % n)][(p - t) % n]
                        assert lhs == rhs
        # normalisation: gamma(c1 (x) c2) = eps(c) 1
        for i in range(n):
            assert gamma[(i, i)][0] == 1
            assert all(gamma[(i, i)][p] == 0 for p in range(1, n))


def test_nu_inverts_its_cover_with_one_reduction(monkeypatch):
    from entwine import linalg, witness
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 3}).payload
    mor = counit_morphism(ext.ent)
    lam = lambda_witness(mor, integrability_system(mor)[0].solve().particular)
    reductions = [0]
    calls = []                      # (cover rows, cover cols, reductions)
    rref, right_inverse = linalg.rref, witness.right_inverse

    def counted_rref(*args):
        reductions[0] += 1
        return rref(*args)

    def counted_right_inverse(cover):
        before = reductions[0]
        out = right_inverse(cover)
        calls.append((cover.rows, cover.cols, reductions[0] - before))
        return out
    monkeypatch.setattr(linalg, "rref", counted_rref)
    monkeypatch.setattr(witness, "right_inverse", counted_right_inverse)
    ac = standard_module("mod_tensor_c", regular_module(ext.alg), ext.ent)
    nu_from_lambda(lam, ac)
    # one reduction of [cover | I] instead of one solve per column (27)
    assert calls == [(27, 81, 1)]


def test_nu_reduces_its_cover_once(monkeypatch):
    from entwine import linalg, witness
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 3}).payload
    mor = counit_morphism(ext.ent)
    lam = lambda_witness(mor, integrability_system(mor)[0].solve().particular)
    reduced = []                    # the input rows of every reduction
    covers = []
    rref, right_inverse = linalg.rref, witness.right_inverse

    def recorded_rref(field, rows):
        rows = [tuple(r) for r in rows]
        reduced.append(rows)
        return rref(field, rows)

    def recorded_right_inverse(cover):
        covers.append(cover)
        return right_inverse(cover)
    monkeypatch.setattr(linalg, "rref", recorded_rref)
    monkeypatch.setattr(witness, "right_inverse", recorded_right_inverse)
    ac = standard_module("mod_tensor_c", regular_module(ext.alg), ext.ent)
    nu_from_lambda(lam, ac)
    [cover] = covers
    assert (cover.rows, cover.cols) == (27, 81)
    # rref works on sparse rows: (column, value) pairs of the nonzeros
    rows, cols = list(cover.nonzeros), list(cover.transpose().nonzeros)

    def of_the_cover(m):
        # the cover itself, its columns (an image), or [cover | anything]
        return (m == rows or m == cols
                or [tuple((j, x) for j, x in r if j < cover.cols)
                    for r in m] == rows)
    assert sum(1 for m in reduced if of_the_cover(m)) == 1


# -- the canonical lambda and frakz families, pinned ---------------------------

def canonical_families():
    """The lambda and frakz solution sets of hopf_self_galois on the counit
    morphism, n = 1..5 over Q, GF(2), GF(3), GF(5) and GF(7), as plain
    data: the particular solution and the reduced basis of the homogeneous
    part with its pivots."""
    out = []
    for field in (QQ, GF(2), GF(3), GF(5), GF(7)):
        for n in range(1, 6):
            ext = make_example("hopf_self_galois",
                               {"field": field, "n": n}).payload
            mor = counit_morphism(ext.ent)
            for kind, build in (("lambda", integrability_system),
                                ("frakz", cointegrability_system)):
                sol = build(mor)[0].solve()
                h = sol.homogeneous
                particular = None if sol.particular is None else \
                    [str(x) for x in sol.particular]
                out.append([str(field), n, kind, particular,
                            [[[j, str(x)] for j, x in row]
                             for row in h.reduced], list(h.pivots)])
    return out


def test_lambda_and_frakz_families_are_pinned():
    """The solution sets are canonical (particular from the reduced row
    echelon form, homogeneous part by its reduced basis), so any change to
    elimination must leave this hash unchanged."""
    digest = hashlib.sha256(json.dumps(canonical_families()).encode())
    assert digest.hexdigest() == \
        "21888d9cd7291023aaf75b0517dc1f593308c0c54304db7d1616ec8c3d9339b1"
