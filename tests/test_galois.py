from fractions import Fraction

import pytest

from entwine import (GaloisError, LinMap, QQ, build_coextension,
                     build_galois, copointed_grouplike, cotranslation_map,
                     dual_swap, fixed_subalgebra, make_example, pointed_kappa,
                     verify_entwining)
from entwine.entmod import regular_module, standard_module
from entwine.galois import verify_action, verify_coaction
from entwine.entwining import ground_algebra
from entwine.catalog import cyclic_group_hopf, function_group_hopf
from entwine.errors import DomainError, InputError
from entwine.linalg import compose_all, kron

import oracle


def q(x):
    return Fraction(x)


def test_fixed_subalgebra_of_regular_coaction(hopf_c2_q):
    rho = hopf_c2_q.coalg.comult.reshaped((2,), (2, 2))
    space, alg = fixed_subalgebra(hopf_c2_q.alg, rho)
    assert space.dim == 1
    assert space.basis == ((q(1), q(0)),)
    assert alg.dim == 1


def test_fixed_subalgebra_trivial_coaction(hopf_c2_q):
    # coaction through a group-like leaves everything fixed
    a = hopf_c2_q.alg
    rho = LinMap.from_rows(QQ, (2,), (2, 2),
                           [[q(1), q(0)], [q(0), q(0)],
                            [q(0), q(1)], [q(0), q(0)]])
    space, _ = fixed_subalgebra(a, rho)
    assert space.dim == 2


def test_fixed_subalgebra_ground_case():
    a = ground_algebra(QQ)
    rho = LinMap.from_rows(QQ, (1,), (1, 1), [[q(1)]])
    space, _ = fixed_subalgebra(a, rho)
    assert space.dim == 1


def test_fixed_subalgebra_needs_a_coaction_shape(hopf_c2_q):
    # the product A (x) A -> A where a coaction A -> A (x) C belongs
    a = hopf_c2_q.alg
    with pytest.raises(InputError, match="needs a coaction"):
        fixed_subalgebra(a, a.mult)


def test_build_galois_c2(c2_q):
    assert c2_q.can.rows == 4 and c2_q.can.cols == 4
    assert c2_q.fixed.dim == 1
    assert verify_entwining(c2_q.ent).ok
    # can . can_inv = id on the nose
    assert c2_q.can.compose(c2_q.can_inv).equals(LinMap.identity(QQ, (2, 2)))
    assert c2_q.can_inv.compose(c2_q.can).equals(LinMap.identity(QQ, (4,)))


def test_build_galois_c2_mod2(c2_f2):
    assert c2_f2.fixed.dim == 1
    assert verify_entwining(c2_f2.ent).ok


def test_can_bijectivity_oracle(c2_q):
    rows = [[int(x) for x in row] for row in c2_q.can.entries]
    assert oracle.rank(rows) == 4


def test_non_galois_rejected():
    h = cyclic_group_hopf(2, QQ)
    # the ground algebra coacting through a fixed group-like cannot hit a
    # two-dimensional coalgebra
    rho = LinMap.from_rows(QQ, (1,), (1, 2), [[q(1)], [q(0)]])
    with pytest.raises(GaloisError) as err:
        build_galois(ground_algebra(QQ), h.coalg, rho)
    assert err.value.expected_dim == 2


def test_non_coaction_rejected(hopf_c2_q):
    bad = LinMap.from_rows(QQ, (2,), (2, 2),
                           [[q(1), q(0)], [q(1), q(0)],
                            [q(0), q(1)], [q(0), q(0)]])
    with pytest.raises(DomainError):
        build_galois(hopf_c2_q.alg, hopf_c2_q.coalg, bad)


def test_copointed(c2_q):
    e = copointed_grouplike(c2_q)
    assert e == (q(1), q(0))


def test_copointed_detects_grouplike_in_function_coalgebra():
    # the function-algebra self-extension is copointed through the constant
    # function, which is group-like in the convolution coalgebra
    h = function_group_hopf(2, QQ)
    ext = build_galois(h.alg, h.coalg,
                       h.coalg.comult.reshaped((2,), (2, 2)))
    assert copointed_grouplike(ext) == (q(1), q(1))


def test_copointed_absent_for_non_grouplike(c2_q):
    # a coaction sending 1 to 1 (x) (1 + s) has no group-like factor: the
    # candidate fails comultiplicativity, so the detector must decline
    fake_rho = LinMap.from_rows(QQ, (2,), (2, 2),
                                [[q(1), q(0)], [q(1), q(0)],
                                 [q(0), q(1)], [q(0), q(1)]])
    fake = c2_q.replace(rho_a=fake_rho)
    assert copointed_grouplike(fake) is None


def test_copointed_absent_for_spread_coaction(c2_q):
    # rho(1) with support off the unit line cannot be of the form 1 (x) e
    fake_rho = LinMap.from_rows(QQ, (2,), (2, 2),
                                [[q(1), q(0)], [q(0), q(0)],
                                 [q(0), q(1)], [q(1), q(0)]])
    fake = c2_q.replace(rho_a=fake_rho)
    assert copointed_grouplike(fake) is None


def test_copointed_dim_one():
    h = cyclic_group_hopf(1, QQ)
    ext = build_galois(h.alg, h.coalg, h.coalg.comult.reshaped((1,), (1, 1)))
    assert copointed_grouplike(ext) == (q(1),)


def test_copointed_reads_e_off_the_first_nonzero_unit_coordinate(c2_q):
    # a unit 2s (first nonzero coordinate 2, at index 1) with rho(2s) =
    # 2s (x) s gives e = s; a zero coaction gives e = 0, which has counit 0
    from entwine import Algebra
    scaled = c2_q.replace(alg=Algebra(2, c2_q.alg.mult, (q(0), q(2))))
    assert copointed_grouplike(scaled) == (q(0), q(1))
    silent = c2_q.replace(rho_a=LinMap.zero(QQ, (2,), (2, 2)))
    assert copointed_grouplike(silent) is None


def test_can_inv_bimodule_property(c2_q):
    # can_inv intertwines left multiplication and the entwined right action
    a = c2_q.alg
    ac_right = standard_module("mod_tensor_c", regular_module(a),
                               c2_q.ent).action
    sq_right = c2_q.square_right_mult()
    sq_left = c2_q.square_left_mult()
    ida = a.identity()
    left_ac = compose_all(kron(a.mult, c2_q.coalg.identity()))
    # left: can_inv(a . z) = a . can_inv(z)
    lhs = c2_q.can_inv.compose(left_ac.reshaped((2, 2, 2), (2, 2)))
    rhs = sq_left.compose(kron(ida, c2_q.can_inv))
    assert lhs.equals(rhs)
    # right: can_inv(z . a) = can_inv(z) . a
    lhs2 = c2_q.can_inv.compose(ac_right)
    rhs2 = sq_right.compose(kron(c2_q.can_inv, ida))
    assert lhs2.equals(rhs2)


def test_counit_contraction_of_can(c2_q):
    lhs = kron(c2_q.alg.identity(), c2_q.coalg.counit_map()).compose(c2_q.can)
    assert lhs.equals(c2_q.mu_AB())


def test_build_coextension_c2(coext_q):
    assert coext_q.coideal.dim == 1
    assert coext_q.base.dim == 1
    assert coext_q.cosquare.dim == 4
    assert verify_entwining(coext_q.ent).ok


def test_coextension_coideal_oracle():
    # hand span: (g_{i+j} - g_i) xi_k(g_{i+j}) over all i, j, k
    n = 2
    vecs = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = [0] * n
                if (i + j) % n == k:
                    v[k] += 1
                    v[i] -= 1
                if any(v):
                    vecs.append(v)
    assert oracle.rank(vecs) == 1


def test_coextension_trivial_action_on_ground():
    h = cyclic_group_hopf(2, QQ)
    act = LinMap.from_rows(QQ, (2, 1), (2,),
                           [[q(1), q(0)], [q(0), q(1)]])
    coext = build_coextension(h.coalg, ground_algebra(QQ), act)
    assert coext.coideal.dim == 0
    assert coext.base.dim == 2
    assert coext.cosquare.dim == 2


def test_pointed_kappa(coext_q):
    kappa = pointed_kappa(coext_q)
    assert kappa == (q(1), q(1))


def test_pointed_kappa_dual():
    entry = make_example("self_coextension", {"field": QQ, "n": 2,
                                              "dual": True})
    kappa = pointed_kappa(entry.payload)
    assert kappa == (q(1), q(0))


def test_cotranslation_map(coext_q):
    gamma = cotranslation_map(coext_q)
    # gamma(g_i (x) g_j) = g_{i+j} for the order-two group
    for i in range(2):
        for j in range(2):
            col = gamma.column(i * 2 + j)
            expected = tuple(q(1) if t == (i + j) % 2 else q(0)
                             for t in range(2))
            assert col == expected


def test_cotranslation_laws_explicit(coext_q):
    gamma = cotranslation_map(coext_q)
    c = coext_q.coalg
    a = coext_q.alg
    idc, ida = c.identity(), a.identity()
    lhs = a.mult.compose(kron(gamma, ida))
    rhs = gamma.compose(kron(idc, coext_q.rho_c))
    assert lhs.equals(rhs)
    norm = gamma.compose(c.comult)
    assert norm.equals(a.unit_map().compose(c.counit_map()))


def test_cotranslation_requires_ground_base():
    entry = make_example("self_coextension", {"field": QQ, "n": 2})
    coext = entry.payload
    assert coext.base.dim == 1
    # build one with a bigger base: the trivial action of the ground algebra
    h = cyclic_group_hopf(2, QQ)
    act = LinMap.from_rows(QQ, (2, 1), (2,), [[q(1), q(0)], [q(0), q(1)]])
    big = build_coextension(h.coalg, ground_algebra(QQ), act)
    with pytest.raises(InputError):
        cotranslation_map(big)


def test_coextension_psi_cocan_identity(coext_q):
    # psi . cocan_inv = (gamma (x) C)(C (x) Delta) on the cotensor square
    # when the base is the ground field; cocan = (C (x) action)(Delta (x) A)
    # is onto that square, so psi = (gamma (x) C)(C (x) Delta) . cocan
    gamma = cotranslation_map(coext_q)
    c, a = coext_q.coalg, coext_q.alg
    idc = c.identity()
    cocan = compose_all(kron(idc, coext_q.rho_c), kron(c.comult, a.identity()))
    rhs = compose_all(kron(gamma, idc), kron(idc, c.comult), cocan)
    assert coext_q.ent.psi.equals(rhs)
    # transposed, on the dual extension: psi'(c (x) a) = can(tau(c) . a) for
    # its translation map tau = gamma^T
    g = coext_q.dual
    tau = g.translation_map()
    assert tau.transpose().equals(gamma)
    ida, idc = g.alg.identity(), g.coalg.identity()
    can_of_tau = compose_all(kron(g.alg.mult, idc), kron(ida, g.rho_a),
                             kron(ida, g.alg.mult), kron(tau, ida))
    assert g.ent.psi.equals(can_of_tau)
    assert g.ent.psi.transpose().equals(coext_q.ent.psi)


def test_canonical_psi_unit_law_on_catalog(c2_q, coext_q):
    # psi(c (x) 1) = 1 (x) c for canonical entwinings
    for ent in (c2_q.ent, coext_q.ent):
        lhs = ent.psi.compose(kron(ent.coalg.identity(), ent.alg.unit_map()))
        rhs = kron(ent.alg.unit_map(), ent.coalg.identity())
        assert lhs.equals(rhs)


def test_pointed_kappa_sign_twisted_action():
    # acting by the group element with an extra sign is still a valid
    # action; the character it induces sends the generator to -1
    h = cyclic_group_hopf(2, QQ)
    rows = [[q(0)] * 4 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            rows[(i + j) % 2][i * 2 + j] = q(1) if j == 0 else q(-1)
    twisted = LinMap.from_rows(QQ, (2, 2), (2,), rows)
    coext = build_coextension(h.coalg, h.alg, twisted)
    kappa = pointed_kappa(coext)
    assert kappa == (q(1), q(-1))
    gamma = cotranslation_map(coext)
    assert gamma.column(0) == (q(1), q(0))


def test_pointed_kappa_absent_for_unfactorizable(coext_q):
    # if the counit of the action does not factor through a character the
    # detector must decline; perturb the action on a synthetic copy of the
    # dual extension, whose coaction is the transposed action
    rows = [[q(0)] * 4 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            sign = q(-1) if (i, j) == (1, 1) else q(1)
            rows[(i + j) % 2][i * 2 + j] = sign
    action = LinMap.from_rows(QQ, (2, 2), (2,), rows)
    fake = coext_q.dual.replace(rho_a=action.transpose())
    assert copointed_grouplike(fake) is None
    assert copointed_grouplike(coext_q.dual) == pointed_kappa(coext_q)


def _graded_dual_numbers():
    # Q[x]/(x^2) graded by the group-like basis e, g of Q[C_2] with
    # rho(1) = 1 (x) e and rho(x) = x (x) g: only the scalars are fixed, so
    # the balanced square is all of A (x) A, of the right dimension 4, but
    # can(x (x) x) = x^2 (x) g = 0 leaves the canonical map of rank 3
    from entwine import Algebra
    alg = Algebra(2, LinMap.from_rows(QQ, (2, 2), (2,),
                                      [[q(1), q(0), q(0), q(0)],
                                       [q(0), q(1), q(1), q(0)]]),
                  (q(1), q(0)))
    coalg = cyclic_group_hopf(2, QQ).coalg
    rho = LinMap.from_rows(QQ, (2,), (2, 2),
                           [[q(1), q(0)], [q(0), q(0)],
                            [q(0), q(0)], [q(0), q(1)]])
    return alg, coalg, rho


def test_non_bijective_canonical_map_rejected():
    with pytest.raises(GaloisError, match="canonical map is not bijective") as err:
        build_galois(*_graded_dual_numbers())
    assert (err.value.expected_dim, err.value.actual_dim, err.value.rank) == (4, 4, 3)


def test_non_bijective_canonical_map_of_coextension_rejected():
    # the transposed data: (Q[x]/(x^2))^* acted on by the functions on C_2
    alg, coalg, rho = _graded_dual_numbers()
    with pytest.raises(GaloisError) as err:
        build_coextension(dual_swap(alg), dual_swap(coalg), rho.transpose())
    assert str(err.value) == "canonical map of the coextension is not bijective"
    assert (err.value.expected_dim, err.value.actual_dim, err.value.rank) == (4, 4, 3)


def test_coextension_with_small_cotensor_square_rejected():
    # Q[C_3] acting on the group-like coalgebra through its counit,
    # c . a = eps(a) c: the coideal is 0, so C []_C C = C has dimension 3,
    # not the 9 of C (x) A
    h = cyclic_group_hopf(3, QQ)
    rows = [[q(0)] * 9 for _ in range(3)]
    for c in range(3):
        for a in range(3):
            rows[c][c * 3 + a] = h.coalg.counit[a]
    act = LinMap.from_rows(QQ, (3, 3), (3,), rows)
    with pytest.raises(GaloisError) as err:
        build_coextension(h.coalg, h.alg, act)
    assert str(err.value) == ("cotensor square and C (x) A have different "
                              "dimensions")
    assert (err.value.expected_dim, err.value.actual_dim, err.value.rank) == (9, 3, None)


def test_action_and_coaction_failure_labels(hopf_c2_q):
    # on V = k, a -> (2, 3) on the basis (1, g) is neither associative nor
    # unital, and v -> 2 v (x) 1 is neither coassociative nor counital
    action = LinMap.from_rows(QQ, (1, 2), (1,), [[q(2), q(3)]])
    rep = verify_action(hopf_c2_q.alg, action)
    assert rep.subject == "action"
    assert [(x.law, x.at) for x in rep.failures] == [
        ("action associativity", (0, 0, 0)), ("action unitality", (0,))]
    coaction = LinMap.from_rows(QQ, (1,), (1, 2), [[q(2)], [q(0)]])
    rep = verify_coaction(hopf_c2_q.coalg, coaction)
    assert rep.subject == "coaction"
    assert [(x.law, x.at) for x in rep.failures] == [
        ("coaction coassociativity", (0,)), ("coaction counitality", (0,))]


def test_builds_verify_their_inputs_once(monkeypatch):
    from entwine import entwining, galois
    calls = []                      # (verifier name, the object it checked)
    for mod in (galois, entwining):
        for name in ("verify_algebra", "verify_coalgebra"):
            def counted(x, _name=name, _original=getattr(mod, name)):
                calls.append((_name, x))
                return _original(x)
            monkeypatch.setattr(mod, name, counted)

    def on_inputs(alg, coalg):
        return (sum(1 for n, x in calls if n == "verify_algebra" and x is alg),
                sum(1 for n, x in calls if n == "verify_coalgebra" and x is coalg))
    h = cyclic_group_hopf(3, QQ)
    build_galois(h.alg, h.coalg, h.coalg.comult.reshaped((3,), (3, 3)))
    assert on_inputs(h.alg, h.coalg) == (1, 1)
    calls.clear()
    build_coextension(h.coalg, h.alg, h.alg.mult.reshaped((3, 3), (3,)))
    assert on_inputs(h.alg, h.coalg) == (1, 1)
