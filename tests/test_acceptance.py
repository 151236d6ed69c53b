"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line.  Everything here is exact; there are no tolerances anywhere, and the
timed criteria assert their stated budgets.
"""

import json
import time
from fractions import Fraction

from entwine import (GF, LinMap, QQ, WitnessKind,
                     check_separable, check_split, check_strongly_separable,
                     check_witness, cohomology_dim, cointegral_from_casimir,
                     cointegral_map_from_can_inv, default_catalog,
                     entwining_of, integral_from_invariant,
                     integral_map_from_cotranslation, lambda_from_nu,
                     make_example, nu_from_lambda, regular_bimodule,
                     relative_complex, solve_witness, tensor_entwining,
                     twist_entwining, verify_entwining, verify_entwined_module)
from entwine.entmod import (coinduce, hom_AC, induce,
                            induce_morphism, coinduce_morphism,
                            regular_comodule, regular_module, standard_module)
from entwine.entwining import counit_morphism, ground_entwining, unit_morphism
from entwine.galois import cotranslation_map
from entwine.linalg import Subspace, compose_all, kron, kron_all
from entwine.separability import verify_idempotent, verify_strong
from entwine.witness import (cointegrability_system, integrability_system,
                             lambda_witness)
from entwine import schema
from entwine.cli import extension_report, coextension_report

import oracle


def q(x):
    return Fraction(x)


def announce(number, name):
    import functools

    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")
            return result
        return wrapped
    return deco


@announce(1, "axiom suites")
def test_criterion_1_axiom_suites():
    start = time.monotonic()
    base = {QQ: default_catalog(QQ), GF(2): default_catalog(GF(2))}
    for entries in base.values():
        for entry in entries:
            e = entwining_of(entry)
            assert verify_entwining(twist_entwining(e.alg, e.coalg)).ok
    # tensor products stay entwinings
    anchor = entwining_of(base[QQ][3])  # the order-two canonical entwining
    for entry in base[QQ]:
        e = entwining_of(entry)
        assert verify_entwining(tensor_entwining(e, ground_entwining(QQ))).ok
    assert verify_entwining(tensor_entwining(anchor, anchor)).ok
    # standard modules and both functors on every catalog entwining
    for entries in base.values():
        for entry in entries:
            e = entwining_of(entry)
            m = standard_module("mod_tensor_c", regular_module(e.alg), e)
            v = standard_module("comod_tensor_a", regular_comodule(e.coalg), e)
            assert verify_entwined_module(m).ok
            assert verify_entwined_module(v).ok
            for mor in (counit_morphism(e), unit_morphism(e)):
                src_mod = standard_module("mod_tensor_c",
                                          regular_module(mor.src.alg), mor.src)
                fm, _ = induce(mor, src_mod)
                assert verify_entwined_module(fm).ok
                gm, _ = coinduce(mor, fm)
                assert verify_entwined_module(gm).ok
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"axiom suites took {elapsed:.2f}s"


@announce(2, "rational order-two pipeline")
def test_criterion_2_c2_rational_pipeline(c2_q):
    start = time.monotonic()
    # canonical map is a bijective 4 x 4 matrix
    assert c2_q.can.rows == 4 and c2_q.can.cols == 4
    assert c2_q.can.compose(c2_q.can_inv).equals(LinMap.identity(QQ, (2, 2)))
    # fixed subalgebra is the line through 1
    assert c2_q.fixed.basis == ((q(1), q(0)),)
    # psi(s^i (x) s^j) = s^j (x) s^{i+j}
    for i in range(2):
        for j in range(2):
            col = c2_q.ent.psi.column(i * 2 + j)
            for p in range(2):
                for k in range(2):
                    want = q(1) if (p == j and k == (i + j) % 2) else q(0)
                    assert col[p * 2 + k] == want
    # the normalised integral (1/2)(1 (x) 1 + 1 (x) s)
    sol = solve_witness(WitnessKind.INTEGRAL, c2_q.ent, True)
    z = (Fraction(1, 2), Fraction(1, 2), q(0), q(0))
    assert sol.contains(z)
    # idempotent u = (1/2)(1 (x) 1 + s (x) s)
    cert = check_separable(c2_q)
    assert c2_q.square.section.apply(cert.u) == (Fraction(1, 2), 0, 0,
                                                 Fraction(1, 2))
    assert verify_idempotent(c2_q, cert.u) == []
    # split family phi(1) = 1, phi(s) = t s with one free parameter
    split_cert, family = check_split(c2_q)
    assert family.homogeneous.dim == 1
    assert split_cert.phi.column(0) == (q(1), q(0))
    member = (q(1), q(0), q(0), q(5))
    assert family.contains(member)
    # strong separability through the coupled linear system: tau = 1/2
    out = check_strongly_separable(c2_q, "fixed_integral")
    assert out.found and out.certificate.tau == Fraction(1, 2)
    assert verify_strong(c2_q, out.certificate.separability.u,
                         out.certificate.split.expectation,
                         out.certificate.tau) == []
    # first relative cohomology vanishes
    line = Subspace.from_vectors(QQ, (2,), [(q(1), q(0))])
    cx = relative_complex(c2_q.alg, line, regular_bimodule(c2_q.alg), 1)
    assert cohomology_dim(cx, 1)[0] == 0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"rational pipeline took {elapsed:.2f}s"


@announce(3, "mod-2 negative suite")
def test_criterion_3_c2_mod2_negative(c2_f2):
    start = time.monotonic()
    assert not solve_witness(WitnessKind.INTEGRAL, c2_f2.ent, True).feasible
    assert check_separable(c2_f2) is None
    f2 = GF(2)
    line = Subspace.from_vectors(f2, (2,), [(1, 0)])
    cx = relative_complex(c2_f2.alg, line, regular_bimodule(c2_f2.alg), 1)
    dim, _ = cohomology_dim(cx, 1)
    assert dim == 2
    # the same ranks fall out of the hand-assembled coboundary matrices
    rows = []
    n = 2
    for a in range(n):
        for b in range(n):
            for out in range(n):
                row = [0] * 4
                row[((out - a) % n) * n + b] += 1
                row[out * n + (a + b) % n] -= 1
                row[((out - b) % n) * n + a] += 1
                rows.append(row)
    assert oracle.kernel_dim(rows, p=2) == 2
    assert oracle.rank([[0, 0]] * 4, p=2) == 0
    # splitness survives: split does not imply separable
    result = check_split(c2_f2)
    assert result is not None
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"negative suite took {elapsed:.2f}s"


def _conversion_maps(e, ctx_carrier):
    """The two explicit correspondences between lambda matrices and
    integral-map matrices for the counit morphism, as plain linear maps on
    the unknown vectors: gamma = lambda . (C (x) 1 (x) C), and
    lambda = mult . (A (x) gamma) . (psi (x) C)."""
    da, dc = e.alg.dim, e.coalg.dim
    idc = e.coalg.identity()
    from entwine.linalg import corestrict, op_in_unknown, SCALAR
    ins = corestrict(kron_all(idc, e.alg.unit_map(), idc), ctx_carrier)
    s = ctx_carrier.dim
    to_gamma = op_in_unknown((s,), (da,),
                             [(1, (ins, SCALAR, SCALAR, e.alg.identity()))])
    pre = compose_all(kron(e.psi, idc), ctx_carrier.inclusion)
    to_lambda = op_in_unknown((dc, dc), (da,),
                              [(1, (pre, (da,), SCALAR, e.alg.mult))])
    return to_gamma, to_lambda


@announce(4, "functor/witness equivalences")
def test_criterion_4_equivalences():
    for field in (QQ, GF(2), GF(3)):
        for entry in default_catalog(field):
            e = entwining_of(entry)
            morc = counit_morphism(e)
            moru = unit_morphism(e)
            frz_c = cointegrability_system(morc)[0].solve()
            intg = solve_witness(WitnessKind.INTEGRAL, e, True)
            assert frz_c.feasible == intg.feasible
            lam_c = integrability_system(morc)[0].solve()
            gam = solve_witness(WitnessKind.INTEGRAL_MAP, e, True)
            assert lam_c.feasible == gam.feasible
            lam_u = integrability_system(moru)[0].solve()
            coi = solve_witness(WitnessKind.COINTEGRAL, e, True)
            assert lam_u.feasible == coi.feasible
            frz_u = cointegrability_system(moru)[0].solve()
            coim = solve_witness(WitnessKind.COINTEGRAL_MAP, e, True)
            assert frz_u.feasible == coim.feasible
            # the explicit correspondences biject the two solution sets
            _, ctx = integrability_system(morc, total=True)
            to_gamma, to_lambda = _conversion_maps(e, ctx.carrier)
            assert lam_c.homogeneous.dim == gam.homogeneous.dim
            for h in lam_c.homogeneous.basis:
                image = to_gamma.apply(h)
                assert gam.homogeneous.contains(image)
                assert tuple(to_lambda.apply(image)) == tuple(h)
            for h in gam.homogeneous.basis:
                image = to_lambda.apply(h)
                assert lam_c.homogeneous.contains(image)
                assert tuple(to_gamma.apply(image)) == tuple(h)
            if lam_c.feasible:
                gvec = to_gamma.apply(lam_c.particular)
                assert gam.contains(gvec)
                assert lam_c.contains(to_lambda.apply(gvec))


@announce(5, "main-theorem round trip")
def test_criterion_5_round_trip(c2_q):
    mor = counit_morphism(c2_q.ent)
    lam_sol = integrability_system(mor)[0].solve()
    lamw = lambda_witness(mor, lam_sol.particular)
    ma = c2_q.module_A()
    ac = standard_module("mod_tensor_c", regular_module(c2_q.alg), c2_q.ent)
    # nu splits the adjunction unit on both modules (checked internally) and
    # the extraction reproduces lambda on the nose
    nu_a = nu_from_lambda(lamw, ma)
    nu_ac = nu_from_lambda(lamw, ac)
    back = lambda_from_nu(nu_ac, mor)
    assert back.value == lamw.value
    # naturality over every entwined-module map A -> A (x) C
    fm_a, qa = induce(mor, ma)
    fm_ac, qac = induce(mor, ac)
    _, sa = coinduce(mor, fm_a)
    _, sac = coinduce(mor, fm_ac)
    for vec in hom_AC(ma, ac).basis:
        phi = LinMap.from_flat(QQ, (ma.dim,), (ac.dim,), vec)
        fphi = induce_morphism(mor, phi, qa, qac)
        gfphi = coinduce_morphism(mor, fphi, sa, sac)
        assert nu_ac.compose(gfphi).equals(phi.compose(nu_a))


@announce(6, "example theorems")
def test_criterion_6_example_theorems(c2_q, coext_q):
    # the cotranslation map of the pointed self-coextension is a normalised
    # integral map with both composition laws exact
    gamma = cotranslation_map(coext_q)
    gvec = tuple(x for row in gamma.entries for x in row)
    assert not check_witness(WitnessKind.INTEGRAL_MAP, coext_q.ent, gvec, True)
    w = integral_map_from_cotranslation(coext_q)
    assert w.normalized
    # the inverse canonical map against 1 (x) C is a normalised cointegral map
    zeta = cointegral_map_from_can_inv(c2_q)
    assert not check_witness(WitnessKind.COINTEGRAL_MAP, c2_q.ent, zeta.value,
                             True)
    # invariant-element and functional-invariance witnesses pass the generic
    # identity checker
    entry = make_example("hopf_quotient_galois", {"field": QQ, "n": 4, "d": 2})
    wi = integral_from_invariant(ent=entry.payload.ent,
                                 action_c=entry.extras["action"],
                                 eps_a=(q(1),) * 4,
                                 invariant=entry.extras["invariant"])
    assert not check_witness(WitnessKind.INTEGRAL, entry.payload.ent,
                             wi.value, True)
    com = make_example("comodule_algebra_entwining", {"field": QQ, "n": 3})
    wk = cointegral_from_casimir(ent=com.payload,
                                 coaction_a=com.extras["coactionA"],
                                 one_c=com.extras["c_unit"],
                                 kappa=com.extras["kappa"])
    assert not check_witness(WitnessKind.COINTEGRAL, com.payload, wk.value,
                             True)


@announce(7, "internal consistency oracles")
def test_criterion_7_internal_consistency(c2_q, c2_f2, coext_q):
    # coboundary squares vanish in all computed degrees
    for ext, field in ((c2_q, QQ), (c2_f2, GF(2))):
        line = Subspace.from_vectors(field, (2,), [tuple(ext.alg.unit)])
        cx = relative_complex(ext.alg, line, regular_bimodule(ext.alg), 2)
        for lower, upper in zip(cx.boundaries, cx.boundaries[1:]):
            assert upper.compose(lower).is_zero_map()
    # counit contraction of the canonical map is the induced multiplication
    for ext in (c2_q, c2_f2):
        lhs = kron(ext.alg.identity(),
                   ext.coalg.counit_map()).compose(ext.can)
        assert lhs.equals(ext.mu_AB())
    # inverse canonical map is a two-sided module map on all basis triples
    for ext in (c2_q, c2_f2):
        a = ext.alg
        left_ac = kron(a.mult, ext.coalg.identity())
        assert ext.can_inv.compose(left_ac.reshaped((2, 2, 2), (2, 2))) \
            .equals(ext.square_left_mult().compose(
                kron(a.identity(), ext.can_inv)))
        ac_right = standard_module("mod_tensor_c", regular_module(a),
                                   ext.ent).action
        assert ext.can_inv.compose(ac_right) \
            .equals(ext.square_right_mult().compose(
                kron(ext.can_inv, a.identity())))
    # emitted certificates re-verify after a JSON round trip
    report = extension_report(c2_q, "fixed_integral")
    blob = json.loads(schema.dumps(report))
    z = tuple(QQ.parse(x) for x in blob["certificates"]["integral"])
    assert not check_witness(WitnessKind.INTEGRAL, c2_q.ent, z, True)
    reps = tuple(QQ.parse(x) for x in blob["certificates"]["idempotent"])
    u = c2_q.square.projection.apply(reps)
    assert verify_idempotent(c2_q, u) == []
    phi = schema.parse_matrix(QQ, blob["certificates"]["phi"], (2,), (2,),
                              "phi")
    from entwine.separability import expectation_from_phi, split_system
    assert not split_system(c2_q).violations(
        tuple(x for row in phi.entries for x in row))
    expectation_from_phi(c2_q, phi)
    tau = QQ.parse(blob["strong"]["tau"])
    strong_phi = schema.parse_matrix(QQ, blob["certificates"]["strong_phi"],
                                     (2,), (2,), "strong phi")
    assert verify_strong(c2_q, u, expectation_from_phi(c2_q, strong_phi),
                         tau) == []
    co_report = coextension_report(coext_q)
    co_blob = json.loads(schema.dumps(co_report))
    y = tuple(QQ.parse(x) for x in co_blob["certificates"]["cointegral"])
    assert not check_witness(WitnessKind.COINTEGRAL, coext_q.ent, y, True)
    gam = schema.parse_matrix(QQ, co_blob["certificates"]["cotranslation"],
                              (2, 2), (2,), "cotranslation")
    assert not check_witness(WitnessKind.INTEGRAL_MAP, coext_q.ent,
                             tuple(x for row in gam.entries for x in row),
                             True)
