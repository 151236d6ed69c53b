from fractions import Fraction

import pytest

from entwine import (GF, LinMap, QQ, cotensor, fixed_part, standard_module,
                     tensor_over_A, verify_entwined_module)
from entwine.entmod import (EntwinedModule, adjunction_maps, coinduce,
                            hom_AC_system, induce, regular_comodule,
                            regular_module)
from entwine.entwining import counit_morphism, unit_morphism
from entwine.linalg import kron
from entwine.errors import InputError

from constructions import (default_catalog, entwining_of, ground_entwining,
                           identity_morphism)
import oracle


def q(x):
    return Fraction(x)


def test_module_A_over_extension(c2_q):
    assert verify_entwined_module(c2_q.module_A()).ok


def test_standard_modules_pass_on_catalog():
    for field in (QQ, GF(2)):
        for entry in default_catalog(field):
            e = entwining_of(entry)
            m = standard_module("mod_tensor_c", regular_module(e.alg), e)
            v = standard_module("comod_tensor_a", regular_comodule(e.coalg), e)
            assert verify_entwined_module(m).ok
            assert verify_entwined_module(v).ok


def test_standard_module_over_trivial_algebra():
    # with the ground algebra the module-tensor construction returns the
    # coalgebra itself as an entwined module
    _ = ground_entwining(QQ)
    from entwine.catalog import cyclic_group_hopf
    h = cyclic_group_hopf(2, QQ)
    from entwine.entwining import twist_entwining, ground_algebra
    ent = twist_entwining(ground_algebra(QQ), h.coalg)
    base = LinMap.from_rows(QQ, (1, 1), (1,), [[q(1)]])
    m = standard_module("mod_tensor_c", base, ent)
    assert m.dim == h.coalg.dim
    assert m.coaction.equals(h.coalg.comult)


def test_cotensor_with_regular_comodule(c2_q):
    e = c2_q.ent
    ac = standard_module("mod_tensor_c", regular_module(e.alg), e)
    sub = cotensor(ac.coaction, e.coalg.comult)
    assert sub.dim == 4
    sub2 = cotensor(regular_comodule(e.coalg), e.coalg.comult)
    assert sub2.dim == 2


def test_standard_module_rejects_a_base_of_the_wrong_shape(c2_q):
    e = c2_q.ent
    # a coaction where an action belongs, and the other way round
    for kind, base in (("mod_tensor_c", e.coalg.comult),
                       ("comod_tensor_a", e.alg.mult),
                       ("mod_tensor_c", LinMap.identity(QQ, (2,))),
                       ("comod_tensor_a", LinMap.identity(QQ, (2,)))):
        with pytest.raises(InputError, match=f"^{kind} needs a right"):
            standard_module(kind, base, e)


def test_cotensor_factors_must_share_a_coalgebra(c2_q):
    # V -> V (x) C with dim C = 2 against W -> C' (x) W with dim C' = 1,
    # and a one-factor map V -> V where V -> V (x) C belongs
    left = LinMap.identity(QQ, (2,)).reshaped((2,), (1, 2))
    for right, left in ((c2_q.coalg.comult, left),
                        (LinMap.identity(QQ, (2,)), c2_q.coalg.comult)):
        with pytest.raises(InputError, match="do not share a coalgebra"):
            cotensor(right, left)


def test_cotensor_dimension_matches_oracle(c2_q):
    # assemble the coaction equalising map by hand for (A (x) C) [] C
    n = 2
    rows = []
    # basis of (A (x) C) (x) C indexed (a, c, c'); coaction A (x) Delta
    for a in range(n):
        for c in range(n):
            for cc in range(n):
                for w in range(n):
                    row = [0] * (n ** 3)
                    for x in range(n):
                        for y in range(n):
                            for z in range(n):
                                val = 0
                                if (x, y) == (a, c) and y == c and z == cc and w == c:
                                    val += 1
                                if (x, y, z) == (a, c, cc) and w == cc:
                                    val -= 1
                                if val:
                                    row[(x * n + y) * n + z] += val
                    rows.append(row)
    assert oracle.kernel_dim(rows) == 4


def test_tensor_over_A_unit_law(c2_q):
    a = c2_q.alg
    quot = tensor_over_A(regular_module(a), a.mult)
    assert quot.dim == 2


def test_tensor_factors_must_share_an_algebra(c2_q):
    # M (x) A -> M with dim A = 2 against A' (x) N -> N with dim A' = 1,
    # and a one-factor map M -> M where M (x) A -> M belongs
    left = LinMap.identity(QQ, (2,)).reshaped((1, 2), (2,))
    for right, left in ((c2_q.alg.mult, left),
                        (LinMap.identity(QQ, (2,)), c2_q.alg.mult)):
        with pytest.raises(InputError, match="do not share an algebra"):
            tensor_over_A(right, left)


def test_tensor_over_ground_subalgebra(c2_q):
    a = c2_q.alg
    incl = c2_q.fixed.inclusion
    right = a.mult.compose(kron(a.identity(), incl))
    left = a.mult.compose(kron(incl, a.identity()))
    assert tensor_over_A(right, left).dim == 4


def test_functor_induce_counit(c2_q):
    mor = counit_morphism(c2_q.ent)
    m = c2_q.module_A()
    fm = induce(mor, m)[0]
    assert fm.dim == 2
    assert verify_entwined_module(fm).ok


def test_functor_coinduce_counit_matches_standard(c2_q):
    # coinduction along the counit morphism is tensoring with the coalgebra
    e = c2_q.ent
    mor = counit_morphism(e)
    ma = induce(mor, c2_q.module_A())[0]
    gm = coinduce(mor, ma)[0]
    std = standard_module("mod_tensor_c", regular_module(e.alg), e)
    assert gm.dim == std.dim
    assert gm.action.equals(std.action)
    assert gm.coaction.equals(std.coaction)


def test_functor_coinduce_identity(c2_q):
    e = c2_q.ent
    mor = identity_morphism(e)
    ac = standard_module("mod_tensor_c", regular_module(e.alg), e)
    gm = coinduce(mor, ac)[0]
    assert gm.dim == ac.dim
    assert verify_entwined_module(gm).ok


def test_functor_wrong_side_rejected(c2_q):
    mor = unit_morphism(c2_q.ent)
    with pytest.raises(InputError):
        induce(mor, c2_q.module_A())[0]


def test_functor_outputs_pass_on_catalog():
    for field in (QQ, GF(3)):
        for entry in default_catalog(field):
            e = entwining_of(entry)
            for mor in (counit_morphism(e), unit_morphism(e)):
                src_mod = standard_module("mod_tensor_c",
                                          regular_module(mor.src.alg), mor.src)
                fm = induce(mor, src_mod)[0]
                assert verify_entwined_module(fm).ok
                gm = coinduce(mor, fm)[0]
                assert verify_entwined_module(gm).ok


def test_adjunction_triangles_on_catalog():
    for field in (QQ, GF(2)):
        for entry in default_catalog(field):
            e = entwining_of(entry)
            for mor in (counit_morphism(e), identity_morphism(e)):
                m = standard_module("mod_tensor_c",
                                    regular_module(mor.src.alg), mor.src)
                mt = standard_module("comod_tensor_a",
                                     regular_comodule(mor.dst.coalg), mor.dst)
                adjunction_maps(mor, m, mt)  # raises if a triangle fails


def test_adjunction_unit_formula(c2_q):
    # along the counit morphism the unit of the adjunction is the coaction
    # (after the canonical identification of M (x)_A A with M)
    e = c2_q.ent
    mor = counit_morphism(e)
    m = c2_q.module_A()
    phi, _ = adjunction_maps(mor, m, induce(mor, m)[0])
    fm, quot = induce(mor, m)
    # embed M = M (x) 1 and compare against the coaction route
    embed = quot.projection.compose(kron(m.identity(), e.alg.unit_map()))
    _, sub = coinduce(mor, fm)
    expected = sub.retraction.compose(
        kron(embed, e.coalg.identity()).compose(m.coaction))
    assert phi.equals(expected)


def test_adjunction_counit_is_counit_contraction(c2_q):
    # for the counit morphism, the counit of the adjunction collapses the
    # coalgebra leg with eps after the canonical embedding
    e = c2_q.ent
    mor = counit_morphism(e)
    mt = induce(mor, c2_q.module_A())[0]
    _, psi = adjunction_maps(mor, c2_q.module_A(), mt)
    gmt, sub = coinduce(mor, mt)
    _, quot = induce(mor, gmt)
    embed = quot.projection.compose(kron(gmt.identity(), e.alg.unit_map()))
    composite = psi.compose(embed)
    expected = kron(LinMap.identity(QQ, (mt.dim,)), e.coalg.counit_map()) \
        .compose(sub.inclusion)
    assert composite.equals(expected)


def test_fixed_part_of_A_is_fixed_subalgebra(c2_q):
    fp = fixed_part(c2_q.alg.mult, c2_q.rho_a, c2_q.rho_a)
    assert fp.basis == c2_q.fixed.basis
    assert fp.dim == 1


def test_fixed_part_closed_under_product(c2_q):
    fp = fixed_part(c2_q.alg.mult, c2_q.rho_a, c2_q.rho_a)
    a = c2_q.alg
    assert fp.contains(a.unit)
    for u in fp.basis:
        for v in fp.basis:
            assert fp.contains(a.mult.apply(tuple(x * y for x in u for y in v)))


def test_fixed_part_trivial_entwining():
    # over the ground entwining the single condition rho(m) = m (x) 1 is
    # satisfied by everything, so the fixed part is the whole module
    ent = ground_entwining(QQ)
    m = standard_module("mod_tensor_c",
                        LinMap.from_rows(QQ, (1, 1), (1,), [[q(1)]]), ent)
    rho = LinMap.from_rows(QQ, (1,), (1, 1), [[q(1)]])
    assert fixed_part(m.action, m.coaction, rho).dim == m.dim


def test_fixed_part_with_grouplike_coaction():
    # over (k, C) the coaction of the ground algebra picks a group-like x,
    # and the fixed part of C is exactly the line through x
    from entwine.entwining import twist_entwining, ground_algebra
    from entwine.catalog import cyclic_group_hopf
    h = cyclic_group_hopf(2, QQ)
    ent = twist_entwining(ground_algebra(QQ), h.coalg)
    m = standard_module("mod_tensor_c",
                        LinMap.from_rows(QQ, (1, 1), (1,), [[q(1)]]), ent)
    rho = LinMap.from_rows(QQ, (1,), (1, 2), [[q(1)], [q(0)]])
    fp = fixed_part(m.action, m.coaction, rho)
    assert fp.dim == 1
    assert fp.contains((q(1), q(0)))


def test_hom_contains_identity(c2_q):
    m = c2_q.module_A()
    h = hom_AC_system(m, m).solve().homogeneous
    idvec = tuple(x for row in m.identity().entries for x in row)
    assert h.contains(idvec)


def test_hom_contains_coaction(c2_q):
    e = c2_q.ent
    m = c2_q.module_A()
    ac = standard_module("mod_tensor_c", regular_module(e.alg), e)
    h = hom_AC_system(m, ac).solve().homogeneous
    rho_vec = tuple(x for row in c2_q.rho_a.entries for x in row)
    assert h.contains(rho_vec)


def test_hom_dim_matches_bruteforce(c2_q):
    # assemble the two commutation systems by hand and row-reduce them with
    # the oracle; unknowns are the 4 entries of a map A -> A
    m = c2_q.module_A()
    h = hom_AC_system(m, m).solve().homogeneous
    n = 2
    mult = {(i, j): (i + j) % n for i in range(n) for j in range(n)}
    rows = []
    # A-linearity: X(x.a)[p] = (X(x).a)[p] for basis x, a
    for x in range(n):
        for a in range(n):
            for p in range(n):
                row = [0] * (n * n)
                row[p * n + mult[(x, a)]] += 1
                for y in range(n):
                    if mult[(y, a)] == p:
                        row[y * n + x] -= 1
                rows.append(row)
    # colinearity: coaction is group-like, rho(X(x)) vs (X (x) id) rho(x)
    for x in range(n):
        for p in range(n):
            for c in range(n):
                row = [0] * (n * n)
                if p == c:
                    row[p * n + x] += 1
                if c == x:
                    row[p * n + x] -= 1
                rows.append(row)
    assert h.dim == oracle.kernel_dim(rows)


def test_cotensor_unit_iso_explicit(c2_q):
    # V [] C = V through mutually inverse maps: v -> rho(v) into the
    # cotensor, and V (x) eps back
    e = c2_q.ent
    v = standard_module("mod_tensor_c", regular_module(e.alg), e)
    sub = cotensor(v.coaction, e.coalg.comult)
    fwd = sub.retraction.compose(v.coaction)
    idv = LinMap.identity(QQ, (v.dim,))
    back = kron(idv, e.coalg.counit_map()).compose(sub.inclusion)
    assert back.compose(fwd).equals(idv)
    assert fwd.compose(back).equals(LinMap.identity(QQ, (sub.dim,)))


def test_tensor_unit_iso_explicit(c2_q):
    # M (x)_A A = M through m -> class(m (x) 1) and the action back
    a = c2_q.alg
    m = regular_module(a)
    quot = tensor_over_A(m, a.mult)
    fwd = quot.projection.compose(kron(LinMap.identity(QQ, (2,)),
                                       a.unit_map()))
    back = m.compose(quot.section)
    assert back.compose(fwd).equals(LinMap.identity(QQ, (2,)))
    assert fwd.compose(back).equals(LinMap.identity(QQ, (quot.dim,)))


def test_zero_module_fixed_part(c2_q):
    zero = EntwinedModule(c2_q.ent, 0,
                          LinMap.zero(QQ, (0, 2), (0,)),
                          LinMap.zero(QQ, (0,), (0, 2)))
    assert fixed_part(zero.action, zero.coaction, c2_q.rho_a).dim == 0


def _count_functor_calls(monkeypatch):
    """Count induce/coinduce calls in every module that binds them."""
    from entwine import entmod, witness
    counts = {"induce": 0, "coinduce": 0}
    for name in counts:
        original = getattr(entmod, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        for mod in (entmod, witness):
            monkeypatch.setattr(mod, name, counted)
    return counts


def test_adjunction_maps_builds_each_functor_once(c2_q, monkeypatch):
    mor = counit_morphism(c2_q.ent)
    m = c2_q.module_A()
    mt = induce(mor, m)[0]
    counts = _count_functor_calls(monkeypatch)
    adjunction_maps(mor, m, mt)
    # F m, F G m~ and G F m, G m~ are built as modules; the triangles need
    # only the carriers of F G F m and G F G m~, so those are not built
    assert counts == {"induce": 2, "coinduce": 2}


def test_nu_from_lambda_builds_each_functor_once(c2_q, monkeypatch):
    from entwine import nu_from_lambda
    from entwine.witness import integrability_system, lambda_witness
    mor = counit_morphism(c2_q.ent)
    lam = lambda_witness(mor, integrability_system(mor)[0].solve().particular)
    counts = _count_functor_calls(monkeypatch)
    nu_from_lambda(lam, c2_q.module_A())
    assert counts == {"induce": 1, "coinduce": 1}
