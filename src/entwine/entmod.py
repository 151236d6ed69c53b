"""Entwined modules and the functors between their categories.

A module here is simultaneously a right module and a right comodule whose
action and coaction commute through psi.  A one-sided (co)module is passed
as its structure map: a right action is a map V (x) A -> V, a left action
A (x) V -> V, a right coaction V -> V (x) C and a left coaction
V -> C (x) V, and its dimension is read off the map's shape.

The two functors induced by a morphism of entwinings (tensoring up along
the algebra map, cotensoring down along the coalgebra map) are realised
with explicit quotient and subspace plumbing, so that every derived
structure map is an honest matrix and not a coset description.

Over a field the preservation hypotheses needed for these constructions
(cotensoring preserves the relevant cokernels, tensoring the relevant
kernels) hold automatically, so no runtime check is made for them; the
landing and descent assertions on each individual map still run.
"""

from __future__ import annotations

from .errors import InputError
from .entwining import Entwining, EntwiningMorphism
from .linalg import (LinMap, LinearConstraints, QuotientModule, Subspace,
                     SCALAR, compose_all, corestrict, descend, image, kernel,
                     kron, kron_all, quotient_by)
from .records import Record
from .structures import Algebra, CheckReport, Coalgebra, law


class EntwinedModule(Record):
    _fields = ("ent", "dim", "action",  # (dim, dimA) -> (dim)
               "coaction")              # (dim) -> (dim, dimC)

    def __init__(self, ent: Entwining, dim: int, action: LinMap,
                 coaction: LinMap):
        da, dc = ent.alg.dim, ent.coalg.dim
        if action.domain != (dim, da) or action.codomain != (dim,):
            raise InputError("action shape does not match the module")
        if coaction.domain != (dim,) or coaction.codomain != (dim, dc):
            raise InputError("coaction shape does not match the module")
        super().__init__(ent, dim, action, coaction)

    @property
    def field(self):
        return self.ent.field

    def identity(self) -> LinMap:
        return LinMap.identity(self.field, (self.dim,))


def check_right_module(alg: Algebra, action: LinMap, failures):
    idm = LinMap.identity(alg.field, action.codomain)
    law(failures, "action associativity",
        action.compose(kron(action, alg.identity())),
        action.compose(kron(idm, alg.mult)))
    law(failures, "action unitality",
        action.compose(kron(idm, alg.unit_map())), idm)


def check_right_comodule(coalg: Coalgebra, coaction: LinMap, failures):
    idm = LinMap.identity(coalg.field, coaction.domain)
    law(failures, "coaction coassociativity",
        kron(coaction, coalg.identity()).compose(coaction),
        kron(idm, coalg.comult).compose(coaction))
    law(failures, "coaction counitality",
        kron(idm, coalg.counit_map()).compose(coaction), idm)


def verify_coaction(coalg: Coalgebra, coaction: LinMap) -> CheckReport:
    """Right coaction axioms for a map V -> V (x) C."""
    failures = []
    check_right_comodule(coalg, coaction, failures)
    return CheckReport("coaction", tuple(failures))


def verify_action(alg: Algebra, action: LinMap) -> CheckReport:
    """Right action axioms for a map V (x) A -> V."""
    failures = []
    check_right_module(alg, action, failures)
    return CheckReport("action", tuple(failures))


def check_entwined_compatibility(m: EntwinedModule, failures):
    """The one law tying the action to the coaction through psi."""
    e = m.ent
    law(failures, "entwined compatibility",
        m.coaction.compose(m.action),
        compose_all(kron(m.action, e.coalg.identity()),
                    kron(m.identity(), e.psi),
                    kron(m.coaction, e.alg.identity())))


def verify_entwined_module(m: EntwinedModule) -> CheckReport:
    e = m.ent
    failures = []
    check_right_module(e.alg, m.action, failures)
    check_right_comodule(e.coalg, m.coaction, failures)
    check_entwined_compatibility(m, failures)
    return CheckReport("entwined module", tuple(failures))


def regular_module(alg: Algebra) -> LinMap:
    """A as a right module over itself: its action is the product."""
    return alg.mult


def regular_comodule(coalg: Coalgebra) -> LinMap:
    """C as a right comodule over itself: its coaction is the coproduct."""
    return coalg.comult


def standard_module(kind: str, base: LinMap, ent: Entwining) -> EntwinedModule:
    """The two canonical entwined modules over any entwining.

    "mod_tensor_c": from a right action M (x) A -> M, the space M (x) C
    with coaction M (x) comult and action through psi.  "comod_tensor_a":
    from a right coaction V -> V (x) C, the space V (x) A with action
    V (x) mult and coaction through psi.
    """
    f = ent.field
    a, c = ent.alg, ent.coalg
    if kind == "mod_tensor_c":
        d = base.rows
        if base.domain != (d, a.dim) or base.codomain != (d,):
            raise InputError("mod_tensor_c needs a right action M (x) A -> M")
        verify_action(a, base).require()
        idm = LinMap.identity(f, (d,))
        action = compose_all(kron(base, c.identity()), kron(idm, ent.psi))
        coaction = kron(idm, c.comult)
        out = EntwinedModule(ent, d * c.dim,
                             action.reshaped((d * c.dim, a.dim), (d * c.dim,)),
                             coaction.reshaped((d * c.dim,),
                                               (d * c.dim, c.dim)))
    elif kind == "comod_tensor_a":
        d = base.cols
        if base.domain != (d,) or base.codomain != (d, c.dim):
            raise InputError(
                "comod_tensor_a needs a right coaction V -> V (x) C")
        verify_coaction(c, base).require()
        idv = LinMap.identity(f, (d,))
        action = kron(idv, a.mult)
        coaction = compose_all(kron(idv, ent.psi), kron(base, a.identity()))
        out = EntwinedModule(ent, d * a.dim,
                             action.reshaped((d * a.dim, a.dim), (d * a.dim,)),
                             coaction.reshaped((d * a.dim,),
                                               (d * a.dim, c.dim)))
    else:
        raise InputError(f"unknown standard module kind {kind!r}")
    verify_entwined_module(out).require()
    return out


# ---------------------------------------------------------------------------
# cotensor products and tensor products over A


def cotensor(right: LinMap, left: LinMap) -> Subspace:
    """V [] W inside V (x) W, for a right coaction V -> V (x) C and a left
    coaction W -> C (x) W: the kernel of the coaction equalising map."""
    if right.codomain[1] != left.codomain[0]:
        raise InputError("cotensor factors do not share a coalgebra")
    f = right.field
    eq = kron(right, LinMap.identity(f, left.domain)).sub(
        kron(LinMap.identity(f, right.domain), left))
    return kernel(eq)


def tensor_over_A(right: LinMap, left: LinMap) -> QuotientModule:
    """M (x)_A N as an explicit quotient with projection and section, for a
    right action M (x) A -> M and a left action A (x) N -> N."""
    if right.domain[1] != left.domain[0]:
        raise InputError("tensor factors do not share an algebra")
    f = right.field
    eq = kron(right, LinMap.identity(f, left.codomain)).sub(
        kron(LinMap.identity(f, right.codomain), left))
    return quotient_by(image(eq))


def balanced_power(alg: Algebra, b: Subspace, n: int) -> QuotientModule:
    """A (x)_B ... (x)_B A with n factors, as one quotient of the n-fold
    tensor power by all middle balancing relations; n = 0 gives the ground
    field and n = 1 gives A, each with no relations."""
    f = alg.field
    if n < 2:
        return quotient_by(Subspace.zero(f, (alg.dim,) * n))
    ida = alg.identity()
    incl = b.inclusion
    # move: A (x) B (x) A -> A (x) A, the balancing defect at one junction
    move = kron(alg.mult.compose(kron(ida, incl)), ida).sub(
        kron(ida, alg.mult.compose(kron(incl, ida))))
    return quotient_by(Subspace.span(f, (alg.dim,) * n, [
        col for pos in range(n - 1)
        for col in kron_all(LinMap.identity(f, (alg.dim,) * pos), move,
                            LinMap.identity(f, (alg.dim,) * (n - 2 - pos)))
        .transpose().nonzeros]))


# ---------------------------------------------------------------------------
# the two functors attached to a morphism of entwinings


def _induced_carrier(mor: EntwiningMorphism,
                     action: LinMap) -> QuotientModule:
    """The quotient M (x)_A A~ that carries the induced module, for a right
    source-action on M, with the target algebra a left module over the
    source through f."""
    dst_a = mor.dst.alg
    return tensor_over_A(action,
                         dst_a.mult.compose(kron(mor.f, dst_a.identity())))


def _induced_coaction(mor: EntwiningMorphism, coaction: LinMap) -> LinMap:
    """x (x) a~ -> x0 (x) psi~(g(x1) (x) a~) on V (x) A~ for a right
    source-coaction on V, shaped as a coaction on the flattened space."""
    dst = mor.dst
    idv = LinMap.identity(dst.field, coaction.domain)
    ida2 = dst.alg.identity()
    dim = coaction.cols * dst.alg.dim
    return compose_all(kron(idv, dst.psi), kron_all(idv, mor.g, ida2),
                       kron(coaction, ida2)).reshaped((dim,),
                                                      (dim, dst.coalg.dim))


def induce(mor: EntwiningMorphism, m: EntwinedModule):
    """M (x)_A A~ as a module over the target entwining.

    Returns the module together with the quotient plumbing that realises it.
    """
    if m.ent is not mor.src and m.ent != mor.src:
        raise InputError("module does not live over the source entwining")
    dst = mor.dst
    da2, dc2 = dst.alg.dim, dst.coalg.dim
    quot = _induced_carrier(mor, m.action)
    # action (x (x)_A a~) . a~' = x (x)_A (a~ a~')
    act_raw = kron(m.identity(), dst.alg.mult)
    action = descend(quot.projection.compose(act_raw), quot, right=da2)
    coact_raw = _induced_coaction(mor, m.coaction)
    coaction = descend(kron(quot.projection, dst.coalg.identity()).compose(coact_raw),
                       quot)
    qd = quot.dim
    out = EntwinedModule(dst, qd,
                         action.reshaped((qd, da2), (qd,)),
                         coaction.reshaped((qd,), (qd, dc2)))
    verify_entwined_module(out).require()
    return out, quot


def _coinduced_carrier(mor: EntwiningMorphism, coaction: LinMap) -> Subspace:
    """The subspace V [] C that carries the coinduced module, for a right
    target-coaction on V, with the source coalgebra a left comodule over
    the target through g."""
    src_c = mor.src.coalg
    return cotensor(coaction,
                    kron(mor.g, src_c.identity()).compose(src_c.comult))


def coinduce(mor: EntwiningMorphism, mt: EntwinedModule):
    """M~ [] C as a module over the source entwining.

    Returns the module together with the cotensor subspace that carries it.
    """
    if mt.ent is not mor.dst and mt.ent != mor.dst:
        raise InputError("module does not live over the target entwining")
    src = mor.src
    da, dc = src.alg.dim, src.coalg.dim
    sub = _coinduced_carrier(mor, mt.coaction)
    idmt = mt.identity()
    idc = src.coalg.identity()
    # coaction Sum m~ (x) c -> Sum m~ (x) c1 (x) c2
    coact_raw = kron(idmt, src.coalg.comult).compose(sub.inclusion)
    coaction = corestrict(coact_raw, sub, right=dc)
    # action Sum m~ (x) c . a = Sum m~ f(a_alpha) (x) c^alpha
    mult_f = mt.action.compose(kron(idmt, mor.f))
    act_raw = compose_all(kron(mult_f, idc),
                          kron(idmt, src.psi),
                          kron(sub.inclusion, src.alg.identity()))
    action = corestrict(act_raw, sub)
    sd = sub.dim
    out = EntwinedModule(src, sd,
                         action.reshaped((sd, da), (sd,)),
                         coaction.reshaped((sd,), (sd, dc)))
    verify_entwined_module(out).require()
    return out, sub


def induce_morphism(mor: EntwiningMorphism, phi: LinMap,
                    src_quot: QuotientModule, dst_quot: QuotientModule) -> LinMap:
    """phi (x)_A A~ between two induced modules."""
    da2 = mor.dst.alg.dim
    raw = dst_quot.projection.compose(kron(phi, LinMap.identity(phi.field, (da2,))))
    return descend(raw, src_quot)


def coinduce_morphism(mor: EntwiningMorphism, phi: LinMap,
                      src_sub: Subspace, dst_sub: Subspace) -> LinMap:
    """phi [] C between two coinduced modules."""
    dc = mor.src.coalg.dim
    raw = kron(phi, LinMap.identity(phi.field, (dc,))).compose(src_sub.inclusion)
    return corestrict(raw, dst_sub)


def adjunction_unit(mor: EntwiningMorphism, m: EntwinedModule,
                    quot: QuotientModule, sub: Subspace) -> LinMap:
    """m -> m0 (x) 1 (x) m1, given the quotient carrying the induced module
    F m and the cotensor subspace carrying G F m."""
    idc = mor.src.coalg.identity()
    raw = compose_all(kron(quot.projection, idc),
                      kron_all(m.identity(), mor.dst.alg.unit_map(), idc),
                      m.coaction)
    return corestrict(raw, sub)


def adjunction_counit(mor: EntwiningMorphism, mt: EntwinedModule,
                      sub: Subspace, quot: QuotientModule) -> LinMap:
    """Sum m~ (x) c (x) a~ -> Sum m~ . a~ eps(c), given the cotensor subspace
    carrying the coinduced module G m~ and the quotient carrying F G m~."""
    ida2 = mor.dst.alg.identity()
    raw = compose_all(mt.action,
                      kron_all(mt.identity(), mor.src.coalg.counit_map(), ida2),
                      kron(sub.inclusion, ida2))
    return descend(raw, quot)


def adjunction_maps(mor: EntwiningMorphism, m: EntwinedModule,
                    mt: EntwinedModule):
    """The unit at m and counit at m~ of the induction/coinduction adjunction.

    Both triangle identities are re-verified exactly before returning.  Of
    the six functor applications they need, four are built as modules (F m,
    G F m, G m~, F G m~), each once; G F G m~ and F G F m enter only through
    their carriers, so only those are built.
    """
    fm, q_fm = induce(mor, m)
    gfm, s_gfm = coinduce(mor, fm)
    phi = adjunction_unit(mor, m, q_fm, s_gfm)
    gmt, s_gmt = coinduce(mor, mt)
    fgmt, q_fgmt = induce(mor, gmt)
    psi = adjunction_counit(mor, mt, s_gmt, q_fgmt)
    # counit(F m) . F(unit_m) = id on F m
    q_fgfm = _induced_carrier(mor, gfm.action)
    f_phi = induce_morphism(mor, phi, q_fm, q_fgfm)
    failures = []
    law(failures, "counit . F unit",
        adjunction_counit(mor, fm, s_gfm, q_fgfm).compose(f_phi), fm.identity())
    # G(counit_m~) . unit(G m~) = id on G m~
    s_gfgmt = _coinduced_carrier(mor, fgmt.coaction)
    g_psi = coinduce_morphism(mor, psi, s_gfgmt, s_gmt)
    law(failures, "G counit . unit",
        g_psi.compose(adjunction_unit(mor, gmt, q_fgmt, s_gfgmt)), gmt.identity())
    CheckReport("adjunction triangles", tuple(failures)).require()
    return phi, psi


# ---------------------------------------------------------------------------
# fixed parts and morphism spaces


def fixed_part(action: LinMap, coaction: LinMap, rho_a: LinMap) -> Subspace:
    """Elements x of M with coaction(x . a) = x . rho_a(a) for every a in A,
    for the raw maps action M (x) A -> M, coaction M -> M (x) C and rho_a
    A -> A (x) C, so no entwining need exist yet.  For M = A (action the
    product, coaction rho_a) this is the fixed subalgebra."""
    f = action.field
    da, dc = rho_a.codomain
    sys = LinearConstraints(f, SCALAR, action.codomain)
    # both sides as maps A -> M (x) C in the unknown element x: k -> M
    lhs = (LinMap.identity(f, (da,)), SCALAR, (da,), coaction.compose(action))
    rhs = (rho_a, SCALAR, (da, dc), kron(action, LinMap.identity(f, (dc,))))
    sys.require("fixed under the coaction", lhs, rhs)
    return sys.solve().homogeneous


def hom_AC_system(m: EntwinedModule, n: EntwinedModule) -> LinearConstraints:
    """The conditions on a map M -> N to commute with both the actions and
    the coactions."""
    if m.ent != n.ent:
        raise InputError("modules live over different entwinings")
    f = m.field
    e = m.ent
    da, dc = e.alg.dim, e.coalg.dim
    sys = LinearConstraints(f, (m.dim,), (n.dim,))
    # A-linearity: X . action_M = action_N . (X (x) id_A)
    lin_lhs = (m.action, SCALAR, SCALAR, n.identity())
    lin_rhs = (LinMap.identity(f, (m.dim, da)), SCALAR, (da,), n.action)
    sys.require("A-linearity", lin_lhs, lin_rhs)
    # C-colinearity: coaction_N . X = (X (x) id_C) . coaction_M
    col_lhs = (m.identity(), SCALAR, SCALAR, n.coaction)
    col_rhs = (m.coaction, SCALAR, (dc,), LinMap.identity(f, (n.dim, dc)))
    sys.require("C-colinearity", col_lhs, col_rhs)
    return sys


def hom_AC(m: EntwinedModule, n: EntwinedModule) -> Subspace:
    """All maps commuting with both the actions and the coactions, as a
    subspace of the full matrix space with ambient (dim N, dim M)."""
    return hom_AC_system(m, n).solve().homogeneous
