"""Entwined modules and the functors between their categories.

A module here is simultaneously a right module and a right comodule whose
action and coaction commute through psi.  The two functors induced by a
morphism of entwinings (tensoring up along the algebra map, cotensoring
down along the coalgebra map) are realised with explicit quotient and
subspace plumbing, so that every derived structure map is an honest matrix
and not a coset description.

Over a field the preservation hypotheses needed for these constructions
(cotensoring preserves the relevant cokernels, tensoring the relevant
kernels) hold automatically, so no runtime check is made for them; the
landing and descent assertions on each individual map still run.
"""

from __future__ import annotations

from .errors import DomainError, InputError
from .entwining import Entwining, EntwiningMorphism
from .linalg import (LinMap, LinearConstraints, QuotientModule, Subspace,
                     SCALAR, compose_all, corestrict, descend, image, kernel,
                     kron, kron_all, quotient_by)
from .records import Record
from .structures import Algebra, CheckReport, Coalgebra, law


class RightModule(Record):
    _fields = ("dim", "action")  # action: (dim, dimA) -> (dim)


class LeftModule(Record):
    _fields = ("dim", "action")  # action: (dimA, dim) -> (dim)


class RightComodule(Record):
    _fields = ("dim", "coaction")  # coaction: (dim) -> (dim, dimC)


class LeftComodule(Record):
    _fields = ("dim", "coaction")  # coaction: (dim) -> (dimC, dim)


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

    def as_module(self) -> RightModule:
        return RightModule(self.dim, self.action)

    def as_comodule(self) -> RightComodule:
        return RightComodule(self.dim, self.coaction)

    def identity(self) -> LinMap:
        return LinMap.identity(self.field, (self.dim,))


def check_right_module(alg: Algebra, m: RightModule, failures):
    idm = LinMap.identity(alg.field, (m.dim,))
    law(failures, "action associativity",
        m.action.compose(kron(m.action, alg.identity())),
        m.action.compose(kron(idm, alg.mult)))
    law(failures, "action unitality",
        m.action.compose(kron(idm, alg.unit_map())), idm)


def check_right_comodule(coalg, m: RightComodule, failures):
    idm = LinMap.identity(coalg.field, (m.dim,))
    law(failures, "coaction coassociativity",
        kron(m.coaction, coalg.identity()).compose(m.coaction),
        kron(idm, coalg.comult).compose(m.coaction))
    law(failures, "coaction counitality",
        kron(idm, coalg.counit_map()).compose(m.coaction), idm)


def verify_coaction(coalg: Coalgebra, coaction: LinMap) -> CheckReport:
    """Right coaction axioms for a map V -> V (x) C."""
    failures = []
    check_right_comodule(coalg, RightComodule(coaction.domain[0], coaction),
                         failures)
    return CheckReport("coaction", tuple(failures))


def verify_action(alg: Algebra, action: LinMap) -> CheckReport:
    """Right action axioms for a map V (x) A -> V."""
    failures = []
    check_right_module(alg, RightModule(action.codomain[0], action),
                       failures)
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
    check_right_module(e.alg, m.as_module(), failures)
    check_right_comodule(e.coalg, m.as_comodule(), failures)
    check_entwined_compatibility(m, failures)
    return CheckReport("entwined module", tuple(failures))


def regular_module(alg: Algebra) -> RightModule:
    return RightModule(alg.dim, alg.mult)


def regular_comodule(coalg) -> RightComodule:
    return RightComodule(coalg.dim, coalg.comult)


def standard_module(kind: str, base, ent: Entwining) -> EntwinedModule:
    """The two canonical entwined modules over any entwining.

    "mod_tensor_c": from a right module M, the space M (x) C with coaction
    M (x) comult and action through psi.  "comod_tensor_a": from a right
    comodule V, the space V (x) A with action V (x) mult and coaction
    through psi.
    """
    f = ent.field
    a, c = ent.alg, ent.coalg
    if kind == "mod_tensor_c":
        if not isinstance(base, RightModule):
            raise DomainError("mod_tensor_c needs a right module base")
        verify_action(a, base.action).require()
        idm = LinMap.identity(f, (base.dim,))
        action = compose_all(kron(base.action, c.identity()), kron(idm, ent.psi))
        coaction = kron(idm, c.comult)
        out = EntwinedModule(ent, base.dim * c.dim,
                             action.reshaped((base.dim * c.dim, a.dim),
                                             (base.dim * c.dim,)),
                             coaction.reshaped((base.dim * c.dim,),
                                               (base.dim * c.dim, c.dim)))
    elif kind == "comod_tensor_a":
        if not isinstance(base, RightComodule):
            raise DomainError("comod_tensor_a needs a right comodule base")
        verify_coaction(c, base.coaction).require()
        idv = LinMap.identity(f, (base.dim,))
        action = kron(idv, a.mult)
        coaction = compose_all(kron(idv, ent.psi), kron(base.coaction, a.identity()))
        out = EntwinedModule(ent, base.dim * a.dim,
                             action.reshaped((base.dim * a.dim, a.dim),
                                             (base.dim * a.dim,)),
                             coaction.reshaped((base.dim * a.dim,),
                                               (base.dim * a.dim, c.dim)))
    else:
        raise InputError(f"unknown standard module kind {kind!r}")
    verify_entwined_module(out).require()
    return out


# ---------------------------------------------------------------------------
# cotensor products and tensor products over A


def cotensor(x: RightComodule, y: LeftComodule) -> Subspace:
    """V [] W inside V (x) W: the kernel of the coaction equalising map."""
    f = x.coaction.field
    xc = x.coaction.codomain[1]
    yc = y.coaction.codomain[0]
    if xc != yc:
        raise InputError("cotensor factors do not share a coalgebra")
    idx = LinMap.identity(f, (x.dim,))
    idy = LinMap.identity(f, (y.dim,))
    eq = kron(x.coaction, idy).sub(kron(idx, y.coaction))
    return kernel(eq)


def tensor_over_A(m: RightModule, n: LeftModule) -> QuotientModule:
    """M (x)_A N as an explicit quotient with projection and section."""
    f = m.action.field
    ma = m.action.domain[1]
    na = n.action.domain[0]
    if ma != na:
        raise InputError("tensor factors do not share an algebra")
    idm = LinMap.identity(f, (m.dim,))
    idn = LinMap.identity(f, (n.dim,))
    eq = kron(m.action, idn).sub(kron(idm, n.action))
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
                     m: RightModule) -> QuotientModule:
    """The quotient M (x)_A A~ that carries the induced module, for a right
    source-module M, with the target algebra a left module over the source
    through f."""
    dst_a = mor.dst.alg
    action = dst_a.mult.compose(kron(mor.f, dst_a.identity()))
    return tensor_over_A(m, LeftModule(dst_a.dim, action))


def _induced_coaction(mor: EntwiningMorphism, v: RightComodule) -> LinMap:
    """x (x) a~ -> x0 (x) psi~(g(x1) (x) a~) on V (x) A~ for a right
    source-comodule V, shaped as a coaction on the flattened space."""
    dst = mor.dst
    idv = LinMap.identity(dst.field, (v.dim,))
    ida2 = dst.alg.identity()
    dim = v.dim * dst.alg.dim
    return compose_all(kron(idv, dst.psi), kron_all(idv, mor.g, ida2),
                       kron(v.coaction, ida2)).reshaped((dim,),
                                                        (dim, dst.coalg.dim))


def induce(mor: EntwiningMorphism, m: EntwinedModule):
    """M (x)_A A~ as a module over the target entwining.

    Returns the module together with the quotient plumbing that realises it.
    """
    if m.ent is not mor.src and m.ent != mor.src:
        raise InputError("module does not live over the source entwining")
    dst = mor.dst
    da2, dc2 = dst.alg.dim, dst.coalg.dim
    quot = _induced_carrier(mor, m.as_module())
    # action (x (x)_A a~) . a~' = x (x)_A (a~ a~')
    act_raw = kron(m.identity(), dst.alg.mult)
    action = descend(quot.projection.compose(act_raw), quot, right=da2)
    coact_raw = _induced_coaction(mor, m.as_comodule())
    coaction = descend(kron(quot.projection, dst.coalg.identity()).compose(coact_raw),
                       quot)
    qd = quot.dim
    out = EntwinedModule(dst, qd,
                         action.reshaped((qd, da2), (qd,)),
                         coaction.reshaped((qd,), (qd, dc2)))
    verify_entwined_module(out).require()
    return out, quot


def _coinduced_carrier(mor: EntwiningMorphism, v: RightComodule) -> Subspace:
    """The subspace V [] C that carries the coinduced module, for a right
    target-comodule V, with the source coalgebra a left comodule over the
    target through g."""
    src_c = mor.src.coalg
    coaction = kron(mor.g, src_c.identity()).compose(src_c.comult)
    return cotensor(v, LeftComodule(src_c.dim, coaction))


def coinduce(mor: EntwiningMorphism, mt: EntwinedModule):
    """M~ [] C as a module over the source entwining.

    Returns the module together with the cotensor subspace that carries it.
    """
    if mt.ent is not mor.dst and mt.ent != mor.dst:
        raise InputError("module does not live over the target entwining")
    src = mor.src
    da, dc = src.alg.dim, src.coalg.dim
    sub = _coinduced_carrier(mor, mt.as_comodule())
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
    q_fgfm = _induced_carrier(mor, gfm.as_module())
    f_phi = induce_morphism(mor, phi, q_fm, q_fgfm)
    failures = []
    law(failures, "counit . F unit",
        adjunction_counit(mor, fm, s_gfm, q_fgfm).compose(f_phi), fm.identity())
    # G(counit_m~) . unit(G m~) = id on G m~
    s_gfgmt = _coinduced_carrier(mor, fgmt.as_comodule())
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
