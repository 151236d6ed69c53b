"""Witness solvers.

Every separability-style certificate in this library is the solution of an
exact linear system: integrals (elements of A (x) C centralising the two
A-actions), cointegrals (functionals on C (x) A), integral maps
C (x) C -> A, cointegral maps C -> A (x) A, and the two morphism-level
witnesses attached to a morphism of entwining structures (here called
"lambda" and "frakz", matching the CLI vocabulary): lambda splits the unit
of the induction/coinduction adjunction, frakz cosplits its counit.

Each defining identity is assembled once, by `*_system`, into a
LinearConstraints block; the solvers call .solve() on it and the checkers
call .violations() on the same object, so there is a single source of truth
per diagram; .violations() lists one CheckFailure(label, (output index,
input index)) per failed block, every other identity is a `law`, and
`CheckReport.require` raises a failure (InconsistencyError when the library
derived the map).  Of the four kinds, only the integral side is written
out: a cointegral (map) of (A, C, psi) is the transpose of an integral
(map) of the dual entwining (C^*, A^*, psi^T), so its system is that
integral system stated on the transposed unknown (Brzezinski-Hajac 1999).

Four builders read a witness off structure and re-verify it instead:
`integral_from_invariant`, `cointegral_from_casimir`,
`integral_map_from_cotranslation` and `cointegral_map_from_can_inv`.
"""

from __future__ import annotations

from enum import Enum

from .errors import DomainError, InconsistencyError, InputError
from .entwining import Entwining, EntwiningMorphism, dual_entwining
from .entmod import (EntwinedModule, _coinduced_carrier, _induced_carrier,
                     _induced_coaction, adjunction_unit, coinduce,
                     hom_AC_system, induce, standard_module, regular_module)
from .galois import Coextension, GaloisExtension, copointed_grouplike, \
    cotranslation_map, pointed_kappa
from .linalg import (AffineSolutionSet, LinMap, LinearConstraints, SCALAR,
                     compose_all, corestrict, descend, kron, kron_all,
                     right_inverse)
from .records import Record
from .structures import CheckReport, law


class WitnessKind(str, Enum):
    INTEGRAL = "integral"
    COINTEGRAL = "cointegral"
    INTEGRAL_MAP = "integral_map"
    COINTEGRAL_MAP = "cointegral_map"


class Witness(Record):
    _fields = ("kind", "ent", "value",  # row-major vectorization of the witness
               "normalized")

    def as_map(self) -> LinMap:
        dom, cod = witness_shapes(self.kind, self.ent)
        return LinMap.from_flat(self.ent.field, dom, cod, self.value)


def witness_shapes(kind: WitnessKind, e: Entwining):
    """(domain, codomain) of the witness seen as a linear map."""
    da, dc = e.alg.dim, e.coalg.dim
    if kind == WitnessKind.INTEGRAL:
        return SCALAR, (da, dc)
    if kind == WitnessKind.COINTEGRAL:
        return (dc, da), SCALAR
    if kind == WitnessKind.INTEGRAL_MAP:
        return (dc, dc), (da,)
    if kind == WitnessKind.COINTEGRAL_MAP:
        return (dc,), (da, da)
    raise InputError(f"unknown witness kind {kind!r}")


def witness_system(kind: WitnessKind, e: Entwining,
                   normalized: bool) -> LinearConstraints:
    if kind == WitnessKind.COINTEGRAL:
        return witness_system(WitnessKind.INTEGRAL, dual_entwining(e),
                              normalized).transposed()
    if kind == WitnessKind.COINTEGRAL_MAP:
        return witness_system(WitnessKind.INTEGRAL_MAP, dual_entwining(e),
                              normalized).transposed()
    f = e.field
    a, c, psi = e.alg, e.coalg, e.psi
    da, dc = a.dim, c.dim
    ida, idc = a.identity(), c.identity()
    dom, cod = witness_shapes(kind, e)
    sys = LinearConstraints(f, dom, cod)
    if kind == WitnessKind.INTEGRAL:
        # a . z = z . a for every a, as maps A -> A (x) C in the unknown z
        left = (ida, (da,), SCALAR, kron(a.mult, idc))
        right = (ida, SCALAR, (da,),
                 compose_all(kron(a.mult, idc), kron(ida, psi)))
        sys.require("centrality", left, right)
        if normalized:
            norm = (LinMap.identity(f, SCALAR), SCALAR, SCALAR,
                    kron(ida, c.counit_map()))
            sys.require("normalisation", norm, target=a.unit_map())
    elif kind == WitnessKind.INTEGRAL_MAP:
        # gamma(c (x) c'1) (x) c'2 = psi(c1 (x) gamma(c2 (x) c'))
        co_l = (kron(idc, c.comult), SCALAR, (dc,),
                LinMap.identity(f, (da, dc)))
        co_r = (kron(c.comult, idc), (dc,), SCALAR, psi)
        sys.require("comodule compatibility", co_l, co_r)
        # gamma(c (x) c') a = a_{alpha beta} gamma(c^beta (x) c'^alpha)
        mo_l = (LinMap.identity(f, (dc, dc, da)), SCALAR, (da,), a.mult)
        mo_r = (compose_all(kron(psi, idc), kron(idc, psi)), (da,),
                SCALAR, a.mult)
        sys.require("module compatibility", mo_l, mo_r)
        if normalized:
            norm = (c.comult, SCALAR, SCALAR, ida)
            sys.require("normalisation", norm,
                        target=a.unit_map().compose(c.counit_map()))
    else:
        raise InputError(f"unknown witness kind {kind!r}")
    return sys


def solve_witness(kind: WitnessKind, e: Entwining,
                  normalized: bool = True) -> AffineSolutionSet:
    return witness_system(kind, e, normalized).solve()


def checked_solve(sys: LinearConstraints) -> AffineSolutionSet:
    """sys.solve(), with its particular solution, if any, re-checked
    exactly on the system that was solved."""
    sol = sys.solve()
    if sol.feasible:
        CheckReport("particular solution", tuple(
            sys.violations(sol.particular))).require(InconsistencyError)
    return sol


def particular_witness(kind: WitnessKind, e: Entwining, normalized: bool = True):
    """(solution set, its particular solution as a Witness), or None when
    the system is infeasible: one build, one solve, and one exact re-check
    of the particular solution on the system that was solved."""
    sol = checked_solve(witness_system(kind, e, normalized))
    if not sol.feasible:
        return None
    return sol, Witness(kind, e, sol.particular, normalized)


def check_witness(kind: WitnessKind, e: Entwining, value,
                  normalized: bool = True):
    """Failed identities of a candidate witness, one CheckFailure(law,
    (output index, input index)) per failed block; empty when it holds."""
    return witness_system(kind, e, normalized).violations(tuple(value))


def as_witness(kind: WitnessKind, e: Entwining, value,
               normalized: bool = True) -> Witness:
    CheckReport(f"{kind.value} witness identities", tuple(
        check_witness(kind, e, value, normalized))).require()
    return Witness(kind, e, tuple(value), normalized)


# ---------------------------------------------------------------------------
# morphism-level witnesses


class LambdaContext(Record):
    """Carrier data for the lambda witness of a morphism: the cotensor
    (C (x) A~) [] C with its right action, and the auxiliary cotensor on
    C (x) A (x) A~ used by the multiplicativity constraint."""

    _fields = ("mor", "carrier",  # S inside C (x) A~ (x) C
               "action",          # S (x) A -> S
               "aux",             # S2 in C (x) A (x) A~ (x) C
               "unit_insert")     # C -> S, c -> c1 (x) 1 (x) c2


def lambda_context(mor: EntwiningMorphism) -> LambdaContext:
    src, dst = mor.src, mor.dst
    da, dc = src.alg.dim, src.coalg.dim
    idc = src.coalg.identity()
    ida = src.alg.identity()
    ida2 = dst.alg.identity()
    # the cotensor (C (x) A~) [] C, C (x) A~ with its induced coaction
    carrier = _coinduced_carrier(mor,
                                 _induced_coaction(mor, src.coalg.comult))
    # right A-action: c' (x) a~ (x) c . a = c' (x) a~ f(a_alpha) (x) c^alpha
    mult_f = dst.alg.mult.compose(kron(ida2, mor.f))
    act_raw = compose_all(kron_all(idc, mult_f, idc),
                          kron_all(idc, ida2, src.psi),
                          kron(carrier.inclusion, ida))
    action = corestrict(act_raw, carrier)
    # auxiliary cotensor on (C (x) A) (x) A~, C (x) A entwined over the source
    coact_ca = compose_all(kron(idc, src.psi), kron(src.coalg.comult, ida))
    aux = _coinduced_carrier(mor, _induced_coaction(
        mor, coact_ca.reshaped((dc * da,), (dc * da, dc))))
    # c -> c1 (x) 1_A~ (x) c2 lands in the carrier
    ins_raw = compose_all(kron_all(idc, dst.alg.unit_map(), idc), src.coalg.comult)
    unit_insert = corestrict(ins_raw, carrier)
    return LambdaContext(mor, carrier, action.reshaped((carrier.dim, da),
                                                       (carrier.dim,)),
                         aux, unit_insert)


def integrability_system(mor: EntwiningMorphism, total: bool = True):
    """Constraints on lambda: right A-linearity, the multiplicativity and
    colinearity squares, and (when total) the normalisation triangle."""
    ctx = lambda_context(mor)
    src, dst = mor.src, mor.dst
    f = src.field
    da, dc = src.alg.dim, src.coalg.dim
    idc = src.coalg.identity()
    ida = src.alg.identity()
    ida2 = dst.alg.identity()
    s = ctx.carrier.dim
    sys = LinearConstraints(f, (s,), (da,))
    # right A-linearity: lambda(x . a) = lambda(x) a
    lin_l = (ctx.action, SCALAR, SCALAR, ida)
    lin_r = (LinMap.identity(f, (s, da)), SCALAR, (da,), src.alg.mult)
    sys.require("module map", lin_l, lin_r)
    # multiplicativity: lambda(c (x) f(a)a~ (x) c') = a_alpha lambda(c^alpha (x) a~ (x) c')
    push = compose_all(kron_all(idc, dst.alg.mult, idc),
                       kron_all(idc, mor.f, ida2, idc),
                       ctx.aux.inclusion)
    push = corestrict(push, ctx.carrier)                      # S2 -> S
    pull = compose_all(kron_all(src.psi, ida2, idc), ctx.aux.inclusion)
    pull = corestrict(pull, ctx.carrier, left=da)             # S2 -> A (x) S
    mult_l = (push, SCALAR, SCALAR, ida)
    mult_r = (pull, (da,), SCALAR, src.alg.mult)
    sys.require("multiplicativity", mult_l, mult_r)
    # colinearity: lambda(c (x) a~ (x) c'1) (x) c'2 = psi(c1 (x) lambda(c2 (x) a~ (x) c'))
    spread_r = corestrict(compose_all(kron_all(idc, ida2, src.coalg.comult),
                                      ctx.carrier.inclusion),
                          ctx.carrier, right=dc)              # S -> S (x) C
    spread_l = corestrict(compose_all(kron_all(src.coalg.comult, ida2, idc),
                                      ctx.carrier.inclusion),
                          ctx.carrier, left=dc)               # S -> C (x) S
    col_l = (spread_r, SCALAR, (dc,), LinMap.identity(f, (da, dc)))
    col_r = (spread_l, (dc,), SCALAR, src.psi)
    sys.require("colinearity", col_l, col_r)
    if total:
        norm = (ctx.unit_insert, SCALAR, SCALAR, ida)
        sys.require("normalisation", norm,
                    target=src.alg.unit_map().compose(src.coalg.counit_map()))
    return sys, ctx


class FrakzContext(Record):
    """Carrier data for the frakz witness: the balanced quotient
    (A~ (x) C) (x)_A A~ with its right target-coalgebra coaction, plus
    Q3 = (A~ (x) C~ (x) C) (x)_A A~ and the maps the constraints use."""

    _fields = ("mor", "carrier",  # Q on ambient A~ (x) C (x) A~
               "coaction",        # Q -> Q (x) C~
               # Q -> Q3 by the comultiplication-then-g route, and
               # C~ (x) Q -> Q3 by the psi~ route
               "spread", "entwine_left",
               "mult_left",       # A~ (x) Q -> Q
               "mult_right",      # Q (x) A~ -> Q
               "counit_collapse")  # Q -> A~


def frakz_context(mor: EntwiningMorphism) -> FrakzContext:
    src, dst = mor.src, mor.dst
    da, dc = src.alg.dim, src.coalg.dim
    da2, dc2 = dst.alg.dim, dst.coalg.dim
    idc = src.coalg.identity()
    ida2, idc2 = dst.alg.identity(), dst.coalg.identity()
    mult_f = dst.alg.mult.compose(kron(ida2, mor.f))

    # action on A~ (x) C: (a~ (x) c) . a = a~ f(a_alpha) (x) c^alpha
    act_ac = compose_all(kron(mult_f, idc), kron(ida2, src.psi))
    q = _induced_carrier(mor, act_ac.reshaped((da2 * dc, da), (da2 * dc,)))
    # action on A~ (x) C~ (x) C entwines through psi then psi~ after f
    act_a2c = compose_all(kron_all(dst.alg.mult, idc2, idc),
                          kron_all(ida2, dst.psi, idc),
                          kron_all(ida2, idc2, kron(mor.f, idc).compose(src.psi)))
    q3 = _induced_carrier(mor, act_a2c.reshaped((da2 * dc2 * dc, da),
                                                (da2 * dc2 * dc,)))

    # right C~-coaction on Q, induced from A~ (x) C with its coaction on C:
    # a~ (x) c (x) a~' -> a~ (x) c1 (x) a~'_alpha (x) g(c2)^alpha
    coact_raw = _induced_coaction(mor, kron(ida2, src.coalg.comult).reshaped(
        (da2 * dc,), (da2 * dc, dc)))
    coaction = descend(kron(q.projection, idc2).compose(coact_raw), q)

    # spread: Q -> Q3 via a~ (x) c (x) a~' -> a~ (x) g(c1) (x) c2 (x) a~'
    spread_raw = compose_all(kron_all(ida2, mor.g, idc, ida2),
                             kron_all(ida2, src.coalg.comult, ida2))
    spread = descend(q3.projection.compose(spread_raw), q)

    # entwine_left: c~ (x) (a~ (x) c (x) a~') -> psi~(c~ (x) a~) (x) c (x) a~'
    ent_raw = kron_all(dst.psi, idc, ida2)
    entwine_left = descend(q3.projection.compose(ent_raw), q, left=dc2)

    # multiplication on the outer legs
    mult_left = descend(q.projection.compose(kron_all(dst.alg.mult, idc, ida2)),
                        q, left=da2)
    mult_right = descend(q.projection.compose(kron_all(ida2, idc, dst.alg.mult)),
                         q, right=da2)

    # counit collapse: a~ (x) c (x) a~' -> a~ eps(c) a~'
    counit_collapse = descend(dst.alg.mult.compose(
        kron_all(ida2, src.coalg.counit_map(), ida2)), q)

    return FrakzContext(mor, q,
                        coaction.reshaped((q.dim,), (q.dim, dc2)),
                        spread, entwine_left,
                        mult_left.reshaped((da2, q.dim), (q.dim,)),
                        mult_right.reshaped((q.dim, da2), (q.dim,)),
                        counit_collapse)


def cointegrability_system(mor: EntwiningMorphism, total: bool = True):
    ctx = frakz_context(mor)
    src, dst = mor.src, mor.dst
    f = src.field
    da2, dc2 = dst.alg.dim, dst.coalg.dim
    qd = ctx.carrier.dim
    sys = LinearConstraints(f, (dc2,), (qd,))
    idc2 = dst.coalg.identity()
    # right C~-colinearity
    col_l = (idc2, SCALAR, SCALAR, ctx.coaction)
    col_r = (dst.coalg.comult, SCALAR, (dc2,), LinMap.identity(f, (qd, dc2)))
    sys.require("colinearity", col_l, col_r)
    # coaction compatibility through Q3
    ca_l = (idc2, SCALAR, SCALAR, ctx.spread)
    ca_r = (dst.coalg.comult, (dc2,), SCALAR, ctx.entwine_left)
    sys.require("coaction compatibility", ca_l, ca_r)
    # action compatibility: multiply on the left after psi~, or on the right
    ac_l = (dst.psi, (da2,), SCALAR, ctx.mult_left)
    ac_r = (LinMap.identity(f, (dc2, da2)), SCALAR, (da2,), ctx.mult_right)
    sys.require("action compatibility", ac_l, ac_r)
    if total:
        norm = (idc2, SCALAR, SCALAR, ctx.counit_collapse)
        sys.require("normalisation", norm,
                    target=dst.alg.unit_map().compose(dst.coalg.counit_map()))
    return sys, ctx


class MorphismWitness(Record):
    _fields = ("side",   # "lambda" or "frakz"
               "mor", "matrix", "context")

    @property
    def value(self):
        return self.matrix.flat()


def _morphism_witness(side: str, build, mor: EntwiningMorphism,
                      value) -> MorphismWitness:
    """The candidate, once every identity of its side's system holds on it."""
    sys, ctx = build(mor)
    value = tuple(value)
    CheckReport(f"candidate for the {side} identities",
                tuple(sys.violations(value))).require()
    matrix = LinMap.from_flat(mor.src.field, sys.x_dom, sys.x_cod, value)
    return MorphismWitness(side, mor, matrix, ctx)


def lambda_witness(mor: EntwiningMorphism, value) -> MorphismWitness:
    return _morphism_witness("lambda", integrability_system, mor, value)


def frakz_witness(mor: EntwiningMorphism, value) -> MorphismWitness:
    return _morphism_witness("frakz", cointegrability_system, mor, value)


# ---------------------------------------------------------------------------
# the constructions of the main separability theorem


def nu_from_lambda(lam: MorphismWitness, m: EntwinedModule) -> LinMap:
    """The splitting (M (x)_A A~) [] C -> M induced by a total lambda.

    Built through the cotensor on representatives: the canonical cover of
    the balanced quotient is inverted on the cotensor level, with exact
    assertions that the cover is onto and that the formula kills its kernel
    (this is where the flatness-style hypotheses of the theory are checked
    numerically instead of assumed).  The result is verified to split the
    adjunction unit and to be a morphism of entwined modules.
    """
    if lam.side != "lambda":
        raise InputError("expected a lambda witness")
    mor = lam.mor
    ctx: LambdaContext = lam.context
    fm, quot = induce(mor, m)
    gfm, sub = coinduce(mor, fm)
    idm = m.identity()
    idc = mor.src.coalg.identity()
    ida2 = mor.dst.alg.identity()
    # the cotensor on representatives, before dividing by the balancing relations
    upstairs = _coinduced_carrier(mor, _induced_coaction(mor, m.coaction))
    into_carrier = corestrict(
        kron_all(m.coaction, ida2, idc).compose(upstairs.inclusion),
        ctx.carrier, left=m.dim)
    raw = compose_all(m.action, kron(idm, lam.matrix), into_carrier)
    cover = corestrict(kron(quot.projection, idc).compose(upstairs.inclusion),
                       sub)
    try:
        section = right_inverse(cover)
    except InputError:
        raise InconsistencyError(
            "representative cover of the quotient is not onto") from None
    nu = raw.compose(section)
    # section . cover is a projection with kernel ker(cover), so raw kills
    # ker(cover) exactly when it factors as nu . cover
    failures = []
    law(failures, "descent", raw, nu.compose(cover))
    law(failures, "unit splitting",
        nu.compose(adjunction_unit(mor, m, quot, sub)), idm)
    # nu is a morphism of entwined modules
    failures += hom_AC_system(gfm, m).violations(nu.flat())
    CheckReport("splitting nu", tuple(failures)).require(InconsistencyError)
    return nu


def lambda_from_nu(nu_on_ac: LinMap, mor: EntwiningMorphism) -> MorphismWitness:
    """Extract the lambda witness from a splitting at the module A (x) C.

    The candidate must split the adjunction unit and be a morphism of
    entwined modules; all lambda identities are then re-verified on the
    extracted matrix, so an inconsistent candidate cannot slip through.
    """
    src = mor.src
    f = src.field
    da, dc = src.alg.dim, src.coalg.dim
    da2 = mor.dst.alg.dim
    ac = standard_module("mod_tensor_c", regular_module(src.alg), src)
    fm, quot = induce(mor, ac)
    gfm, sub = coinduce(mor, fm)
    if nu_on_ac.cols != gfm.dim or nu_on_ac.rows != ac.dim:
        raise InputError("splitting has the wrong shape for A (x) C")
    failures = []
    law(failures, "unit splitting",
        nu_on_ac.compose(adjunction_unit(mor, ac, quot, sub)), ac.identity())
    failures += hom_AC_system(gfm, ac).violations(nu_on_ac.flat())
    CheckReport("candidate splitting", tuple(failures)).require()
    ctx = lambda_context(mor)
    idc = src.coalg.identity()
    # S -> GF(A (x) C): front 1_A, then the balanced projection, inside the cotensor
    front = kron(LinMap.element(f, (da,), src.alg.unit),
                 LinMap.identity(f, (dc, da2, dc)))
    lift = corestrict(
        compose_all(kron(quot.projection, idc), front, ctx.carrier.inclusion),
        sub)
    lam = compose_all(kron(LinMap.identity(f, (da,)), src.coalg.counit_map()),
                      nu_on_ac.reshaped(codomain=(da, dc)), lift)
    return lambda_witness(mor, lam.flat())


def gamma_from_lambda(lam: MorphismWitness) -> LinMap:
    """For the counit morphism, restrict lambda along c (x) c' -> c (x) 1 (x) c'."""
    mor = lam.mor
    if mor.dst.coalg.dim != 1:
        raise InputError("gamma extraction is for the counit morphism")
    ctx: LambdaContext = lam.context
    src = mor.src
    da, dc = src.alg.dim, src.coalg.dim
    ins = corestrict(kron_all(src.coalg.identity(), mor.dst.alg.unit_map(),
                              src.coalg.identity()),
                     ctx.carrier)
    return lam.matrix.compose(ins).reshaped((dc, dc), (da,))


def lambda_from_gamma(gamma: LinMap, mor: EntwiningMorphism) -> MorphismWitness:
    """lambda(c (x) a (x) c') = a_alpha gamma(c^alpha (x) c') for the counit
    morphism, whose carrier is all of C (x) A (x) C."""
    if mor.dst.coalg.dim != 1:
        raise InputError("lambda reconstruction is for the counit morphism")
    src = mor.src
    ctx = lambda_context(mor)
    raw = compose_all(src.alg.mult, kron(src.alg.identity(), gamma),
                      kron(src.psi, src.coalg.identity()))
    lam = raw.compose(ctx.carrier.inclusion)
    return lambda_witness(mor, lam.flat())


# ---------------------------------------------------------------------------
# witnesses read off from structure


def integral_from_invariant(ent: Entwining, action_c: LinMap, eps_a,
                            invariant) -> Witness:
    """An invariant L of the coalgebra under a right action (L . a =
    eps_a(a) L, with eps(L) = 1) gives the normalised integral 1 (x) L."""
    f = ent.field
    da = ent.alg.dim
    eps_a = tuple(eps_a)
    if len(eps_a) != da:
        raise InputError("character length does not match the algebra")
    lam = LinMap.element(f, (ent.coalg.dim,), tuple(invariant))   # k -> C
    failures = []
    # L . a = eps_a(a) L, as maps A -> C
    law(failures, "invariance", action_c.compose(kron(lam, ent.alg.identity())),
        lam.compose(LinMap.functional(f, (da,), eps_a)))
    law(failures, "normalisation", ent.coalg.counit_map().compose(lam),
        LinMap.identity(f, SCALAR))
    CheckReport("invariant element", tuple(failures)).require()
    value = kron(ent.alg.unit_map(), lam).flat()
    return as_witness(WitnessKind.INTEGRAL, ent, value, normalized=True)


def cointegral_from_casimir(ent: Entwining, coaction_a: LinMap, one_c,
                            kappa) -> Witness:
    """A functional kappa with the coaction-invariance property gives the
    normalised cointegral eps (x) kappa: kappa is invariant under the
    transposed coaction, a right action of C^* on A^*, so 1 (x) kappa is an
    integral of the dual entwining, read here as a functional."""
    dual = integral_from_invariant(dual_entwining(ent), coaction_a.transpose(),
                                   one_c, kappa)
    return Witness(WitnessKind.COINTEGRAL, ent, dual.value, True)


def integral_map_from_cotranslation(coext: Coextension) -> Witness:
    """The cotranslation map of a pointed coextension of the ground field
    is a normalised integral map."""
    if pointed_kappa(coext) is None:
        raise DomainError("coextension is not pointed")
    return as_witness(WitnessKind.INTEGRAL_MAP, coext.ent,
                      cotranslation_map(coext).flat(), normalized=True)


def cointegral_map_from_can_inv(ext: GaloisExtension) -> Witness:
    """The inverse canonical map against 1 (x) C of a copointed extension
    of the ground field is a normalised cointegral map."""
    if ext.fixed.dim != 1:
        raise DomainError("extension is not over the ground field")
    if copointed_grouplike(ext) is None:
        raise DomainError("extension is not copointed")
    return as_witness(WitnessKind.COINTEGRAL_MAP, ext.ent,
                      ext.translation_map().flat(), normalized=True)
