"""Reference constructions: second routes to the solver's answers.

Each function here builds a certificate or a structure from other data
than the library's own route does (a witness from a splitting, an integral
from an invariant element, a split map from an integral map, ...) and
re-verifies it, so the tests can compare the two routes.  No command
reaches them, so they live with the tests; unlike `oracle`, they are
written on top of the library.
"""

from math import prod

from entwine.catalog import make_example
from entwine.entmod import (adjunction_unit, coinduce, hom_AC_system, induce,
                            regular_module, standard_module)
from entwine.entwining import (Entwining, EntwiningMorphism, dual_entwining,
                               ground_algebra, ground_coalgebra,
                               twist_entwining)
from entwine.errors import InconsistencyError, InputError
from entwine.galois import Coextension, GaloisExtension
from entwine.linalg import (LinMap, SCALAR, Subspace, compose_all, corestrict,
                            kron, kron_all)
from entwine.separability import (SplitCertificate, expectation_from_phi,
                                  split_system)
from entwine.structures import CheckReport, law
from entwine.witness import (LambdaContext, MorphismWitness, Witness,
                             WitnessKind, as_witness, cointegrability_system,
                             lambda_context, lambda_witness, witness_shapes)


# -- entwinings and subspaces -------------------------------------------------

def ground_entwining(field) -> Entwining:
    """The unit object: the ground field entwined with itself by the flip."""
    return twist_entwining(ground_algebra(field), ground_coalgebra(field))


def identity_morphism(e: Entwining) -> EntwiningMorphism:
    return EntwiningMorphism(e, e, e.alg.identity(), e.coalg.identity())


def full_subspace(field, ambient) -> Subspace:
    n = prod(ambient)
    return Subspace(LinMap.identity(field, ambient).reshaped(codomain=(n,)),
                    tuple(range(n)))


# -- the catalog battery ------------------------------------------------------

def default_catalog(field) -> list:
    """The small battery every property test sweeps."""
    return [
        make_example("trivial_entwining", {"field": field, "n": 2}),
        make_example("flip_entwining", {"field": field, "na": 2, "nc": 2}),
        make_example("flip_entwining", {"field": field, "na": 2, "nc": 3}),
        make_example("hopf_self_galois", {"field": field, "n": 2}),
        make_example("hopf_self_galois", {"field": field, "n": 3}),
        make_example("self_coextension", {"field": field, "n": 2}),
        make_example("comodule_algebra_entwining", {"field": field, "n": 3}),
        make_example("hopf_quotient_galois", {"field": field, "n": 4, "d": 2}),
        make_example("self_coextension", {"field": field, "n": 2, "dual": True}),
    ]


def entwining_of(entry) -> Entwining:
    """The entwining structure carried by any catalog payload."""
    p = entry.payload
    if isinstance(p, Entwining):
        return p
    if isinstance(p, (GaloisExtension, Coextension)):
        return p.ent
    raise InputError(f"catalog entry {entry.name!r} carries no entwining")


# -- morphism-level witnesses -------------------------------------------------

def frakz_witness(mor: EntwiningMorphism, value) -> MorphismWitness:
    """The candidate frakz, once every identity of its system holds on it."""
    sys, ctx = cointegrability_system(mor)
    value = tuple(value)
    CheckReport("candidate for the frakz identities",
                tuple(sys.violations(value))).require()
    matrix = LinMap.from_flat(mor.src.field, sys.x_dom, sys.x_cod, value)
    return MorphismWitness("frakz", mor, matrix, ctx)


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


# -- witnesses read off from structure ----------------------------------------

def witness_map(w: Witness) -> LinMap:
    """A witness's row-major value as the linear map it stands for."""
    dom, cod = witness_shapes(w.kind, w.ent)
    return LinMap.from_flat(w.ent.field, dom, cod, w.value)


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


# -- split maps ---------------------------------------------------------------

def phi_from_expectation(g: GaloisExtension, expectation: LinMap) -> LinMap:
    """phi(c) = (A (x)_B E)(can_inv(1 (x) c)), on section representatives."""
    a, c = g.alg, g.coalg
    to_square = g.can_inv.compose(kron(a.unit_map(), c.identity()))
    return compose_all(a.mult, kron(a.identity(), expectation),
                       g.square.section, to_square)


def split_from_integral_map(g: GaloisExtension, gamma: Witness) -> SplitCertificate:
    """phi(c) = sum_i (a^i)_alpha gamma(c^alpha (x) c_i) for rho(1) = sum a^i (x) c_i."""
    if gamma.kind != WitnessKind.INTEGRAL_MAP or not gamma.normalized:
        raise InputError("expected a normalised integral map")
    as_witness(WitnessKind.INTEGRAL_MAP, g.ent, gamma.value)  # DomainError if it fails
    f = g.field
    a, c = g.alg, g.coalg
    da, dc = a.dim, c.dim
    rho_one = g.rho_a.apply(a.unit)
    gmap = witness_map(gamma)
    phi = compose_all(a.mult, kron(a.identity(), gmap),
                      kron(g.ent.psi, c.identity()),
                      kron(c.identity(), LinMap.element(f, (da, dc), rho_one)))
    CheckReport("split map from the integral map", tuple(
        split_system(g).violations(phi.flat()))).require(InconsistencyError)
    return SplitCertificate(phi, expectation_from_phi(g, phi))
