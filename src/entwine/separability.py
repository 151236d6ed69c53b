"""Extension-level certificates.

Separability of B -> A is decided by solving for a normalised integral in
the canonical entwining and pulling it back through the inverse canonical
map to a separability idempotent.  Splitness is a linear system on a map
phi: C -> A from which the conditional expectation a -> a0 phi(a1) is
rebuilt and re-verified.  Strong separability couples the two certificates
through a scalar tau.  The coupling is bilinear in the pair but linear in
(phi, tau) for a fixed integral, so each tried normalised integral gets one
exact solve; a strategy (`STRATEGIES`) only names the integrals tried.  A
"no" is exact only when they are the whole family, else inconclusive.

Each certificate is solved once and re-verified once: the particular
integral on the system that was solved (another one through
`separability_from_integral`), then u against `verify_idempotent`; phi
through `expectation_violations`; a strong pair through `verify_strong`.
Each checker lists the CheckFailure of every failed `law`, and
`CheckReport.require` raises them as an InconsistencyError.  A strong
outcome carries the separability and split results it used, and reuses
the split certificate when its phi is the split one.
"""

from __future__ import annotations

import itertools

from .errors import InconsistencyError, InputError
from .galois import Coextension, GaloisExtension
from .linalg import (LinMap, LinearConstraints, Subspace, SCALAR, compose_all,
                     kron, kron_all, op_in_unknown)
from .records import Record
from .structures import CheckReport, law
from .witness import Witness, WitnessKind, as_witness, particular_witness


class SeparabilityCertificate(Record):
    _fields = ("u",                         # coordinates in A (x)_B A
               "source_integral", "family")  # all integrals, when solved for


class SplitCertificate(Record):
    _fields = ("phi",          # C -> A
               "expectation")  # A -> A with image inside B


class StrongCertificate(Record):
    _fields = ("separability", "split", "tau")  # tau: an invertible scalar


class StrongOutcome(Record):
    _fields = ("certificate",
               "inconclusive",  # nothing found, but absence is not proved
               "note",          # diagnostic for a negative or open outcome
               "separability",  # check_separable
               "split")         # check_split: (certificate, phi family)

    @property
    def found(self) -> bool:
        return self.certificate is not None


class CoseparabilityCertificate(Record):
    _fields = ("upsilon",   # covector on the cotensor square coordinates
               "source_cointegral")


# ---------------------------------------------------------------------------
# separability


def verify_idempotent(g: GaloisExtension, u) -> list:
    """Failures of the two separability-idempotent conditions."""
    ida = g.alg.identity()
    um = LinMap.element(g.field, (g.square.dim,), tuple(u))
    bad = []
    law(bad, "centrality",
        g.square_left_mult().compose(kron(ida, um)),     # a -> a u
        g.square_right_mult().compose(kron(um, ida)))    # a -> u a
    law(bad, "unit image", g.mu_AB().compose(um), g.alg.unit_map())
    return bad


def separability_from_integral(g: GaloisExtension, z: Witness) -> SeparabilityCertificate:
    """u = can_inv(z); both idempotent conditions re-verified exactly."""
    if z.kind != WitnessKind.INTEGRAL or not z.normalized:
        raise InputError("expected a normalised integral witness")
    as_witness(WitnessKind.INTEGRAL, g.ent, z.value)  # DomainError if it fails
    return _separability_certificate(g, z)


def _separability_certificate(g: GaloisExtension, z: Witness,
                              family=None) -> SeparabilityCertificate:
    u = g.can_inv.apply(z.value)
    CheckReport("separability idempotent",
                tuple(verify_idempotent(g, u))).require(InconsistencyError)
    return SeparabilityCertificate(tuple(u), z, family)


def check_separable(g: GaloisExtension):
    """The separability certificate, carrying the solved normalised-integral
    family, or None when that system is infeasible."""
    solved = particular_witness(WitnessKind.INTEGRAL, g.ent, normalized=True)
    if solved is None:
        return None
    family, z = solved
    return _separability_certificate(g, z, family)


# ---------------------------------------------------------------------------
# splitness


def split_system(g: GaloisExtension) -> LinearConstraints:
    """The linear/affine conditions on phi: C -> A."""
    f = g.field
    e = g.ent
    a, c, psi = g.alg, g.coalg, e.psi
    da, dc = a.dim, c.dim
    ida, idc = a.identity(), c.identity()
    sys = LinearConstraints(f, (dc,), (da,))
    rho_one = g.rho_a.apply(a.unit)
    # psi(c1 (x) phi(c2)) = phi(c) . rho(1)
    coh_l = (c.comult, (dc,), SCALAR, psi)
    mult_by_rho_one = compose_all(kron(a.mult, idc),
                                  kron(ida, LinMap.element(f, (da, dc), rho_one)))
    coh_r = (idc, SCALAR, SCALAR, mult_by_rho_one)
    sys.require("coaction coherence", coh_l, coh_r)
    # sum a^i phi(c_i) = 1 where rho(1) = sum a^i (x) c_i
    contract = (LinMap.element(f, (da, dc), rho_one), (da,), SCALAR, a.mult)
    sys.require("unit splitting", contract, target=a.unit_map())
    # b_alpha phi(c^alpha) = phi(c) b on C (x) B, B the fixed subalgebra
    ins = kron(idc, g.fixed.inclusion)
    lhs = (psi.compose(ins), (da,), SCALAR, a.mult)
    rhs = (ins, SCALAR, (da,), a.mult)
    sys.require("fixed-element commutation", lhs, rhs)
    return sys


def expectation_violations(g: GaloisExtension, expectation: LinMap) -> list:
    """Failures of the conditional-expectation conditions: unital, image in
    the fixed subalgebra, two-sided fixed-module map."""
    a = g.alg
    one = a.unit_map()
    bad = []
    law(bad, "unitality", expectation.compose(one), one)
    # E lands in B: the inclusion of B fixes E
    incl = g.fixed.inclusion
    law(bad, "image", compose_all(incl, g.fixed.retraction, expectation),
        expectation)
    ida = a.identity()
    law(bad, "bimodule",
        compose_all(expectation, a.mult, kron(a.mult, ida),
                    kron_all(incl, ida, incl)),
        compose_all(a.mult, kron(a.mult, ida),
                    kron_all(incl, expectation, incl)))
    return bad


def expectation_from_phi(g: GaloisExtension, phi: LinMap) -> LinMap:
    """E(a) = a0 phi(a1), verified to be a unital projection onto the fixed
    subalgebra commuting with its two-sided action."""
    a = g.alg
    expectation = compose_all(a.mult, kron(a.identity(), phi), g.rho_a)
    CheckReport("conditional expectation", tuple(
        expectation_violations(g, expectation))).require(InconsistencyError)
    return expectation


def check_split(g: GaloisExtension):
    """The certificate and the full solution family for phi, or None."""
    sys = split_system(g)
    sol = sys.solve()
    if not sol.feasible:
        return None
    phi = _phi_as_map(g, sol.particular)
    expectation = expectation_from_phi(g, phi)
    return SplitCertificate(phi, expectation), sol


def _phi_as_map(g: GaloisExtension, vec) -> LinMap:
    return LinMap.from_flat(g.field, (g.coalg.dim,), (g.alg.dim,), vec)


# ---------------------------------------------------------------------------
# strong separability


def verify_strong(g: GaloisExtension, u, expectation: LinMap, tau) -> list:
    """Failures of the two strong-separability identities for all basis a."""
    f = g.field
    a = g.alg
    da = a.dim
    reps = g.square.section.apply(u)   # representatives in A (x) A
    rep_map = LinMap.element(f, (da, da), reps)
    ida = a.identity()
    # E(a u_i) u^i = tau a
    lhs1 = compose_all(a.mult, kron(expectation, ida),
                       kron(a.mult, ida),
                       kron(ida, rep_map))
    # u_i E(u^i a) = tau a
    lhs2 = compose_all(a.mult, kron(ida, expectation),
                       kron(ida, a.mult),
                       kron_all(rep_map, ida))
    target = kron(LinMap.element(f, SCALAR, (tau,)), ida)   # tau 1_A
    bad = []
    law(bad, "expectation-first", lhs1, target)
    law(bad, "expectation-second", lhs2, target)
    return bad


def coupled_system(g: GaloisExtension, zvec, split_equations) -> LinearConstraints:
    """Conditions on the vector (phi entries, then tau) for a fixed integral
    z = sum a_i (x) c_i: sum a_i phi(c_i) = tau 1, and split_equations, the
    solved split family's `equations()` (same solutions as the split
    system), on phi.  Every side is a term on the unknown X: k -> k^(dim A
    dim C + 1) whose post reads phi alone or tau alone."""
    f = g.field
    a = g.alg
    da, dc = a.dim, g.coalg.dim
    n = da * dc + 1
    sys = LinearConstraints(f, SCALAR, (n,))
    one = LinMap.identity(f, SCALAR)

    def on_phi(m):
        return one, SCALAR, SCALAR, LinMap(f, (n,), (m.rows,), m.nonzeros, m.den)
    m, rhs = split_equations
    sys.require("split conditions", on_phi(m),
                target=LinMap.element(f, (m.rows,), rhs))
    contract = op_in_unknown((dc,), (da,), [
        (1, (LinMap.element(f, (da, dc), zvec), (da,), SCALAR, a.mult))])
    read_tau = LinMap.functional(f, (n,), (f.zero,) * (n - 1) + (f.one,))
    sys.require("coupling", on_phi(contract),
                (one, SCALAR, SCALAR, a.unit_map().compose(read_tau)))
    return sys


STRATEGIES = ("fixed_integral", "search")

# "search" makes at most this many coupled solves, in every field; over
# GF(p) it tries all p^k normalised integrals (k the family's nullity) when
# p^k is at most this: D_m by K = {1, s} over GF(7) needs 7, 49 and 343 for
# m = 4, 5, 8, and D_8's 343 coupled solves take 4.1 s of CPU in basis
# seed 0 (12 ms each; Python 3.11, 2-core x86-64 host).
SEARCH_ENUMERATION_CAP = 343


def check_strongly_separable(g: GaloisExtension,
                             strategy: str = "fixed_integral") -> StrongOutcome:
    """Decide strong separability by one `coupled_system` solve for
    (phi, tau) per tried normalised integral; the first with tau != 0 gives
    the certificate.  "fixed_integral" tries the particular integral;
    "search" tries family members in `AffineSolutionSet.members` order,
    particular first, at most `SEARCH_ENUMERATION_CAP` of them: every
    coefficient of GF(p) when p^k is at most the cap (k the family's
    nullity), else the grid (0, 1, -1).  Either strategy tries a unique
    integral (k = 0) alone.  A "no" is exact only when the tried integrals
    are the whole family (k = 0, or all p^k members of a family over
    GF(p)), otherwise inconclusive, with a note that names how many were
    tried.  "not separable" and "not split" are exact.

    Whatever the strategy, check_separable(g) and check_split(g) run once
    and the outcome carries both (.separability, .split).
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}")
    f = g.field
    sep = check_separable(g)
    split = check_split(g)

    def outcome(note, certificate=None, inconclusive=False):
        return StrongOutcome(certificate, inconclusive, note, sep, split)

    if sep is None:
        return outcome("not separable")
    if split is None:
        return outcome("not split")
    split_cert, phi_family = split
    nullity = sep.family.homogeneous.dim
    particular = sep.source_integral.value
    if strategy == "fixed_integral" or not nullity:
        tried, whole = (particular,), not nullity
    else:
        whole = f.kind == "Fp" and f.p ** nullity <= SEARCH_ENUMERATION_CAP
        if whole:
            grid = tuple(f.of_int(i) for i in range(f.p))
        else:
            grid = tuple(dict.fromkeys((f.zero, f.one, f.neg(f.one))))
        tried = itertools.islice(sep.family.members([grid] * nullity),
                                 SEARCH_ENUMERATION_CAP)
    equations = phi_family.equations()
    count = 0
    for zvec in tried:
        count += 1
        sol = coupled_system(g, zvec, equations).solve()
        if not sol.feasible:
            reason = "coupled linear system is infeasible"
            continue
        pick = sol.particular
        shift = next((h for h in sol.homogeneous.basis if h[-1] != 0), None)
        if pick[-1] == 0 and shift is not None:
            pick = tuple(f.add(x, y) for x, y in zip(pick, shift))
        tau = pick[-1]
        if tau == 0:
            reason = "coupling scalar is forced to zero"
            continue
        sep_cert = sep if zvec == particular else separability_from_integral(
            g, Witness(WitnessKind.INTEGRAL, g.ent, zvec, True))
        phi = _phi_as_map(g, pick[:-1])
        pair = split_cert if phi == split_cert.phi else SplitCertificate(
            phi, expectation_from_phi(g, phi))
        CheckReport("strong pair", tuple(verify_strong(
            g, sep_cert.u, pair.expectation, tau))).require(InconsistencyError)
        return outcome("", StrongCertificate(sep_cert, pair, tau))
    if count > 1:
        reason = (f"no coupling for any of the {count} normalised integrals "
                  f"tried, in a family of dimension {nullity}")
    elif nullity:
        reason = (f"{reason} for the particular integral; only it was tried, "
                  f"and the normalised integrals form a family of dimension "
                  f"{nullity}")
    return outcome(reason, inconclusive=not whole)


def right_free_basis(g: GaloisExtension):
    """Greedy attempt at a basis of A as a free right module over the fixed
    subalgebra; None when the heuristic fails (which is not a proof of
    non-freeness)."""
    f = g.field
    a = g.alg
    bdim = g.fixed.dim
    if bdim == 0 or a.dim % bdim != 0:
        return None
    blocks_needed = a.dim // bdim
    incl = g.fixed.inclusion
    chosen = []
    span = Subspace.zero(f, (a.dim,))
    # 1, then the basis
    for cand in [tuple(a.unit), *map(a.identity().column, range(a.dim))]:
        block = a.mult.compose(kron(LinMap.element(f, (a.dim,), cand), incl))
        trial = Subspace.span(f, (a.dim,),
                              [*span.echelon.nonzeros, *block.transpose().nonzeros])
        if trial.dim == span.dim + bdim:
            chosen.append(cand)
            span = trial
            if len(chosen) == blocks_needed:
                return chosen
    return None


# ---------------------------------------------------------------------------
# coseparable coextensions


def check_coseparable(x: Coextension):
    """The normalised cointegral and its cotensor-square functional upsilon,
    or None: the separability certificate of the dual extension read
    backwards.  The dual's integral is the cointegral, coordinate for
    coordinate, and upsilon pairs its idempotent u with the cotensor square,
    upsilon_j = <section(u), cosquare.basis[j]>; `verify_idempotent` on u
    is the transpose of upsilon's colinearity and normalisation."""
    sep = check_separable(x.dual)
    if sep is None:
        return None
    pair_u = LinMap.functional(x.field, x.cosquare.ambient,
                               x.dual.square.section.apply(sep.u))
    upsilon = pair_u.compose(x.cosquare.inclusion)
    y = Witness(WitnessKind.COINTEGRAL, x.ent, sep.source_integral.value, True)
    return CoseparabilityCertificate(upsilon.flat(), y)
