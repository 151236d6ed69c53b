"""Coalgebra-Galois extensions and algebra-Galois coextensions.

An extension is built from a coaction on an algebra: the fixed subalgebra
is carved out, the balanced tensor square is formed, and the canonical map
a (x) a' -> a . coaction(a') must be bijective.  The entwining map is then
reconstructed from the inverse of the canonical map and re-verified from
scratch, never trusted.

A coextension (C, A, C (x) A -> C) is built as the extension of its
transposed data: C^* is an algebra, A^* a coalgebra, and the transposed
action is a coaction C^* -> C^* (x) A^*.  At finite dimension the
coextension is Galois exactly when that extension is, and each of its
pieces is the transpose of the extension's (Brzezinski-Hajac 1999,
"Coalgebra extensions and algebra coextensions of Galois type"): the
coideal and the cotensor square are the annihilators of the fixed
subalgebra and of the balancing relations, and psi is the transposed psi.
"""

from __future__ import annotations

from .errors import GaloisError, InconsistencyError, InputError
from .entwining import dual_entwining, entwine_verified
from .entmod import (EntwinedModule, balanced_power,
                     check_entwined_compatibility, fixed_part, verify_action,
                     verify_coaction)
from .linalg import (LinMap, QuotientModule, SCALAR, compose_all, descend,
                     image, invert, kernel, kron, kron_all)
from .records import Record
from .structures import (Algebra, Coalgebra, CheckReport, dual_swap, law,
                         subalgebra_product, verify_algebra, verify_coalgebra)


# ---------------------------------------------------------------------------
# fixed subalgebras


def fixed_subalgebra(alg: Algebra, rho_a: LinMap):
    """The subalgebra of elements over which the coaction is left-linear,
    together with its induced algebra structure."""
    if rho_a.domain != (alg.dim,) or rho_a.codomain[:-1] != rho_a.domain:
        raise InputError("fixed subalgebra needs a coaction A -> A (x) C")
    space = fixed_part(alg.mult, rho_a, rho_a)
    if not space.contains(alg.unit):
        raise InconsistencyError("fixed subspace misses the unit")
    # closure: the product of fixed elements is fixed (assert, cannot fail)
    mult = subalgebra_product(alg, space)
    if mult is None:
        raise InconsistencyError("fixed subspace is not closed under product")
    sub_alg = Algebra(space.dim, mult, space.coords(alg.unit))
    verify_algebra(sub_alg).require(InconsistencyError)
    return space, sub_alg


# ---------------------------------------------------------------------------
# extensions


class GaloisExtension(Record):
    _fields = ("alg", "coalg", "rho_a",  # A -> A (x) C
               "fixed",                  # B inside A
               "fixed_alg",              # B with its induced structure
               "square",                 # A (x)_B A
               "can",                    # A (x)_B A -> A (x) C
               "can_inv", "ent")         # the canonical entwining

    @property
    def field(self):
        return self.alg.field

    def module_A(self) -> EntwinedModule:
        """A itself, entwined by its multiplication and the coaction."""
        return EntwinedModule(self.ent, self.alg.dim, self.alg.mult, self.rho_a)

    def translation_map(self) -> LinMap:
        """C -> A (x) A, c -> can_inv(1 (x) c) on section representatives."""
        return compose_all(self.square.section, self.can_inv,
                           kron(self.alg.unit_map(), self.coalg.identity()))

    def square_right_mult(self) -> LinMap:
        return _square_right_mult(self.alg, self.square)

    def square_left_mult(self) -> LinMap:
        """Left multiplication A (x) (A (x)_B A) -> A (x)_B A on the first leg."""
        raw = kron(self.alg.mult, self.alg.identity())
        return descend(self.square.projection.compose(raw), self.square,
                       left=self.alg.dim)

    def mu_AB(self) -> LinMap:
        """The multiplication A (x)_B A -> A induced on the quotient."""
        return descend(self.alg.mult, self.square)


def _require_entwined(m: EntwinedModule):
    """A entwined over its own extension.  Only "entwined compatibility"
    runs: its action and coaction laws restate `verify_algebra` and
    `verify_coaction`, which the build already ran on the same maps, or,
    for the dual of a coextension, `verify_coalgebra` and `verify_action`
    on their transposes.  A failure is a bug, raised as
    InconsistencyError."""
    failures = []
    check_entwined_compatibility(m, failures)
    CheckReport("entwined module", tuple(failures)).require(InconsistencyError)


def _square_right_mult(alg: Algebra, square: QuotientModule) -> LinMap:
    """Right multiplication (A (x)_B A) (x) A -> A (x)_B A on the second leg."""
    raw = kron(alg.identity(), alg.mult)
    return descend(square.projection.compose(raw), square, right=alg.dim)


def build_galois(alg: Algebra, coalg: Coalgebra, rho_a: LinMap) -> GaloisExtension:
    """Assemble the whole extension; raises GaloisError when the canonical
    map is not bijective."""
    da, dc = alg.dim, coalg.dim
    if rho_a.domain != (da,) or rho_a.codomain != (da, dc):
        raise InputError("coaction shape does not match algebra/coalgebra")
    for rep in (verify_algebra(alg), verify_coalgebra(coalg),
                verify_coaction(coalg, rho_a)):
        rep.require()
    return _assemble_galois(alg, coalg, rho_a)


def _assemble_galois(alg: Algebra, coalg: Coalgebra,
                     rho_a: LinMap) -> GaloisExtension:
    """The extension of data whose algebra, coalgebra and coaction laws
    already hold: the fixed subalgebra, the balanced square, the canonical
    map and its inverse, and the canonical entwining."""
    da, dc = alg.dim, coalg.dim
    fixed, fixed_alg = fixed_subalgebra(alg, rho_a)
    square = balanced_power(alg, fixed, 2)
    # can(a (x) a') = a . rho(a'), factored through the balanced quotient
    can_raw = compose_all(kron(alg.mult, coalg.identity()),
                          kron(alg.identity(), rho_a))
    can = descend(can_raw, square)
    if square.dim != da * dc:
        raise GaloisError("balanced square and A (x) C have different dimensions",
                          expected_dim=da * dc, actual_dim=square.dim)
    can = can.reshaped(codomain=(da, dc))
    try:
        can_inv = invert(can)
    except InputError:
        raise GaloisError("canonical map is not bijective",
                          expected_dim=da * dc, actual_dim=square.dim,
                          rank=image(can).dim) from None
    # psi(c (x) a) = can(can_inv(1 (x) c) . a)
    unit_c = kron(alg.unit_map(), coalg.identity())   # C -> A (x) C
    to_square = can_inv.compose(unit_c)               # C -> A (x)_B A
    psi = compose_all(can, _square_right_mult(alg, square),
                      kron(to_square, alg.identity()))
    psi = psi.reshaped((dc, da), (da, dc))
    ent = entwine_verified(alg, coalg, psi)
    ext = GaloisExtension(alg, coalg, rho_a, fixed, fixed_alg, square,
                          can, can_inv, ent)
    _require_entwined(ext.module_A())
    return ext


def copointed_grouplike(g: GaloisExtension):
    """The group-like element e with coaction(1) = 1 (x) e, if one exists."""
    f = g.field
    a, c = g.alg, g.coalg
    # the coordinate functional xi at the first nonzero entry of 1, with
    # xi(1) = 1, reads e off rho(1) = 1 (x) e
    pivot, x = next((i, x) for i, x in enumerate(a.unit) if x != 0)
    xi = LinMap.functional(f, (a.dim,), tuple(f.inv(x) if i == pivot else f.zero
                                              for i in range(a.dim)))
    rho_one = g.rho_a.compose(a.unit_map())
    e = kron(xi, c.identity()).compose(rho_one)     # k -> C
    # rho(1) = 1 (x) e, and e group-like: Delta e = e (x) e, eps(e) = 1
    if not (rho_one.equals(kron(a.unit_map(), e))
            and c.comult.compose(e).equals(kron(e, e))
            and c.counit_map().compose(e).equals(LinMap.identity(f, SCALAR))):
        return None
    return e.flat()


# ---------------------------------------------------------------------------
# coextensions


class Coextension(Record):
    """An algebra-Galois coextension (C, A, C (x) A -> C), held with the
    coalgebra-Galois extension of its transposed data that built it."""

    _fields = ("coalg", "alg", "rho_c",  # C (x) A -> C
               "coideal",                # I inside C
               "base",  # B = C/I, the transpose of the dual's B^*
               "cosquare",               # C []_B C inside C (x) C
               "ent", "dual")            # (C^*, A^*, rho_c^T)

    @property
    def field(self):
        return self.coalg.field


def build_coextension(coalg: Coalgebra, alg: Algebra, rho_c: LinMap) -> Coextension:
    """Assemble the coextension as the extension of its transposed data
    (C^*, A^*, rho_c^T: C^* -> C^* (x) A^*), which is Galois exactly when
    the coextension is (Brzezinski-Hajac 1999); raises GaloisError when the
    canonical map C (x) A -> C []_B C is not bijective."""
    dc, da = coalg.dim, alg.dim
    if rho_c.domain != (dc, da) or rho_c.codomain != (dc,):
        raise InputError("action shape does not match coalgebra/algebra")
    for rep in (verify_algebra(alg), verify_coalgebra(coalg),
                verify_action(alg, rho_c)):
        rep.require()
    try:
        dual = _assemble_galois(dual_swap(coalg), dual_swap(alg),
                                rho_c.transpose())
    except GaloisError as exc:
        # the dual's square and canonical map are the transposes of the
        # cotensor square and the canonical map, with the same dimensions
        # and rank; only a failed inversion carries a rank
        message = ("cotensor square and C (x) A have different dimensions"
                   if exc.rank is None else
                   "canonical map of the coextension is not bijective")
        raise GaloisError(message, expected_dim=exc.expected_dim,
                          actual_dim=exc.actual_dim, rank=exc.rank) from None
    # I annihilates the fixed subalgebra B^* inside C^*, and C []_B C the
    # balancing relations inside C^* (x) C^*
    coideal = kernel(dual.fixed.echelon)
    cosquare = kernel(dual.square.relations.echelon)
    # psi's four laws and C's entwined compatibility are the transposes of
    # the dual's, which its build checked
    ent = dual_entwining(dual.ent)
    return Coextension(coalg, alg, rho_c, coideal, dual_swap(dual.fixed_alg),
                       cosquare, ent, dual)


def pointed_kappa(x: Coextension):
    """The character kappa with eps(c.a) = eps(c) kappa(a), if one exists:
    the group-like e of the dual with coaction(eps) = eps (x) e."""
    return copointed_grouplike(x.dual)


def cotranslation_map(x: Coextension) -> LinMap:
    """For a coextension of the ground field, the map C (x) C -> A inverting
    the canonical map in the first leg: the transpose of the dual's
    translation map.  Its two composition laws and the normalisation are
    verified exactly."""
    if x.base.dim != 1:
        raise InputError("cotranslation map needs a coextension of the ground field")
    gamma = x.dual.translation_map().transpose()
    idc, ida = x.coalg.identity(), x.alg.identity()
    failures = []
    # multiplicativity against the action
    law(failures, "action law", x.alg.mult.compose(kron(gamma, ida)),
        gamma.compose(kron(idc, x.rho_c)))
    # comultiplicative contraction law
    law(failures, "contraction law",
        compose_all(x.alg.mult, kron(gamma, gamma),
                    kron_all(idc, x.coalg.comult, idc)),
        gamma.compose(kron_all(idc, x.coalg.counit_map(), idc)))
    # normalisation gamma . Delta = unit . eps
    law(failures, "normalisation", gamma.compose(x.coalg.comult),
        x.alg.unit_map().compose(x.coalg.counit_map()))
    CheckReport("cotranslation map", tuple(failures)).require(InconsistencyError)
    return gamma
