"""Finite-dimensional algebras and coalgebras by structure constants.

An algebra is (dim, mult, unit) with mult: A (x) A -> A; a coalgebra is
(dim, comult, counit) with comult: C -> C (x) C.  Axioms are checked as
exact matrix identities and every failure is reported with the first basis
tuple (in lexicographic order) on which the two sides differ.
"""

from __future__ import annotations

from math import prod

from .errors import CheckFailure, DomainError, InputError
from .fields import Field
from .linalg import (LinMap, Subspace, compose_all, kron, quotient_by,
                     unflatten)
from .records import Record


class CheckReport(Record):
    _fields = ("subject", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        """The line `entwine check` prints for this report."""
        if self.ok:
            return f"{self.subject}: ok"
        return f"{self.subject}: FAIL " + "; ".join(map(repr, self.failures))

    def require(self, error=DomainError):
        """Raise error(str(self)) if a law failed; a DomainError carries the
        first failure as its witness.  The one place a failed report becomes
        an exception."""
        if self.ok:
            return
        if issubclass(error, DomainError):
            raise error(str(self), witness=self.failures[0])
        raise error(str(self))


def law(failures, name, lhs: LinMap, rhs: LinMap):
    """The one comparison of two maps in a check: on mismatch append
    CheckFailure(name, domain index of the first differing column)."""
    diff = lhs.first_difference(rhs)
    if diff is not None:
        failures.append(CheckFailure(name, unflatten(lhs.domain, diff[0])))


class Algebra(Record):
    _fields = ("dim", "mult",  # (dim, dim) -> (dim)
               "unit")         # vector of length dim

    def __init__(self, dim: int, mult: LinMap, unit: tuple):
        if mult.domain != (dim, dim) or mult.codomain != (dim,):
            raise InputError("multiplication map does not match the dimension")
        if len(unit) != dim:
            raise InputError("unit vector does not match the dimension")
        super().__init__(dim, mult, unit)

    @property
    def field(self) -> Field:
        return self.mult.field

    def unit_map(self) -> LinMap:
        """k -> A sending 1 to the unit element."""
        return LinMap.element(self.field, (self.dim,), self.unit)

    def identity(self) -> LinMap:
        return LinMap.identity(self.field, (self.dim,))


class Coalgebra(Record):
    _fields = ("dim", "comult",  # (dim) -> (dim, dim)
               "counit")         # covector of length dim

    def __init__(self, dim: int, comult: LinMap, counit: tuple):
        if comult.domain != (dim,) or comult.codomain != (dim, dim):
            raise InputError("comultiplication map does not match the dimension")
        if len(counit) != dim:
            raise InputError("counit covector does not match the dimension")
        super().__init__(dim, comult, counit)

    @property
    def field(self) -> Field:
        return self.comult.field

    def counit_map(self) -> LinMap:
        """C -> k given by the counit."""
        return LinMap.functional(self.field, (self.dim,), self.counit)

    def identity(self) -> LinMap:
        return LinMap.identity(self.field, (self.dim,))


def verify_algebra(a: Algebra) -> CheckReport:
    idm = a.identity()
    failures = []
    law(failures, "associativity",
        a.mult.compose(kron(a.mult, idm)),
        a.mult.compose(kron(idm, a.mult)))
    law(failures, "left unit", a.mult.compose(kron(a.unit_map(), idm)), idm)
    law(failures, "right unit", a.mult.compose(kron(idm, a.unit_map())), idm)
    return CheckReport("algebra", tuple(failures))


def verify_coalgebra(c: Coalgebra) -> CheckReport:
    idm = c.identity()
    failures = []
    law(failures, "coassociativity",
        kron(c.comult, idm).compose(c.comult),
        kron(idm, c.comult).compose(c.comult))
    law(failures, "left counit", kron(c.counit_map(), idm).compose(c.comult), idm)
    law(failures, "right counit", kron(idm, c.counit_map()).compose(c.comult), idm)
    return CheckReport("coalgebra", tuple(failures))


def dual_swap(x):
    """Transpose the structure maps under dual bases.

    Algebras and coalgebras trade places; applying it twice gives back the
    original on the nose.
    """
    if isinstance(x, Algebra):
        return Coalgebra(x.dim, x.mult.transpose(), tuple(x.unit))
    if isinstance(x, Coalgebra):
        return Algebra(x.dim, x.comult.transpose(), tuple(x.counit))
    raise InputError("dual_swap expects an Algebra or a Coalgebra")


def subalgebra_product(alg: Algebra, b: Subspace):
    """The product of A on a subspace B, retr . mult . (incl (x) incl), when
    B is closed under it: the products P of pairs in B satisfy incl . retr
    . P = P.  None when B is not closed."""
    incl = b.inclusion
    products = alg.mult.compose(kron(incl, incl))
    squeezed = b.retraction.compose(products)
    if not incl.compose(squeezed).equals(products):
        return None
    return squeezed


def quotient_coalgebra(c: Coalgebra, i: Subspace):
    """Quotient C/I by a coideal, with the projection C -> C/I.

    A coideal satisfies eps(I) = 0 and Delta(I) <= I (x) C + C (x) I; both
    conditions are checked on I's inclusion, so a failure's basis index
    names the first vector of I's echelon basis that violates it.
    """
    if prod(i.ambient) != c.dim:
        raise InputError("subspace does not live in the coalgebra")
    incl = i.inclusion
    counit_on_i = c.counit_map().compose(incl)
    failures = []
    law(failures, "counit vanishing", counit_on_i,
        LinMap.zero(c.field, counit_on_i.domain, counit_on_i.codomain))
    # Delta(I) lies in I (x) C + C (x) I: its inclusion fixes Delta . incl
    idc = c.identity()
    left, right = kron(incl, idc), kron(idc, incl)
    mixed = Subspace.span(c.field, left.codomain, [*left.transpose().nonzeros,
                                                   *right.transpose().nonzeros])
    comult_on_i = c.comult.compose(incl)
    law(failures, "comultiplication closure",
        compose_all(mixed.inclusion, mixed.retraction, comult_on_i), comult_on_i)
    CheckReport("coideal", tuple(failures)).require()
    quot = quotient_by(i)
    pi = quot.projection
    sigma = quot.section
    comult_q = compose_all(kron(pi, pi), c.comult, sigma)
    counit_q = compose_all(c.counit_map(), sigma)
    result = Coalgebra(quot.dim, comult_q, counit_q.flat())
    # the projection must be a coalgebra map on the nose
    failures = []
    law(failures, "comultiplication", kron(pi, pi).compose(c.comult),
        comult_q.compose(pi))
    law(failures, "counit", counit_q.compose(pi), c.counit_map())
    CheckReport("quotient projection", tuple(failures)).require()
    verify_coalgebra(result).require()
    return result, pi
