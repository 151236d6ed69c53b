"""Entwining structures (A, C, psi) and their morphisms.

psi: C (x) A -> A (x) C must satisfy four identities: it intertwines the
multiplication and the unit of A, and the comultiplication and the counit
of C.  Verification is exact; a failing identity is reported with the first
(coalgebra index, algebra index) pair on which the matrices differ.
"""

from __future__ import annotations

from .errors import InputError
from .fields import Field
from .linalg import LinMap, compose_all, kron
from .records import Record
from .structures import (Algebra, Coalgebra, CheckReport, dual_swap, law,
                         verify_algebra, verify_coalgebra)


class Entwining(Record):
    _fields = ("alg", "coalg", "psi")  # psi: (dimC, dimA) -> (dimA, dimC)

    def __init__(self, alg: Algebra, coalg: Coalgebra, psi: LinMap):
        da, dc = alg.dim, coalg.dim
        if psi.domain != (dc, da) or psi.codomain != (da, dc):
            raise InputError("psi does not match the algebra/coalgebra dimensions")
        super().__init__(alg, coalg, psi)

    @property
    def field(self) -> Field:
        return self.alg.field


def make_entwining(alg: Algebra, coalg: Coalgebra, psi: LinMap) -> Entwining:
    """Build an entwining, re-verifying all axioms."""
    verify_algebra(alg).require()
    verify_coalgebra(coalg).require()
    return entwine_verified(alg, coalg, psi)


def entwine_verified(alg: Algebra, coalg: Coalgebra, psi: LinMap) -> Entwining:
    """Build an entwining of an algebra and a coalgebra that are already
    verified: only the four identities of psi are re-verified."""
    e = Entwining(alg, coalg, psi)
    verify_entwining(e).require()
    return e


def verify_entwining(e: Entwining) -> CheckReport:
    a, c, psi = e.alg, e.coalg, e.psi
    ida, idc = a.identity(), c.identity()
    failures = []
    law(failures, "multiplicativity",
        psi.compose(kron(idc, a.mult)),
        compose_all(kron(a.mult, idc), kron(ida, psi), kron(psi, ida)))
    law(failures, "unitality",
        psi.compose(kron(idc, a.unit_map())),
        kron(a.unit_map(), idc))
    law(failures, "comultiplicativity",
        kron(ida, c.comult).compose(psi),
        compose_all(kron(psi, idc), kron(idc, psi), kron(c.comult, ida)))
    law(failures, "counitality",
        kron(ida, c.counit_map()).compose(psi),
        kron(c.counit_map(), ida))
    return CheckReport("entwining", tuple(failures))


def dual_entwining(e: Entwining) -> Entwining:
    """(C^*, A^*, psi^T): the algebra C^* entwined with the coalgebra A^* by
    the transposed psi.  Its four laws are the transposes of e's, so none
    is re-run; applying it twice gives back e."""
    return Entwining(dual_swap(e.coalg), dual_swap(e.alg), e.psi.transpose())


class EntwiningMorphism(Record):
    """A pair (f, g) of an algebra map and a coalgebra map intertwining the
    two psi maps."""

    _fields = ("src", "dst", "f",  # src algebra -> dst algebra
               "g")                # src coalgebra -> dst coalgebra


def verify_morphism(m: EntwiningMorphism) -> CheckReport:
    src, dst, f, g = m.src, m.dst, m.f, m.g
    failures = []
    law(failures, "f multiplicative",
        f.compose(src.alg.mult), dst.alg.mult.compose(kron(f, f)))
    law(failures, "f unital",
        f.compose(src.alg.unit_map()), dst.alg.unit_map())
    law(failures, "g comultiplicative",
        dst.coalg.comult.compose(g), kron(g, g).compose(src.coalg.comult))
    law(failures, "g counital",
        dst.coalg.counit_map().compose(g), src.coalg.counit_map())
    law(failures, "intertwining",
        kron(f, g).compose(src.psi), dst.psi.compose(kron(g, f)))
    return CheckReport("entwining morphism", tuple(failures))


# ---------------------------------------------------------------------------
# stock constructions


def ground_algebra(field: Field) -> Algebra:
    one = field.one
    return Algebra(1, LinMap.from_rows(field, (1, 1), (1,), [[one]]), (one,))


def ground_coalgebra(field: Field) -> Coalgebra:
    one = field.one
    return Coalgebra(1, LinMap.from_rows(field, (1,), (1, 1), [[one]]), (one,))


def twist_entwining(alg: Algebra, coalg: Coalgebra) -> Entwining:
    """psi = flip, entwining an algebra and a coalgebra that are already
    verified; the flip satisfies all four identities for any pair."""
    psi = LinMap.twist(alg.field, (coalg.dim,), (alg.dim,))
    return entwine_verified(alg, coalg, psi)


def counit_morphism(e: Entwining) -> EntwiningMorphism:
    """(id_A, eps_C): (A,C)_psi -> (A,k)_twist.  A and C were verified with
    e, and the flip satisfies its laws for any maps, so none is re-run."""
    dst = Entwining(e.alg, ground_coalgebra(e.field),
                    LinMap.twist(e.field, (1,), (e.alg.dim,)))
    g = e.coalg.counit_map().reshaped(codomain=(1,))
    return EntwiningMorphism(e, dst, e.alg.identity(), g)


def unit_morphism(e: Entwining) -> EntwiningMorphism:
    """(1_A, id_C): (k,C)_twist -> (A,C)_psi, with no law re-run."""
    src = Entwining(ground_algebra(e.field), e.coalg,
                    LinMap.twist(e.field, (e.coalg.dim,), (1,)))
    f = e.alg.unit_map().reshaped(domain=(1,))
    return EntwiningMorphism(src, e, f, e.coalg.identity())

