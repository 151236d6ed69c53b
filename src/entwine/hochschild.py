"""Relative Hochschild cochains and low-degree cohomology.

For a unital subalgebra B of A and an (A,A)-bimodule M, the degree-n
cochains are the two-sided B-linear maps g on the n-fold balanced power of
A over B (`entmod.balanced_power`), with degree zero the B-centralizer of
M.  One formula gives the coboundary in every degree:

    (delta g)(a0, ..., an) = a0 . g(a1, ..., an)
        + sum over i < n of (-1)^(i+1) g(a0, ..., ai ai+1, ..., an)
        + (-1)^(n+1) g(a0, ..., an-1) . an

with g read on the n-fold power through its projection and delta g
descended to the (n+1)-fold power.  Each term is a composite post .
(1_L (x) g (x) 1_R) . pre in the unknown cochain g, so one
`linalg.op_in_unknown` call assembles delta on every cochain at once, each
term with its sign +1 or -1; the result must kill the relations of the
(n+1)-fold power and land in the next cochain space, or InconsistencyError
is raised.  Its square is asserted to vanish in every computed degree.
Degree is capped at two: the balanced cube is the largest space this
library ever builds.
"""

from __future__ import annotations

from math import prod

from .entmod import balanced_power
from .errors import DomainError, InputError, InconsistencyError
from .linalg import (LinMap, LinearConstraints, QuotientModule, Subspace,
                     SCALAR, corestrict, descend, kernel, kron, kron_all,
                     op_in_unknown, rref)
from .records import Record
from .structures import Algebra, CheckReport, law, subalgebra_product


class Bimodule(Record):
    _fields = ("dim", "left",  # (dimA, dim) -> (dim)
               "right")        # (dim, dimA) -> (dim)


def verify_bimodule(alg: Algebra, m: Bimodule) -> CheckReport:
    f = alg.field
    idm = LinMap.identity(f, (m.dim,))
    ida = alg.identity()
    failures = []
    law(failures, "left associativity",
        m.left.compose(kron(ida, m.left)),
        m.left.compose(kron(alg.mult, idm)))
    law(failures, "left unitality",
        m.left.compose(kron(alg.unit_map(), idm)), idm)
    law(failures, "right associativity",
        m.right.compose(kron(m.right, ida)),
        m.right.compose(kron(idm, alg.mult)))
    law(failures, "right unitality",
        m.right.compose(kron(idm, alg.unit_map())), idm)
    law(failures, "actions commute",
        m.left.compose(kron(ida, m.right)),
        m.right.compose(kron(m.left, ida)))
    return CheckReport("bimodule", tuple(failures))


def regular_bimodule(alg: Algebra) -> Bimodule:
    return Bimodule(alg.dim, alg.mult.reshaped((alg.dim, alg.dim), (alg.dim,)),
                    alg.mult)


class RelativeComplex(Record):
    _fields = ("alg", "sub",           # B inside A
               "bimodule", "spaces",  # cochain Subspaces, degree 0 upward,
               "boundaries")          # and the coboundary maps on their
                                      # coordinates

    @property
    def max_degree(self) -> int:
        return len(self.boundaries) - 1


def _is_unital_subalgebra(alg: Algebra, b: Subspace) -> bool:
    """1 lies in B, and B is closed under the product
    (`structures.subalgebra_product`)."""
    return b.contains(alg.unit) and subalgebra_product(alg, b) is not None


def _cochain_space(alg: Algebra, b: Subspace, m: Bimodule,
                   power: QuotientModule) -> Subspace:
    """Two-sided B-linear maps out of a balanced power with at least one
    factor, as a subspace of the full matrix space."""
    f = alg.field
    incl = b.inclusion
    bdim = b.dim
    dom_dim = power.dim
    first = kron(alg.mult.compose(kron(incl, alg.identity())),
                 LinMap.identity(f, power.ambient[1:]))
    left_act = descend(power.projection.compose(first), power, left=bdim)
    last = kron(LinMap.identity(f, power.ambient[:-1]),
                alg.mult.compose(kron(alg.identity(), incl)))
    right_act = descend(power.projection.compose(last), power, right=bdim)
    idm = LinMap.identity(f, (m.dim,))
    sys = LinearConstraints(f, (dom_dim,), (m.dim,))
    # X(b . x) = b . X(x)
    lhs = (left_act, SCALAR, SCALAR, idm)
    rhs = (LinMap.identity(f, (bdim, dom_dim)), (bdim,), SCALAR,
           m.left.compose(kron(incl, idm)))
    sys.require("left B-linearity", lhs, rhs)
    # X(x . b) = X(x) . b
    lhs = (right_act, SCALAR, SCALAR, idm)
    rhs = (LinMap.identity(f, (dom_dim, bdim)), SCALAR, (bdim,),
           m.right.compose(kron(idm, incl)))
    sys.require("right B-linearity", lhs, rhs)
    return sys.solve().homogeneous


def _centralizer(alg: Algebra, b: Subspace, m: Bimodule) -> Subspace:
    """Elements x of M with b . x = x . b for every b in B."""
    sys = LinearConstraints(alg.field, SCALAR, (m.dim,))
    # both sides as maps B -> M in the unknown element x: k -> M
    incl = b.inclusion
    lhs = (incl, (alg.dim,), SCALAR, m.left)
    rhs = (incl, SCALAR, (alg.dim,), m.right)
    sys.require("centrality", lhs, rhs)
    return sys.solve().homogeneous


def relative_complex(alg: Algebra, b: Subspace, m: Bimodule,
                     max_degree: int = 1) -> RelativeComplex:
    """Cochain spaces and coboundaries up to degree max_degree + 1.

    max_degree 1 builds the complex through the balanced square, 2 through
    the balanced cube; the square of every assembled coboundary is asserted
    to vanish.  The bimodule laws are checked first, then that b is a
    unital subalgebra; either failure raises DomainError.  A b outside the
    algebra's space is an InputError.
    """
    if max_degree not in (1, 2):
        raise InputError("degree is capped at 2")
    verify_bimodule(alg, m).require()
    if prod(b.ambient) != alg.dim:
        raise InputError("subalgebra does not lie in the algebra's space")
    if not _is_unital_subalgebra(alg, b):
        raise DomainError("relative complex needs a unital subalgebra")
    return _assemble_complex(alg, b, m, max_degree)


def _assemble_complex(alg: Algebra, b: Subspace, m: Bimodule, max_degree: int,
                      square: QuotientModule | None = None) -> RelativeComplex:
    """The complex of `relative_complex` on inputs that the caller has
    already checked: m a bimodule, b a unital subalgebra, max_degree 1 or 2.
    A balanced square the caller holds (A (x)_B A as `balanced_power`
    builds it) is used instead of being built again."""
    f, d = alg.field, alg.dim
    powers = [square if n == 2 and square is not None
              else balanced_power(alg, b, n) for n in range(max_degree + 2)]
    spaces = [_centralizer(alg, b, m)]
    spaces += [_cochain_space(alg, b, m, power) for power in powers[1:]]
    ida = alg.identity()
    idm = LinMap.identity(f, (m.dim,))
    boundaries = []
    for n in range(max_degree + 1):
        proj = powers[n].projection
        # delta g on A^(n+1) for the unknown cochain g: Q_n -> M; term i
        # after a0 . g(a1, ..., an) carries the sign (-1)^(i+1)
        terms = [(1, (kron(ida, proj), (d,), SCALAR, m.left))]
        terms += [((-1) ** (i + 1),
                   (proj.compose(kron_all(LinMap.identity(f, (d,) * i), alg.mult,
                                          LinMap.identity(f, (d,) * (n - 1 - i)))),
                    SCALAR, SCALAR, idm)) for i in range(n)]
        terms.append(((-1) ** (n + 1), (kron(proj, ida), SCALAR, (d,), m.right)))
        raw = op_in_unknown((powers[n].dim,), (m.dim,), terms) \
            .compose(spaces[n].inclusion)
        target = powers[n + 1]
        # on vectorized maps, precomposing with r is 1_M (x) r^T
        if not kron(idm, target.relations.echelon) \
                .compose(raw).is_zero_map():
            raise InconsistencyError("coboundary does not descend")
        boundaries.append(corestrict(
            kron(idm, target.section.transpose()).compose(raw), spaces[n + 1]))
    complex_ = RelativeComplex(alg, b, m, tuple(spaces), tuple(boundaries))
    for lower, upper in zip(boundaries, boundaries[1:]):
        if not upper.compose(lower).is_zero_map():
            raise InconsistencyError("coboundary square does not vanish")
    return complex_


def cohomology_dim(complex_: RelativeComplex, n: int):
    """(dimension, representatives) of the degree-n cohomology.

    The representatives, in cochain coordinates, are the cycle-basis
    vectors (the kernel's echelon basis, in order) outside the span of the
    coboundaries and of the cycles before them: the pivot columns past
    delta_(n-1) of one elimination of [delta_(n-1) | cycle basis]."""
    if n < 0 or n > complex_.max_degree:
        raise InputError(f"degree {n} exceeds the computed complex")
    cycles = kernel(complex_.boundaries[n])
    into = complex_.boundaries[n - 1] if n else \
        LinMap.zero(cycles.field, (0,), cycles.ambient)
    k = into.cols
    # each row joins two maps' numerators, which scales whole column
    # blocks and so leaves the pivot columns as they are
    _, _, pivots = rref(cycles.field, [
        b + tuple((k + j, x) for j, x in z)
        for b, z in zip(into.nonzeros, cycles.inclusion.nonzeros)])
    if len(pivots) != cycles.dim:
        raise InconsistencyError("coboundaries leave the cycles")  # unreachable
    picked = [c - k for c in pivots if c >= k]
    # rows of a reduced echelon basis are a reduced echelon basis themselves
    echelon = cycles.echelon
    return len(picked), Subspace(
        LinMap(cycles.field, cycles.ambient, (len(picked),),
               tuple(echelon.nonzeros[i] for i in picked), echelon.den),
        tuple(cycles.pivots[i] for i in picked))
