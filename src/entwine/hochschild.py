"""Relative Hochschild cochains and low-degree cohomology.

For a unital subalgebra B of A and an (A,A)-bimodule M, the degree-n
cochains are the two-sided B-linear maps on the n-fold balanced power of A
over B, with degree zero the B-centralizer of M.  The coboundary is the
usual alternating sum; its square is asserted to vanish in every computed
degree.  Degree is capped at two: the balanced cube is the largest space
this library ever builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InconsistencyError
from .linalg import (LinMap, LinearConstraints, QuotientModule, Subspace,
                     TensorShape, SCALAR, descend, image, kernel, kron,
                     kron_all, op_in_unknown, quotient_by)
from .structures import Algebra, CheckReport, law


@dataclass(frozen=True)
class Bimodule:
    dim: int
    left: LinMap    # (dimA, dim) -> (dim)
    right: LinMap   # (dim, dimA) -> (dim)


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


@dataclass(frozen=True)
class RelativeComplex:
    alg: Algebra
    sub: Subspace              # B inside A
    bimodule: Bimodule
    powers: tuple              # QuotientModule for each balanced power >= 2
    spaces: tuple              # cochain Subspaces, degree 0 upward
    boundaries: tuple          # coboundary maps on cochain coordinates

    @property
    def max_degree(self) -> int:
        return len(self.boundaries) - 1


def _is_unital_subalgebra(alg: Algebra, b: Subspace) -> bool:
    if not b.contains(alg.unit):
        return False
    for u in b.basis:
        for v in b.basis:
            if not b.contains(alg.multiply(u, v)):
                return False
    return True


def _balanced_power(alg: Algebra, b: Subspace, n: int) -> QuotientModule:
    """A (x)_B ... (x)_B A with n factors, as one quotient of the n-fold
    tensor power by all middle balancing relations."""
    f = alg.field
    d = alg.dim
    incl = b.inclusion()
    ids = [LinMap.identity(f, (d,)) for _ in range(n)]
    move = kron(alg.mult.compose(kron(ids[0], incl)), ids[0]).sub(
        kron(ids[0], alg.mult.compose(kron(incl, ids[0]))))
    # move: A (x) B (x) A -> A (x) A, the balancing defect at one junction
    relations = Subspace.from_vectors(f, tuple([d] * n), [])
    for pos in range(n - 1):
        left = LinMap.identity(f, tuple([d] * pos)) if pos else LinMap.identity(f, SCALAR)
        right_len = n - 2 - pos
        right = LinMap.identity(f, tuple([d] * right_len)) if right_len else \
            LinMap.identity(f, SCALAR)
        relations = relations.sum(image(kron_all(left, move, right)))
    return quotient_by(relations)


def _cochain_space(alg: Algebra, b: Subspace, m: Bimodule,
                   power: QuotientModule | None) -> Subspace:
    """Two-sided B-linear maps out of a balanced power (or out of A itself
    when power is None), as a subspace of the full matrix space."""
    f = alg.field
    d = alg.dim
    incl = b.inclusion()
    bdim = b.dim
    if power is None:
        dom_dim = d
        left_act = alg.mult.compose(kron(incl, alg.identity()))
        right_act = alg.mult.compose(kron(alg.identity(), incl))
    else:
        dom_dim = power.dim
        amb = power.ambient
        first = kron(alg.mult.compose(kron(incl, alg.identity())),
                     LinMap.identity(f, amb.factors[1:]))
        left_act = descend(power.projection.compose(first), power, left=bdim)
        last = kron(LinMap.identity(f, amb.factors[:-1]),
                    alg.mult.compose(kron(alg.identity(), incl)))
        right_act = descend(power.projection.compose(last), power, right=bdim)
    xdom, xcod = TensorShape((dom_dim,)), TensorShape((m.dim,))
    idm = LinMap.identity(f, (m.dim,))
    sys = LinearConstraints(f, xdom, xcod)
    # X(b . x) = b . X(x)
    lhs = op_in_unknown(left_act, SCALAR, xdom, xcod, SCALAR, idm)
    rhs = op_in_unknown(LinMap.identity(f, (bdim, dom_dim)), (bdim,), xdom,
                        xcod, SCALAR, m.left.compose(kron(incl, idm)))
    sys.require("left B-linearity", lhs, rhs)
    # X(x . b) = X(x) . b
    lhs = op_in_unknown(right_act, SCALAR, xdom, xcod, SCALAR, idm)
    rhs = op_in_unknown(LinMap.identity(f, (dom_dim, bdim)), SCALAR, xdom,
                        xcod, (bdim,), m.right.compose(kron(idm, incl)))
    sys.require("right B-linearity", lhs, rhs)
    return sys.solve().homogeneous


def _centralizer(alg: Algebra, b: Subspace, m: Bimodule) -> Subspace:
    """Elements x of M with b . x = x . b for every b in B."""
    xcod = TensorShape((m.dim,))
    sys = LinearConstraints(alg.field, SCALAR, xcod)
    # both sides as maps B -> M in the unknown element x: k -> M
    incl = b.inclusion()
    lhs = op_in_unknown(incl, (alg.dim,), SCALAR, xcod, SCALAR, m.left)
    rhs = op_in_unknown(incl, SCALAR, SCALAR, xcod, (alg.dim,), m.right)
    sys.require("centrality", lhs, rhs)
    return sys.solve().homogeneous


def relative_complex(alg: Algebra, b: Subspace, m: Bimodule,
                     max_degree: int = 1) -> RelativeComplex:
    """Cochain spaces and coboundaries up to degree max_degree + 1.

    max_degree 1 builds the complex through the balanced square, 2 through
    the balanced cube; the square of every assembled coboundary is asserted
    to vanish.  The bimodule laws and the unital subalgebra are checked
    first, and a failure raises InputError.
    """
    if max_degree not in (1, 2):
        raise InputError("degree is capped at 2")
    rep = verify_bimodule(alg, m)
    if not rep.ok:
        raise InputError(f"invalid bimodule: {rep}")
    if b.ambient.total != alg.dim or not _is_unital_subalgebra(alg, b):
        raise InputError("relative complex needs a unital subalgebra")
    return _assemble_complex(alg, b, m, max_degree)


def _assemble_complex(alg: Algebra, b: Subspace, m: Bimodule, max_degree: int,
                      square: QuotientModule | None = None) -> RelativeComplex:
    """The complex of `relative_complex` on inputs that the caller has
    already checked: m a bimodule, b a unital subalgebra, max_degree 1 or 2.
    A balanced square the caller holds (A (x)_B A as `_balanced_power`
    builds it) is used instead of being built again."""
    f = alg.field
    d = alg.dim
    if square is None:
        square = _balanced_power(alg, b, 2)
    powers = [square] + [_balanced_power(alg, b, n)
                         for n in range(3, max_degree + 2)]
    spaces = [_centralizer(alg, b, m), _cochain_space(alg, b, m, None)]
    for power in powers:
        spaces.append(_cochain_space(alg, b, m, power))
    boundaries = []
    # degree 0: m -> (a -> a.m - m.a)
    cols0 = []
    for vec in spaces[0].basis:
        ins = LinMap.element(f, (m.dim,), vec)
        delta = m.left.compose(kron(alg.identity(), ins)).sub(
            m.right.compose(kron(ins, alg.identity())))
        cols0.append(delta.flat())
    boundaries.append(_columns_into(spaces[1], cols0, f, spaces[0].dim))
    # degree 1: f -> (a1, a2 -> a1.f(a2) - f(a1 a2) + f(a1).a2)
    cols1 = []
    for vec in spaces[1].basis:
        fmap = LinMap.from_flat(f, (d,), (m.dim,), vec)
        raw = m.left.compose(kron(alg.identity(), fmap)) \
            .sub(fmap.compose(alg.mult)) \
            .add(m.right.compose(kron(fmap, alg.identity())))
        onq = descend(raw, square)
        cols1.append(onq.flat())
    boundaries.append(_columns_into(spaces[2], cols1, f, spaces[1].dim))
    if max_degree == 2:
        cube = powers[1]
        cols2 = []
        ida = alg.identity()
        for vec in spaces[2].basis:
            gq = LinMap.from_flat(f, (square.dim,), (m.dim,), vec)
            gmap = gq.compose(square.projection)      # back on A (x) A
            raw = m.left.compose(kron(ida, gmap)) \
                .sub(gmap.compose(kron(alg.mult, ida))) \
                .add(gmap.compose(kron(ida, alg.mult))) \
                .sub(m.right.compose(kron(gmap, ida)))
            onq = descend(raw, cube)
            cols2.append(onq.flat())
        boundaries.append(_columns_into(spaces[3], cols2, f, spaces[2].dim))
    complex_ = RelativeComplex(alg, b, m, tuple(powers), tuple(spaces),
                               tuple(boundaries))
    for lower, upper in zip(boundaries, boundaries[1:]):
        if not upper.compose(lower).is_zero_map():
            raise InconsistencyError("coboundary square does not vanish")
    return complex_


def _columns_into(space: Subspace, cols, f, src_dim) -> LinMap:
    """Express ambient column vectors in the coordinates of a cochain
    subspace, asserting membership."""
    coords = [space.coords(col) for col in cols]
    if None in coords:
        raise InconsistencyError("coboundary leaves the cochain space")
    return LinMap.from_rows(f, (space.dim,), (src_dim,), coords).transpose()


def cohomology_dim(complex_: RelativeComplex, n: int):
    """(dimension, representatives) of the degree-n cohomology.

    Representatives are cocycles spanning a complement of the coboundaries,
    in cochain coordinates.
    """
    if n < 0 or n > complex_.max_degree:
        raise InputError(f"degree {n} exceeds the computed complex")
    f = complex_.alg.field
    cycles = kernel(complex_.boundaries[n])
    if n == 0:
        boundaries = Subspace.zero(f, cycles.ambient)
    else:
        boundaries = image(complex_.boundaries[n - 1])
    dim = cycles.dim - boundaries.dim
    reps = []
    span = boundaries
    for v in cycles.basis:
        if not span.contains(v):
            reps.append(v)
            span = span.sum(Subspace.from_vectors(f, cycles.ambient, [v]))
    if len(reps) != dim:
        raise InconsistencyError("representative count mismatch")  # unreachable
    return dim, Subspace.from_vectors(f, TensorShape((complex_.spaces[n].dim,)),
                                      reps)
