"""Exact linear algebra on tensor-shaped spaces.

Everything here is immutable and pure.  Vectors are tuples of scalars, maps
are dense row-major matrices carrying explicit tensor factorizations of
their domain and codomain, and index flattening is row-major throughout
(leftmost factor most significant).  There is no floating point anywhere;
no tolerances, ever.

Storage is dense, but the work is sparse: elimination and the products
(composition, tensor product, application, difference, the operator
builder) visit only nonzero entries and choose their scalar arithmetic once
per call.  Products over Q run in integers on a common denominator: each
factor's nonzeros are rewritten as integer numerators over one denominator
(`_integral`), sums of products are plain int arithmetic, and one canonical
Fraction is built per nonzero output entry (the field's shared zero where
a sum cancels).  Every elimination goes through one sparse Gauss-Jordan
routine, `rref`, whose result is the unique reduced row echelon form, so
every subspace, kernel, image and solution set is canonical however it was
computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import is_not

from .errors import InputError, InconsistencyError
from .fields import Field


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class TensorShape:
    """An ordered list of tensor factor dimensions; () is the ground field."""

    factors: tuple

    def __init__(self, factors=()):
        factors = tuple(int(f) for f in factors)
        if any(f < 0 for f in factors):
            raise InputError(f"factor dimensions must be nonnegative: {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def total(self) -> int:
        return prod(self.factors)

    def flatten(self, index) -> int:
        """Row-major flat position of a multi-index."""
        index = tuple(index)
        if len(index) != len(self.factors):
            raise InputError(f"index {index} does not match shape {self.factors}")
        flat = 0
        for i, f in zip(index, self.factors):
            if not 0 <= i < f:
                raise InputError(f"index {index} out of range for shape {self.factors}")
            flat = flat * f + i
        return flat

    def unflatten(self, flat: int) -> tuple:
        if not 0 <= flat < self.total:
            raise InputError(f"flat index {flat} out of range for shape {self.factors}")
        out = []
        for f in reversed(self.factors):
            out.append(flat % f)
            flat //= f
        return tuple(reversed(out))

    def concat(self, other: "TensorShape") -> "TensorShape":
        return TensorShape(self.factors + other.factors)

    def __iter__(self):
        return iter(self.factors)

    def __repr__(self):
        return f"TensorShape{self.factors}"


def shape(*factors) -> TensorShape:
    return TensorShape(factors)


SCALAR = TensorShape(())


def _shape(shp) -> TensorShape:
    return shp if isinstance(shp, TensorShape) else TensorShape(shp)


def _nonzeros(row, zero):
    """(column, value) pairs of the nonzero entries of a dense row.

    Entries that are the field's shared zero object are skipped by an
    identity test at C speed; only the rest are tested for zero."""
    candidates = itertools.compress(range(len(row)),
                                    map(is_not, row, itertools.repeat(zero)))
    return [(j, row[j]) for j in candidates if row[j]]


def _integral(nz, p, d=None):
    """(d, [(column, n)]) with value = n / d for each (column, value) in nz.

    Over Q, d is the least common denominator of the values (or the given
    multiple of it) and every n an int, so products and sums of them are
    plain integer arithmetic; over F_p the values are already ints and d
    is 1."""
    if p is not None:
        return 1, nz
    if d is None:
        d = lcm(*{x.denominator for _, x in nz})
    if d == 1:
        return 1, [(j, x.numerator) for j, x in nz]
    return d, [(j, x.numerator * (d // x.denominator)) for j, x in nz]


def _denominator(rows, p):
    """The least common denominator of every value in lists of nonzeros
    (1 over F_p)."""
    if p is not None:
        return 1
    return lcm(*{x.denominator for nz in rows for _, x in nz})


def _dense(entries, width, zero):
    """A dense row from {column: value}."""
    row = [zero] * width
    for j, x in entries.items():
        row[j] = x
    return tuple(row)


def _dense_sums(sums, width, d, zero, p):
    """A dense row from {column: integer numerator over d}: one canonical
    Fraction per nonzero entry over Q, and the field's shared zero where a
    sum cancelled; over F_p the sums reduced mod p."""
    row = [zero] * width
    if p is not None:
        for j, n in sums.items():
            row[j] = n % p
    elif d == 1:
        for j, n in sums.items():
            if n:
                row[j] = Fraction(n)
    else:
        for j, n in sums.items():
            if n:
                row[j] = Fraction(n, d)
    return tuple(row)


# ---------------------------------------------------------------------------
# linear maps


@dataclass(frozen=True)
class LinMap:
    """An exact matrix with tensor-shaped domain and codomain.

    entries[r][c] is the coefficient of codomain basis vector r in the image
    of domain basis vector c.
    """

    field: Field
    domain: TensorShape
    codomain: TensorShape
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.codomain.total:
            raise InputError(
                f"{len(self.entries)} rows for codomain of total {self.codomain.total}")
        n = self.domain.total
        for length in set(map(len, self.entries)):
            if length != n:
                raise InputError(f"row of length {length} for domain of total {n}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(field, domain, codomain, rows) -> "LinMap":
        domain, codomain = _shape(domain), _shape(codomain)
        return LinMap(field, domain, codomain, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(field, shp) -> "LinMap":
        shp = _shape(shp)
        n = shp.total
        one, zero = field.one, field.zero
        rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return LinMap(field, shp, shp, rows)

    @staticmethod
    def zero(field, domain, codomain) -> "LinMap":
        domain, codomain = _shape(domain), _shape(codomain)
        z = field.zero
        rows = tuple((z,) * domain.total for _ in range(codomain.total))
        return LinMap(field, domain, codomain, rows)

    @staticmethod
    def element(field, shp, vec) -> "LinMap":
        """A vector as a map from the ground field, k -> V."""
        shp = _shape(shp)
        if len(vec) != shp.total:
            raise InputError("element length does not match shape")
        return LinMap(field, SCALAR, shp, tuple((v,) for v in vec))

    @staticmethod
    def from_flat(field, domain, codomain, vec) -> "LinMap":
        """The map whose row-major vectorization is vec; inverse of flat."""
        domain, codomain = _shape(domain), _shape(codomain)
        w = domain.total
        if len(vec) != w * codomain.total:
            raise InputError("vector length does not match the map shape")
        return LinMap(field, domain, codomain,
                      tuple(tuple(vec[r * w:(r + 1) * w]) for r in range(codomain.total)))

    @staticmethod
    def functional(field, shp, covec) -> "LinMap":
        """A covector as a map to the ground field, V -> k."""
        shp = _shape(shp)
        if len(covec) != shp.total:
            raise InputError("functional length does not match shape")
        return LinMap(field, shp, SCALAR, (tuple(covec),))

    @staticmethod
    def twist(field, left, right) -> "LinMap":
        """The flip V (x) W -> W (x) V on basis vectors."""
        left, right = _shape(left), _shape(right)
        nl, nr = left.total, right.total
        rows = [[field.zero] * (nl * nr) for _ in range(nl * nr)]
        for i in range(nl):
            for j in range(nr):
                rows[j * nl + i][i * nr + j] = field.one
        return LinMap(field, left.concat(right), right.concat(left),
                      tuple(tuple(r) for r in rows))

    # -- basics --------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.codomain.total

    @property
    def cols(self) -> int:
        return self.domain.total

    def reshaped(self, domain=None, codomain=None) -> "LinMap":
        """Reinterpret the tensor factorization without touching entries."""
        domain = self.domain if domain is None else _shape(domain)
        codomain = self.codomain if codomain is None else _shape(codomain)
        if domain.total != self.domain.total or codomain.total != self.codomain.total:
            raise InputError("reshape must preserve total dimensions")
        return LinMap(self.field, domain, codomain, self.entries)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise InputError(f"vector of length {len(vec)} for domain {self.cols}")
        p, zero = self.field.p, self.field.zero
        rows_nz = [_nonzeros(r, zero) for r in self.entries]
        d = _denominator(rows_nz, p)
        dv, vec_nz = _integral(_nonzeros(vec, zero), p)
        ints = [0] * len(vec)
        for j, x in vec_nz:
            ints[j] = x
        sums = {i: sum([a * ints[j] for j, a in _integral(nz, p, d)[1]])
                for i, nz in enumerate(rows_nz)}
        return _dense_sums(sums, len(rows_nz), d * dv, zero, p)

    def flat(self) -> tuple:
        """Row-major vectorization of the matrix; inverse of from_flat."""
        return tuple(itertools.chain.from_iterable(self.entries))

    def column(self, c: int):
        return tuple(row[c] for row in self.entries)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other (matrix product self . other)."""
        if self.field != other.field:
            raise InputError("field mismatch in composition")
        if self.cols != other.rows:
            raise InputError(
                f"composition shape mismatch: {self.domain} vs {other.codomain}")
        f = self.field
        p, zero, n_in = f.p, f.zero, other.cols
        other_nz = [_nonzeros(r, zero) for r in other.entries]
        d_other = _denominator(other_nz, p)
        if p is None:
            other_nz = [_integral(nz, p, d_other)[1] for nz in other_nz]
        out = []
        for row in self.entries:
            d, row_nz = _integral(_nonzeros(row, zero), p)
            acc = {}
            for k, a in row_nz:
                for j, b in other_nz[k]:
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            out.append(_dense_sums(acc, n_in, d * d_other, zero, p))
        return LinMap(f, other.domain, self.codomain, tuple(out))

    def add(self, other: "LinMap") -> "LinMap":
        self._require_parallel(other)
        f = self.field
        rows = tuple(tuple(f.add(a, b) for a, b in zip(r1, r2))
                     for r1, r2 in zip(self.entries, other.entries))
        return LinMap(f, self.domain, self.codomain, rows)

    def sub(self, other: "LinMap") -> "LinMap":
        self._require_parallel(other)
        f = self.field
        p, zero = f.p, f.zero
        rows = []
        for r1, r2 in zip(self.entries, other.entries):
            nz = _nonzeros(r2, zero)
            if nz:
                row = list(r1)
                if p is None:
                    for j, b in nz:
                        row[j] -= b
                else:
                    for j, b in nz:
                        row[j] = (row[j] - b) % p
                r1 = tuple(row)
            rows.append(r1)
        return LinMap(f, self.domain, self.codomain, tuple(rows))

    def scale(self, scalar) -> "LinMap":
        f = self.field
        rows = tuple(tuple(f.mul(scalar, a) for a in r) for r in self.entries)
        return LinMap(f, self.domain, self.codomain, rows)

    def transpose(self) -> "LinMap":
        rows = tuple(tuple(self.entries[i][j] for i in range(self.rows))
                     for j in range(self.cols))
        return LinMap(self.field, self.codomain, self.domain, rows)

    def _require_parallel(self, other):
        if self.field != other.field:
            raise InputError("field mismatch")
        if self.cols != other.cols or self.rows != other.rows:
            raise InputError("shape totals differ")

    def equals(self, other: "LinMap") -> bool:
        """Entrywise equality; factorizations may differ but totals must agree."""
        self._require_parallel(other)
        return self.entries == other.entries

    def is_zero_map(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def first_difference(self, other: "LinMap"):
        """First (column, row) where the matrices differ, scanning columns
        lexicographically; None if equal."""
        self._require_parallel(other)
        if self.entries == other.entries:
            return None
        for c in range(self.cols):
            for r in range(self.rows):
                if self.entries[r][c] != other.entries[r][c]:
                    return c, r
        return None

    def __repr__(self):
        return f"LinMap({self.field}, {self.domain.factors}->{self.codomain.factors})"


def kron(f: LinMap, g: LinMap) -> LinMap:
    """Tensor product of maps; shapes concatenate, flattening is row-major."""
    if f.field != g.field:
        raise InputError("field mismatch in tensor product")
    p, zero = f.field.p, f.field.zero
    gc = g.cols
    width = f.cols * gc
    g_nz = [_integral(_nonzeros(r, zero), p) for r in g.entries]
    out = []
    for frow in f.entries:
        df, f_nz = _integral(_nonzeros(frow, zero), p)
        f_nz = [(j1 * gc, a) for j1, a in f_nz]
        for dg, grow in g_nz:
            row = [zero] * width
            if p is not None:
                for base, a in f_nz:
                    for j2, b in grow:
                        row[base + j2] = a * b % p
            elif df * dg == 1:
                for base, a in f_nz:
                    for j2, b in grow:
                        row[base + j2] = Fraction(a * b)
            else:
                d = df * dg
                for base, a in f_nz:
                    for j2, b in grow:
                        row[base + j2] = Fraction(a * b, d)
            out.append(tuple(row))
    return LinMap(f.field, f.domain.concat(g.domain), f.codomain.concat(g.codomain),
                  tuple(out))


def kron_all(*maps) -> LinMap:
    out = maps[0]
    for m in maps[1:]:
        out = kron(out, m)
    return out


def compose_all(*maps) -> LinMap:
    """compose_all(f, g, h) = f . g . h (rightmost applied first)."""
    out = maps[0]
    for m in maps[1:]:
        out = out.compose(m)
    return out


# ---------------------------------------------------------------------------
# row reduction


def _row_ops(field):
    """(axpy, scale) on sparse rows {column: nonzero value}, with the
    field's arithmetic chosen once: axpy(row, a, other) adds a * other to
    row in place, scale(row, a) returns a * row."""
    p = field.p
    if p is None:
        def axpy(row, a, other):
            for j, v in other.items():
                x = row.get(j)
                if x is None:
                    row[j] = a * v
                else:
                    x += a * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]

        def scale(row, a):
            return {j: a * x for j, x in row.items()}
    else:
        def axpy(row, a, other):
            for j, v in other.items():
                x = row.get(j)
                if x is None:
                    row[j] = a * v % p
                else:
                    x = (x + a * v) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]

        def scale(row, a):
            return {j: a * x % p for j, x in row.items()}
    return axpy, scale


def rref(field, rows):
    """Reduced row echelon form over an exact field.

    Returns (rows, pivot_columns); zero rows are dropped and every pivot is
    normalized to 1 with zeros above and below.

    Sparse Gauss-Jordan: each input row, held as its nonzero entries, is
    reduced by the pivot rows found so far; its leftmost remaining entry
    becomes a new pivot, and that column is cleared from the earlier pivot
    rows, so the pivot rows stay fully reduced throughout.  The reduced row
    echelon form of a row space is unique, so the result does not depend on
    the order of the input rows.
    """
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    axpy, scale = _row_ops(field)
    neg, zero = field.neg, field.zero
    reduced = {}                     # pivot column -> sparse row, pivot 1
    for dense in rows:
        if len(reduced) == ncols:
            break
        row = dict(_nonzeros(dense, zero))
        for c in row.keys() & reduced.keys():
            axpy(row, neg(row[c]), reduced[c])
        if not row:
            continue
        c = min(row)
        if row[c] != 1:
            row = scale(row, field.inv(row[c]))
        for other in reduced.values():
            x = other.get(c)
            if x:
                axpy(other, neg(x), row)
        reduced[c] = row
    pivots = sorted(reduced)
    return [_dense(reduced[c], ncols, zero) for c in pivots], pivots


def _kernel_from_rref(field, reduced, pivots, ncols):
    """Kernel basis of a reduced matrix: one vector per free column, set to
    1 there; reads only the first ncols entries of each row."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(reduced, pivots):
            if row[fc]:
                v[pc] = field.neg(row[fc])
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace given by a reduced-echelon basis; the canonical form makes
    equality of subspaces plain equality of bases."""

    field: Field
    ambient: TensorShape
    basis: tuple
    pivots: tuple

    @staticmethod
    def from_vectors(field, ambient, vectors) -> "Subspace":
        ambient = _shape(ambient)
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient.total:
                raise InputError("spanning vector does not match ambient shape")
        reduced, pivots = rref(field, vecs)
        return Subspace(field, ambient, tuple(reduced), tuple(pivots))

    @staticmethod
    def zero(field, ambient) -> "Subspace":
        ambient = _shape(ambient)
        return Subspace(field, ambient, (), ())

    @staticmethod
    def full(field, ambient) -> "Subspace":
        ambient = _shape(ambient)
        n = ambient.total
        one, zero = field.one, field.zero
        basis = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return Subspace(field, ambient, basis, tuple(range(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec):
        """Remainder of vec after subtracting its span component."""
        f = self.field
        p, zero = f.p, f.zero
        v = list(vec)
        for b, pc in zip(self.basis, self.pivots):
            c = v[pc]
            if c:
                if p is None:
                    for j, y in _nonzeros(b, zero):
                        v[j] -= c * y
                else:
                    for j, y in _nonzeros(b, zero):
                        v[j] = (v[j] - c * y) % p
        return tuple(v)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def coords(self, vec):
        """Coordinates of vec in the echelon basis; None if not a member."""
        if not self.contains(vec):
            return None
        return tuple(vec[p] for p in self.pivots)

    def inclusion(self) -> LinMap:
        """S -> ambient, basis vectors as columns."""
        rows = tuple(tuple(b[i] for b in self.basis) for i in range(self.ambient.total))
        return LinMap(self.field, TensorShape((self.dim,)), self.ambient, rows)

    def retraction(self) -> LinMap:
        """ambient -> S, pivot-coordinate extraction; a left inverse of inclusion."""
        one, zero = self.field.one, self.field.zero
        n = self.ambient.total
        rows = tuple(tuple(one if j == p else zero for j in range(n)) for p in self.pivots)
        return LinMap(self.field, self.ambient, TensorShape((self.dim,)), rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient.total != other.ambient.total:
            raise InputError("ambient mismatch in subspace sum")
        return Subspace.from_vectors(self.field, self.ambient,
                                     list(self.basis) + list(other.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient.total})"


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class QuotientModule:
    """A quotient of a tensor-shaped space by a subspace of relations.

    Carries an explicit projection and a section (built from the echelon
    pivots of the relations, so the whole construction is deterministic);
    projection . section is the identity on the quotient.
    """

    ambient: TensorShape
    relations: Subspace
    projection: LinMap
    section: LinMap

    @property
    def dim(self) -> int:
        return self.projection.rows

    def __repr__(self):
        return f"QuotientModule({self.ambient.total} -> {self.dim})"


def quotient_by(relations: Subspace) -> QuotientModule:
    f = relations.field
    ambient = relations.ambient
    n = ambient.total
    pivot_set = set(relations.pivots)
    complement = [c for c in range(n) if c not in pivot_set]
    q = len(complement)
    qshape = TensorShape((q,))
    # projection: reduce modulo the relations, then read the complement
    # coords; a complement basis vector reduces to itself, and the pivot-p
    # vector of the echelon basis b reduces to e_p - b
    zero = f.zero
    position = {c: t for t, c in enumerate(complement)}
    proj_rows = [[zero] * n for _ in range(q)]
    for t, c in enumerate(complement):
        proj_rows[t][c] = f.one
    for b, pc in zip(relations.basis, relations.pivots):
        for c, x in _nonzeros(b, zero):
            t = position.get(c)
            if t is not None:
                proj_rows[t][pc] = f.neg(x)
    projection = LinMap(f, ambient, qshape, tuple(tuple(r) for r in proj_rows))
    sec_rows = [[f.zero] * q for _ in range(n)]
    for t, c in enumerate(complement):
        sec_rows[c][t] = f.one
    section = LinMap(f, qshape, ambient, tuple(tuple(r) for r in sec_rows))
    return QuotientModule(ambient, relations, projection, section)


def descend(raw: LinMap, src: QuotientModule, left=1, right=1) -> LinMap:
    """Factor raw: L (x) ambient (x) R -> E through the quotient in the middle.

    Asserts that raw kills the relations (tensored with the identity on the
    surrounding factors); raises InconsistencyError otherwise.
    """
    f = raw.field
    idl = LinMap.identity(f, TensorShape((left,)) if left != 1 else SCALAR)
    idr = LinMap.identity(f, TensorShape((right,)) if right != 1 else SCALAR)
    incl = kron_all(idl, src.relations.inclusion(), idr)
    if src.relations.dim and not raw.compose(incl).is_zero_map():
        raise InconsistencyError("map does not descend to the quotient")
    sec = kron_all(idl, src.section, idr)
    return raw.compose(sec)


def corestrict(raw: LinMap, sub: Subspace, left=1, right=1) -> LinMap:
    """Rewrite raw: D -> L (x) ambient (x) R as a map into the subspace.

    Asserts that the image really lies in L (x) S (x) R.
    """
    f = raw.field
    idl = LinMap.identity(f, TensorShape((left,)) if left != 1 else SCALAR)
    idr = LinMap.identity(f, TensorShape((right,)) if right != 1 else SCALAR)
    retr = kron_all(idl, sub.retraction(), idr)
    incl = kron_all(idl, sub.inclusion(), idr)
    squeezed = retr.compose(raw)
    if not incl.compose(squeezed).equals(raw):
        raise InconsistencyError("image does not lie in the subspace")
    return squeezed


# ---------------------------------------------------------------------------
# affine systems


@dataclass(frozen=True)
class AffineSolutionSet:
    """particular + homogeneous describes every solution of an affine system;
    particular is None exactly when the system is infeasible."""

    particular: tuple | None
    homogeneous: Subspace

    @property
    def feasible(self) -> bool:
        return self.particular is not None

    def contains(self, vec) -> bool:
        if not self.feasible:
            return False
        f = self.homogeneous.field
        diff = tuple(f.sub(a, b) for a, b in zip(vec, self.particular))
        return self.homogeneous.contains(diff)

    def equations(self):
        """(m, b) with exactly this solution set for m x = b: the rows of m
        span the annihilator of the homogeneous part, read off its echelon
        basis without elimination, and b = m . particular."""
        if not self.feasible:
            raise InputError("an infeasible solution set has no equations")
        h = self.homogeneous
        rows = _kernel_from_rref(h.field, h.basis, h.pivots, h.ambient.total)
        m = LinMap.from_rows(h.field, h.ambient, (len(rows),), rows)
        return m, m.apply(self.particular)

    def members(self, coefficient_grids):
        """Yield particular + combinations of the homogeneous basis, with
        coefficients drawn from the cartesian product of the given grids."""
        if not self.feasible:
            return
        f = self.homogeneous.field
        basis = self.homogeneous.basis
        if not basis:
            yield self.particular
            return
        grids = list(coefficient_grids)
        for combo in itertools.product(*grids):
            v = list(self.particular)
            for c, b in zip(combo, basis):
                if c != 0:
                    for i, x in enumerate(b):
                        if x != 0:
                            v[i] = f.add(v[i], f.mul(c, x))
            yield tuple(v)


def solve_affine(m: LinMap, b) -> AffineSolutionSet:
    """All exact solutions of m x = b."""
    b = tuple(b)
    if len(b) != m.rows:
        raise InputError(f"rhs length {len(b)} does not match {m.rows} rows")
    f = m.field
    aug = [row + (bi,) for row, bi in zip(m.entries, b)]
    reduced, pivots = rref(f, aug)
    ncols = m.cols
    if pivots and pivots[-1] == ncols:
        # the last pivot sits in the rhs column: 0 = 1 is implied
        particular = None
        reduced, pivots = reduced[:-1], pivots[:-1]
    else:
        part = [f.zero] * ncols
        for row, p in zip(reduced, pivots):
            part[p] = row[ncols]
        particular = tuple(part)
    # the remaining rows' coefficient blocks are the reduced form of m
    basis = _kernel_from_rref(f, reduced, pivots, ncols)
    return AffineSolutionSet(particular,
                             Subspace.from_vectors(f, m.domain, basis))


def kernel(m: LinMap) -> Subspace:
    """The kernel of a map, as a canonical subspace of its domain."""
    f = m.field
    reduced, pivots = rref(f, m.entries)
    return Subspace.from_vectors(f, m.domain,
                                 _kernel_from_rref(f, reduced, pivots, m.cols))


def image(m: LinMap) -> Subspace:
    """The image of a map, as a canonical subspace of its codomain: the
    reduced span of its columns."""
    return Subspace.from_vectors(m.field, m.codomain, zip(*m.entries))


def kernel_image(m: LinMap):
    """(kernel, image) of a map, both canonical; rank-nullity is checked."""
    ker, im = kernel(m), image(m)
    if ker.dim + im.dim != m.cols:
        raise InconsistencyError("rank-nullity violated")
    return ker, im


def right_inverse(m: LinMap) -> LinMap:
    """A right inverse of a surjective map, from one reduction of [m | I]:
    column t is the solution of m x = e_t that solve_affine returns (zero in
    every free column).  Raises InputError when m is not onto."""
    f = m.field
    n, w = m.rows, m.cols
    one, zero = f.one, f.zero
    aug = [row + tuple(one if i == j else zero for j in range(n))
           for i, row in enumerate(m.entries)]
    reduced, pivots = rref(f, aug)
    if len(pivots) != n or (pivots and pivots[-1] >= w):
        raise InputError("map is not onto")
    rows = [(zero,) * n] * w
    for row, pc in zip(reduced, pivots):
        rows[pc] = row[w:]
    return LinMap(f, m.codomain, m.domain, tuple(rows))


def invert(m: LinMap) -> LinMap:
    """Exact inverse of a bijective map; raises InputError when singular."""
    if m.rows != m.cols:
        raise InputError("only square maps can be inverted")
    return right_inverse(m)


# ---------------------------------------------------------------------------
# linear conditions on an unknown matrix


def op_in_unknown(pre: LinMap, left, x_dom, x_cod, right, post: LinMap) -> LinMap:
    """Matrix of the linear operator X |-> post . (1_L (x) X (x) 1_R) . pre.

    pre maps D into L (x) Xdom (x) R and post maps L (x) Xcod (x) R into E.
    The result sends the row-major vectorization of X (shape (Xcod, Xdom))
    to that of the composite (shape (E, D)).
    """
    f = pre.field
    left, right = _shape(left), _shape(right)
    x_dom, x_cod = _shape(x_dom), _shape(x_cod)
    lt, rt = left.total, right.total
    xd, xc = x_dom.total, x_cod.total
    dd, ee = pre.cols, post.rows
    if pre.rows != lt * xd * rt:
        raise InputError("pre does not land in L (x) Xdom (x) R")
    if post.cols != lt * xc * rt:
        raise InputError("post does not start from L (x) Xcod (x) R")
    p, zero = f.p, f.zero
    pre_nz = [_nonzeros(r, zero) for r in pre.entries]
    d_pre = _denominator(pre_nz, p)
    # pre's nonzeros over d_pre, grouped by the surrounding factors:
    # by_lr[l * rt + rho] = [(s, d, numerator of pre[(l,s,rho)][d]), ...]
    by_lr = {}
    for l in range(lt):
        for s in range(xd):
            base = (l * xd + s) * rt
            for rho in range(rt):
                _, nz = _integral(pre_nz[base + rho], p, d_pre)
                if nz:
                    by_lr.setdefault(l * rt + rho, []).extend(
                        (s, d, w) for d, w in nz)
    # big[(e,d)][(r,s)] = sum over (l,rho) of post[e][(l,r,rho)] * pre[(l,s,rho)][d]
    width = xc * xd
    big = []
    for prow in post.entries:
        d_post, post_nz = _integral(_nonzeros(prow, zero), p)
        acc = [{} for _ in range(dd)]
        for col, v in post_nz:
            lr, rho = divmod(col, rt)
            l, r = divmod(lr, xc)
            for s, d, w in by_lr.get(l * rt + rho, ()):
                cell = acc[d]
                k = r * xd + s
                x = cell.get(k)
                cell[k] = v * w if x is None else x + v * w
        den = d_post * d_pre
        big.extend(_dense_sums(cell, width, den, zero, p) for cell in acc)
    return LinMap(f, TensorShape((xc, xd)), TensorShape((ee, dd)), tuple(big))


@dataclass
class _Block:
    label: str
    matrix: LinMap      # operator on vec(X), rows indexed by (e, d)
    rhs: tuple          # target vector of length matrix.rows
    out_total: int
    in_total: int


class LinearConstraints:
    """Accumulates exact linear conditions on one unknown matrix X and solves
    or checks them; the same assembled system backs both, so solver and
    verifier can never drift apart."""

    def __init__(self, field, x_dom, x_cod):
        self.field = field
        self.x_dom, self.x_cod = _shape(x_dom), _shape(x_cod)
        self.blocks: list[_Block] = []

    def require(self, label, lhs: LinMap, rhs: LinMap | None = None,
                target: LinMap | None = None):
        """Add the condition lhs(X) = rhs(X) + target, all sides optional
        except lhs; lhs/rhs are operators built by op_in_unknown, target is a
        fixed map vectorized as the affine right-hand side."""
        op = lhs if rhs is None else lhs.sub(rhs)
        ee, dd = op.codomain.factors if op.codomain.factors else (1, 1)
        if target is None:
            tvec = (self.field.zero,) * op.rows
        else:
            tvec = target.flat()
            if len(tvec) != op.rows:
                raise InputError("target does not match the constraint block")
        self.blocks.append(_Block(label, op, tvec, ee, dd))

    def assembled(self):
        """The deduplicated system on vec(X); its domain is x_cod (x) x_dom,
        so solution vectors carry the shape of X itself."""
        rows, rhs = [], []
        seen = set()
        zero = self.field.zero
        for blk in self.blocks:
            for r, t in zip(blk.matrix.entries, blk.rhs):
                nz = tuple(_nonzeros(r, zero))
                key = (nz, t)
                if key in seen:
                    continue
                seen.add(key)
                if not nz and not t:
                    continue
                rows.append(r)
                rhs.append(t)
        cod = TensorShape((len(rows),))
        return (LinMap(self.field, self.x_cod.concat(self.x_dom), cod, tuple(rows)),
                tuple(rhs))

    def solve(self) -> AffineSolutionSet:
        m, b = self.assembled()
        return solve_affine(m, b)

    def violations(self, xvec):
        """Per-block first violation: (label, output index, input index)."""
        out = []
        for blk in self.blocks:
            got = blk.matrix.apply(xvec)
            for i, (g, t) in enumerate(zip(got, blk.rhs)):
                if g != t:
                    e, d = divmod(i, blk.in_total)
                    out.append((blk.label, e, d))
                    break
        return out
