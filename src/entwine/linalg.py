"""Exact linear algebra on tensor-shaped spaces.

Everything here is immutable and pure.  Vectors are dense tuples of
scalars.  A tensor shape is a plain tuple of factor dimensions, () for the
ground field: shapes concatenate with +, a shape's total dimension is
math.prod of it, and maps carry the shapes of their domain and codomain.
Index flattening is row-major throughout (leftmost factor most
significant).  There is no floating point anywhere; no tolerances, ever.

Every matrix has one stored form over every field: for each codomain row,
the (column, n) pairs of its nonzero entries in increasing column order,
each n an int, over one positive denominator den per map, so the entry is
n / den.  Over F_p, n lies in [1, p) and den is 1; over Q, den and the
numerators share no factor, so equal maps have equal records.  Products,
sums, elimination and the solvers run on those ints alone, and values
(Fractions over Q) appear only in two boundary helpers: `_stored` reads
dense values (`from_rows`, `from_flat`, `element`, `functional`,
`Subspace.from_vectors`, a right-hand side) and `_values` writes them
(`entries`, `flat`, `column`, `apply`, `Subspace.basis`, a particular
solution) for printing, JSON and callers that index vectors.

`LinMap.compose` is the one product of maps that multiplies: it
multiplies numerators and divides one gcd into the product's den.  `apply`
composes with the vector as a one-column map, and a tensor product of two
factors that both hold values is (f (x) 1) . (1 (x) g).  A product with an
identity or unit-selection factor (every row empty or a single 1,
`_unit_selection`; on the right, no two rows picking one column) only moves
numerators, and its result is the same canonical record.  `compose_all`
multiplies the adjacent pair with the fewest multiply-adds first.  Every
elimination goes through one Gauss-Jordan routine, `rref`, on rows of
numerators, since a row space does not depend on how its rows are scaled;
its result is the unique reduced row echelon form, so every subspace,
kernel, image and solution set is canonical however it was computed.

A linear condition on an unknown matrix X says that signed sums of
composites post . (1_L (x) X (x) 1_R) . pre agree.  Each composite is
written as the tuple (pre, L, R, post), and `op_in_unknown` assembles a
condition's list of (+1 or -1, composite) in one pass, on one common
denominator; no operator is built for one side alone.  The Hochschild
coboundaries of `hochschild` are assembled by the same call.

A subspace is the map whose rows are its reduced echelon basis, one `rref`
of all its generators, sums included.  A vector or a map lies in it
exactly when incl . retr fixes it, incl and retr its inclusion and
pivot-coordinate retraction, each built once.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import CheckFailure, InputError, InconsistencyError
from .fields import Field
from .records import Record, _set


# ---------------------------------------------------------------------------
# shapes


SCALAR = ()


def unflatten(shape, flat: int) -> tuple:
    """The multi-index at row-major position flat of a tensor shape."""
    out = []
    for f in reversed(shape):
        flat, i = divmod(flat, f)
        out.append(i)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# the boundary between values and the stored form


def _stored(field, rows):
    """(nonzeros, den), the stored form of dense rows of values: each row's
    (column, numerator) pairs over den, the least common denominator of
    every value (1 over F_p, where the values are the numerators)."""
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    if field.p is not None:
        return tuple(map(tuple, sparse)), 1
    den = lcm(*{x.denominator for nz in sparse for _, x in nz})
    return tuple(tuple([(j, x.numerator * (den // x.denominator))
                        for j, x in nz]) for nz in sparse), den


def _values(field, nz, den, width):
    """The dense vector of length width holding n / den at each (j, n) in
    nz, and the field's shared zero elsewhere."""
    out = [field.zero] * width
    rational = field.p is None
    for j, n in nz:
        out[j] = Fraction(n, den) if rational else n
    return tuple(out)


# ---------------------------------------------------------------------------
# integer rows


def _unit_selection(m):
    """The column each row of m selects (None for an empty row) when every
    row is empty or a single 1, as in identities, twists, sections and
    retractions; None otherwise, found at the first row that is neither."""
    if m.den != 1:
        return None
    picked = []
    for nz in m.nonzeros:
        if not nz:
            picked.append(None)
        elif len(nz) == 1 and nz[0][1] == 1:
            picked.append(nz[0][0])
        else:
            return None
    return picked


def _sparse_sums(sums, p):
    """A sparse row from {column: integer}, each sum reduced mod p over
    F_p; sums that are 0 are dropped."""
    if p is None:
        return tuple((j, x) for j in sorted(sums) if (x := sums[j]))
    return tuple((j, x) for j in sorted(sums) if (x := sums[j] % p))


# ---------------------------------------------------------------------------
# linear maps


class LinMap(Record):
    """An exact matrix with tensor-shaped domain and codomain.

    nonzeros[r] holds the nonzero entries of codomain row r as (column, n)
    pairs in increasing column order, n an int; the value at (r, c) is n /
    den, the coefficient of codomain basis vector r in the image of domain
    basis vector c.  The constructor divides out any factor den shares
    with every numerator, so equal maps have equal records."""

    _fields = ("field", "domain", "codomain", "nonzeros", "den")

    def __init__(self, field: Field, domain: tuple, codomain: tuple,
                 nonzeros: tuple, den: int = 1):
        if len(nonzeros) != prod(codomain):
            raise InputError(
                f"{len(nonzeros)} rows for codomain of total {prod(codomain)}")
        if den != 1:
            g = gcd(den, *[n for nz in nonzeros for _, n in nz])
            if g != 1:
                den //= g
                nonzeros = tuple([tuple([(j, n // g) for j, n in nz])
                                  for nz in nonzeros])
        _set(self, "field", field)
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)
        _set(self, "nonzeros", nonzeros)
        _set(self, "den", den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(field, domain, codomain, rows) -> "LinMap":
        """The map with the given dense rows."""
        rows = [tuple(r) for r in rows]
        if len(rows) != prod(codomain):
            raise InputError(
                f"{len(rows)} rows for codomain of total {prod(codomain)}")
        n = prod(domain)
        for length in set(map(len, rows)):
            if length != n:
                raise InputError(f"row of length {length} for domain of total {n}")
        return LinMap(field, domain, codomain, *_stored(field, rows))

    @staticmethod
    def identity(field, shp) -> "LinMap":
        return LinMap(field, shp, shp, tuple(((i, 1),) for i in range(prod(shp))))

    @staticmethod
    def zero(field, domain, codomain) -> "LinMap":
        return LinMap(field, domain, codomain, ((),) * prod(codomain))

    @staticmethod
    def element(field, shp, vec) -> "LinMap":
        """A vector as a map from the ground field, k -> V."""
        if len(vec) != prod(shp):
            raise InputError("element length does not match shape")
        return LinMap(field, SCALAR, shp, *_stored(field, [(v,) for v in vec]))

    @staticmethod
    def from_flat(field, domain, codomain, vec) -> "LinMap":
        """The map whose row-major vectorization is vec; inverse of flat."""
        w, h = prod(domain), prod(codomain)
        if len(vec) != w * h:
            raise InputError("vector length does not match the map shape")
        return LinMap(field, domain, codomain, *_stored(
            field, [vec[r * w:(r + 1) * w] for r in range(h)]))

    @staticmethod
    def functional(field, shp, covec) -> "LinMap":
        """A covector as a map to the ground field, V -> k."""
        if len(covec) != prod(shp):
            raise InputError("functional length does not match shape")
        return LinMap(field, shp, SCALAR, *_stored(field, [covec]))

    @staticmethod
    def twist(field, left, right) -> "LinMap":
        """The flip V (x) W -> W (x) V on basis vectors."""
        nl, nr = prod(left), prod(right)
        rows = tuple(((i * nr + j, 1),) for j in range(nr) for i in range(nl))
        return LinMap(field, left + right, right + left, rows)

    # -- basics --------------------------------------------------------------

    @property
    def rows(self) -> int:
        return prod(self.codomain)

    @property
    def cols(self) -> int:
        return prod(self.domain)

    @property
    def entries(self) -> tuple:
        """Dense rows, built on each read: entries[r][c] is the coefficient
        of codomain basis vector r in the image of domain basis vector c."""
        f, den, w = self.field, self.den, self.cols
        return tuple(_values(f, nz, den, w) for nz in self.nonzeros)

    def reshaped(self, domain=None, codomain=None) -> "LinMap":
        """Reinterpret the tensor factorization without touching entries."""
        domain = self.domain if domain is None else domain
        codomain = self.codomain if codomain is None else codomain
        if prod(domain) != self.cols or prod(codomain) != self.rows:
            raise InputError("reshape must preserve total dimensions")
        return LinMap(self.field, domain, codomain, self.nonzeros, self.den)

    def apply(self, vec):
        """The image of vec: `compose`, the one product that multiplies,
        with vec as a one-column map (`LinMap.element`), and the single
        column read off the rows."""
        if len(vec) != self.cols:
            raise InputError(f"vector of length {len(vec)} for domain {self.cols}")
        return self.compose(LinMap.element(self.field, self.domain, vec)).column(0)

    def _flat_nonzeros(self) -> list:
        """The (row-major position, numerator) pairs of the nonzeros."""
        w = self.cols
        return [(r * w + j, n) for r, nz in enumerate(self.nonzeros) for j, n in nz]

    def flat(self) -> tuple:
        """Row-major vectorization of the matrix; inverse of from_flat."""
        return _values(self.field, self._flat_nonzeros(), self.den,
                       self.rows * self.cols)

    def column(self, c: int):
        return _values(self.field, [(r, n) for r, nz in enumerate(self.nonzeros)
                                    for j, n in nz if j == c],
                       self.den, self.rows)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other (matrix product self . other)."""
        if self.field != other.field:
            raise InputError("field mismatch in composition")
        if self.cols != other.rows:
            raise InputError(
                f"composition shape mismatch: {self.domain} vs {other.codomain}")
        f = self.field
        picked = _unit_selection(self)
        if picked is not None:
            # each row of self picks one row of other, or none
            rows = [() if k is None else other.nonzeros[k] for k in picked]
            return LinMap(f, other.domain, self.codomain, tuple(rows), other.den)
        picked = _unit_selection(other)
        if picked is not None:
            hit = [j for j in picked if j is not None]
            if len(set(hit)) == len(hit):
                # other sends basis vector k to basis vector picked[k], no
                # two to the same one: rename the columns of self
                rows = [tuple(sorted([(picked[k], a) for k, a in nz
                                      if picked[k] is not None]))
                        for nz in self.nonzeros]
                return LinMap(f, other.domain, self.codomain, tuple(rows),
                              self.den)
        p = f.p
        other_nz = other.nonzeros
        out = []
        for nz in self.nonzeros:
            if not nz:
                out.append(())
                continue
            acc = {}
            for k, a in nz:
                for j, b in other_nz[k]:
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            out.append(_sparse_sums(acc, p))
        return LinMap(f, other.domain, self.codomain, tuple(out),
                      self.den * other.den)

    def sub(self, other: "LinMap") -> "LinMap":
        """self - other, row by row, on the least common denominator."""
        self._require_parallel(other)
        p = self.field.p
        den = lcm(self.den, other.den)
        s1, s2 = den // self.den, den // other.den
        rows = []
        for r1, r2 in zip(self.nonzeros, other.nonzeros):
            acc = {j: x * s1 for j, x in r1}
            for j, b in r2:
                acc[j] = acc.get(j, 0) - b * s2
            rows.append(_sparse_sums(acc, p))
        return LinMap(self.field, self.domain, self.codomain, tuple(rows), den)

    def transpose(self) -> "LinMap":
        cols = [[] for _ in range(self.cols)]
        for i, nz in enumerate(self.nonzeros):
            for j, x in nz:
                cols[j].append((i, x))
        return LinMap(self.field, self.codomain, self.domain,
                      tuple(map(tuple, cols)), self.den)

    def _require_parallel(self, other):
        if self.field != other.field:
            raise InputError("field mismatch")
        if self.cols != other.cols or self.rows != other.rows:
            raise InputError("shape totals differ")

    def equals(self, other: "LinMap") -> bool:
        """Entrywise equality; factorizations may differ but totals must agree."""
        self._require_parallel(other)
        return self.den == other.den and self.nonzeros == other.nonzeros

    def is_zero_map(self) -> bool:
        return not any(self.nonzeros)

    def first_difference(self, other: "LinMap"):
        """First (column, row) where the matrices differ, scanning columns
        lexicographically; None if equal."""
        if self.equals(other):
            return None
        sa, sb = other.den, self.den      # a / sb = b / sa iff a sa = b sb
        diffs = []
        for r, (a, b) in enumerate(zip(self.nonzeros, other.nonzeros)):
            da, db = {j: x * sa for j, x in a}, {j: x * sb for j, x in b}
            bad = [j for j in da.keys() | db.keys() if da.get(j) != db.get(j)]
            if bad:
                diffs.append((min(bad), r))
        return min(diffs)

    def __repr__(self):
        return f"LinMap({self.field}, {self.domain}->{self.codomain})"


def kron(f: LinMap, g: LinMap) -> LinMap:
    """Tensor product of maps; shapes concatenate, flattening is row-major.

    With a unit-selection factor the entries of the other are moved, with
    no arithmetic; otherwise it is (f (x) 1) . (1 (x) g), and `compose`,
    the one product that multiplies, does the products."""
    if f.field != g.field:
        raise InputError("field mismatch in tensor product")
    domain, codomain = f.domain + g.domain, f.codomain + g.codomain
    gc = g.cols
    f_picked = _unit_selection(f)
    g_picked = _unit_selection(g)
    if f_picked is not None and g_picked is not None:
        # a unit selection again: row (i1, i2) picks column (j1, j2)
        rows = [() if j1 is None or j2 is None else ((j1 * gc + j2, 1),)
                for j1 in f_picked for j2 in g_picked]
        return LinMap(f.field, domain, codomain, tuple(rows))
    if f_picked is not None:
        # row (i1, i2) is row i2 of g moved into column block j1
        rows = []
        for j1 in f_picked:
            if j1 is None:
                rows.extend([()] * g.rows)
            elif j1 == 0:
                rows.extend(g.nonzeros)
            else:
                base = j1 * gc
                rows.extend([tuple([(base + j2, b) for j2, b in grow])
                             for grow in g.nonzeros])
        return LinMap(f.field, domain, codomain, tuple(rows), g.den)
    if g_picked is not None:
        # row (i1, i2) is row i1 of f spread to columns (j1, j2)
        rows = []
        for fnz in f.nonzeros:
            rows.extend([() if j2 is None
                         else tuple([(j1 * gc + j2, a) for j1, a in fnz])
                         for j2 in g_picked])
        return LinMap(f.field, domain, codomain, tuple(rows), f.den)
    # each factor of (f (x) 1) . (1 (x) g) is a move above
    return kron(f, LinMap.identity(f.field, g.codomain)).compose(
        kron(LinMap.identity(f.field, f.domain), g))


def kron_all(*maps) -> LinMap:
    out = maps[0]
    for m in maps[1:]:
        out = kron(out, m)
    return out


def _product_cost(f: LinMap, g: LinMap) -> int:
    """Multiply-adds of f . g read off the sparse rows: for each nonzero
    (r, k) of f, the nonzeros of row k of g."""
    sizes = [len(nz) for nz in g.nonzeros]
    return sum([sizes[k] for nz in f.nonzeros for k, _ in nz])


def compose_all(*maps) -> LinMap:
    """compose_all(f, g, h) = f . g . h (rightmost applied first).

    The shapes are checked left to right first, so a mismatch raises what
    the left-to-right product would; then the adjacent pair with the
    fewest multiply-adds (_product_cost) is multiplied first, until one
    map is left.  Every order gives the same exact, canonical rows."""
    for f, g in zip(maps, maps[1:]):
        if f.field != g.field:
            raise InputError("field mismatch in composition")
        if f.cols != g.rows:
            raise InputError(
                f"composition shape mismatch: {f.domain} vs {g.codomain}")
    maps = list(maps)
    while len(maps) > 2:
        costs = [_product_cost(f, g) for f, g in zip(maps, maps[1:])]
        i = costs.index(min(costs))
        maps[i:i + 2] = [maps[i].compose(maps[i + 1])]
    return maps[0] if len(maps) == 1 else maps[0].compose(maps[1])


# ---------------------------------------------------------------------------
# row reduction


def _row_ops(field):
    """(eliminate, pivot, finish) on sparse rows {column: nonzero int},
    with the field's arithmetic chosen once.

    eliminate(row, c, piv) is row with its column c cleared by the pivot
    row piv of pivot column c; pivot(row) is the stored form of a new pivot
    row; finish(reduced, pivots) is (rows, den), the pivot rows in order
    in the stored form, every pivot entry equal to den.

    Over Q every stored row is the primitive integer multiple of its
    reduced row (integer entries with gcd 1, the pivot left unscaled), in
    the manner of fraction-free elimination (Bareiss 1968): eliminate
    replaces row by (piv[c] row - row[c] piv) / g, g the gcd of the
    result, and finish puts every row over the lcm of the pivots.  Over F_p
    a stored row is its reduced row itself, pivot 1, updated with modular
    row operations."""
    p = field.p
    if p is None:
        def eliminate(row, c, piv):
            a, b = piv[c], row[c]
            g = gcd(a, b)
            if a < 0:
                # a positive multiplier, so a pivot of -1 also skips the
                # rescale below
                g = -g
            if g != 1:
                a, b = a // g, b // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            b = -b
            for j, v in piv.items():
                x = row.get(j)
                if x is None:
                    row[j] = b * v
                else:
                    x += b * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            return pivot(row)

        def pivot(row):
            g = gcd(*row.values())
            if g == 1:
                return row
            return {j: x // g for j, x in row.items()}

        def finish(reduced, pivots):
            # a primitive row's reduced entries have the least common
            # denominator |pivot|, so den is canonical
            den = lcm(*[reduced[c][c] for c in pivots])
            out = []
            for c in pivots:
                row = reduced[c]
                s = den // row[c]
                out.append(tuple([(j, row[j] * s) for j in sorted(row)]))
            return out, den
    else:
        def eliminate(row, c, piv):
            a = p - row[c]
            for j, v in piv.items():
                x = row.get(j)
                if x is None:
                    row[j] = a * v % p
                else:
                    x = (x + a * v) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            return row

        def pivot(row):
            c = min(row)
            if row[c] == 1:
                return row
            a = field.inv(row[c])
            return {j: a * x % p for j, x in row.items()}

        def finish(reduced, pivots):
            return [tuple(sorted(reduced[c].items())) for c in pivots], 1
    return eliminate, pivot, finish


def rref(field, rows):
    """Reduced row echelon form over an exact field.

    rows is a list of sparse rows of numerators, each a sequence of
    (column, nonzero int) pairs, in [1, p) over F_p; each row may carry
    any nonzero scale of its own.  Returns (rows, den, pivot_columns): the
    reduced rows in the stored form, tuples of (column, numerator) pairs
    over den in increasing column order; zero rows are dropped and every
    pivot is normalized to 1 (numerator den) with zeros above and below.

    Gauss-Jordan: each input row is reduced by the pivot rows found so far;
    its leftmost remaining entry becomes a new pivot, and that column is
    cleared from the earlier pivot rows, so the pivot rows stay fully
    reduced throughout.  `_row_ops` supplies the row arithmetic: primitive
    integer rows over Q, modular rows over F_p.

    A column index, holders[j], names the pivot rows that may hold the
    non-pivot column j: it may name extra rows (an entry can cancel) but
    never misses one.  A new pivot c is cleared only from the rows
    holders.pop(c) names, and each of them may then hold every column of
    the new pivot row (fill-in), as that row itself does.

    The reduced row echelon form of a row space is unique, so the result
    does not depend on the order of the input rows, on how they were
    scaled, or on which rows were cleared in which order.
    """
    eliminate, pivot, finish = _row_ops(field)
    reduced = {}                     # pivot column -> stored pivot row
    holders = defaultdict(set)       # column -> pivot columns that may hold it
    for sparse in rows:
        row = dict(sparse)
        for c in row.keys() & reduced.keys():
            row = eliminate(row, c, reduced[c])
        if not row:
            continue
        c = min(row)
        row = pivot(row)
        held = holders.pop(c, None)
        if held:
            for k in held:
                other = reduced[k]
                if c in other:
                    reduced[k] = eliminate(other, c, row)
            held.add(c)
            for j in row:
                holders[j] |= held
        else:
            for j in row:
                holders[j].add(c)
        del holders[c]
        reduced[c] = row
    pivots = sorted(reduced)
    out, den = finish(reduced, pivots)
    return out, den, pivots


def _kernel_from_rref(field, reduced, den, pivots, ncols):
    """Kernel basis of a reduced matrix over den, as sparse rows of
    numerators: one vector per free column, set to 1 there (numerator den);
    columns from ncols on are ignored."""
    pivot_set = set(pivots)
    basis = {c: [(c, den)] for c in range(ncols) if c not in pivot_set}
    for row, pc in zip(reduced, pivots):
        for j, x in row:
            if pc < j < ncols:
                basis[j].append((pc, field.neg(x)))
    return [tuple(sorted(v)) for v in basis.values()]


# ---------------------------------------------------------------------------
# subspaces


class Subspace(Record):
    """A subspace given by its reduced row echelon basis, held as the map
    echelon: ambient -> k^dim whose rows are the basis vectors; the
    canonical form makes equality of subspaces plain equality of records.
    Each span is one `rref`; incl and retr are built once."""

    _fields = ("echelon", "pivots")

    @staticmethod
    def from_vectors(field, ambient, vectors) -> "Subspace":
        vecs = [tuple(v) for v in vectors]
        n = prod(ambient)
        for v in vecs:
            if len(v) != n:
                raise InputError("spanning vector does not match ambient shape")
        return Subspace.span(field, ambient, _stored(field, vecs)[0])

    @staticmethod
    def span(field, ambient, rows) -> "Subspace":
        """The span of a list of sparse rows of numerators, by one
        elimination."""
        reduced, den, pivots = rref(field, rows)
        return Subspace(LinMap(field, ambient, (len(pivots),), tuple(reduced),
                               den), tuple(pivots))

    @staticmethod
    def zero(field, ambient) -> "Subspace":
        return Subspace(LinMap.zero(field, ambient, (0,)), ())

    @staticmethod
    def full(field, ambient) -> "Subspace":
        n = prod(ambient)
        return Subspace(LinMap.identity(field, ambient).reshaped(codomain=(n,)),
                        tuple(range(n)))

    @property
    def field(self) -> Field:
        return self.echelon.field

    @property
    def ambient(self) -> tuple:
        return self.echelon.domain

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple:
        """The echelon basis as dense vectors, built on each read."""
        m = self.echelon
        return tuple(_values(m.field, nz, m.den, m.cols) for nz in m.nonzeros)

    def contains(self, vec) -> bool:
        """Whether vec lies in S: incl . retr fixes it (`coords`)."""
        return self.coords(vec) is not None

    def coords(self, vec):
        """Coordinates of vec in the echelon basis, retr(vec); None unless
        incl(retr(vec)) = vec, that is, unless vec is a member."""
        coords = self.retraction.apply(vec)
        return coords if self.inclusion.apply(coords) == tuple(vec) else None

    @cached_property
    def inclusion(self) -> LinMap:
        """S -> ambient, basis vectors as columns."""
        return self.echelon.transpose()

    @cached_property
    def retraction(self) -> LinMap:
        """ambient -> S, pivot-coordinate extraction; a left inverse of inclusion."""
        return LinMap(self.field, self.ambient, (self.dim,),
                      tuple(((pc, 1),) for pc in self.pivots))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {prod(self.ambient)})"


# ---------------------------------------------------------------------------
# quotients


class QuotientModule(Record):
    """A quotient of a tensor-shaped space by a subspace of relations.

    Carries an explicit projection and a section (built from the echelon
    pivots of the relations, so the whole construction is deterministic);
    projection . section is the identity on the quotient.
    """

    _fields = ("ambient", "relations", "projection", "section")

    @property
    def dim(self) -> int:
        return self.projection.rows

    def __repr__(self):
        return f"QuotientModule({prod(self.ambient)} -> {self.dim})"


def quotient_by(relations: Subspace) -> QuotientModule:
    f = relations.field
    ambient = relations.ambient
    echelon = relations.echelon
    n = prod(ambient)
    pivot_set = set(relations.pivots)
    complement = [c for c in range(n) if c not in pivot_set]
    q = len(complement)
    qshape = (q,)
    # projection: reduce modulo the relations, then read the complement
    # coords; a complement basis vector reduces to itself, and the pivot-p
    # vector of the echelon basis b reduces to e_p - b (all over den)
    position = {c: t for t, c in enumerate(complement)}
    proj_rows = [[(c, echelon.den)] for c in complement]
    for b, pc in zip(echelon.nonzeros, relations.pivots):
        for c, x in b:
            t = position.get(c)
            if t is not None:
                proj_rows[t].append((pc, f.neg(x)))
    projection = LinMap(f, ambient, qshape,
                        tuple(tuple(sorted(r)) for r in proj_rows), echelon.den)
    sec_rows = [()] * n
    for t, c in enumerate(complement):
        sec_rows[c] = ((t, 1),)
    section = LinMap(f, qshape, ambient, tuple(sec_rows))
    return QuotientModule(ambient, relations, projection, section)


def descend(raw: LinMap, src: QuotientModule, left=1, right=1) -> LinMap:
    """Factor raw: L (x) ambient (x) R -> E through the quotient in the middle.

    Asserts that raw kills the relations (tensored with the identity on the
    surrounding factors); raises InconsistencyError otherwise.
    """
    f = raw.field
    idl = LinMap.identity(f, (left,) if left != 1 else SCALAR)
    idr = LinMap.identity(f, (right,) if right != 1 else SCALAR)
    if src.relations.dim and not raw.compose(
            kron_all(idl, src.relations.inclusion, idr)).is_zero_map():
        raise InconsistencyError("map does not descend to the quotient")
    sec = kron_all(idl, src.section, idr)
    return raw.compose(sec)


def corestrict(raw: LinMap, sub: Subspace, left=1, right=1) -> LinMap:
    """Rewrite raw: D -> L (x) ambient (x) R as a map into the subspace.

    Asserts that the image really lies in L (x) S (x) R.
    """
    f = raw.field
    idl = LinMap.identity(f, (left,) if left != 1 else SCALAR)
    idr = LinMap.identity(f, (right,) if right != 1 else SCALAR)
    retr = kron_all(idl, sub.retraction, idr)
    incl = kron_all(idl, sub.inclusion, idr)
    squeezed = retr.compose(raw)
    if not incl.compose(squeezed).equals(raw):
        raise InconsistencyError("image does not lie in the subspace")
    return squeezed


# ---------------------------------------------------------------------------
# affine systems


class AffineSolutionSet(Record):
    """particular + homogeneous describes every solution of an affine system;
    particular is None exactly when the system is infeasible."""

    _fields = ("particular", "homogeneous")

    @property
    def feasible(self) -> bool:
        return self.particular is not None

    def contains(self, vec) -> bool:
        if len(vec) != prod(self.homogeneous.ambient):
            raise InputError(
                f"vector of length {len(vec)} for ambient {self.homogeneous.ambient}")
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
        e = h.echelon
        rows = _kernel_from_rref(h.field, e.nonzeros, e.den, h.pivots, e.cols)
        m = LinMap(h.field, h.ambient, (len(rows),), tuple(rows), e.den)
        return m, m.apply(self.particular)

    def members(self, coefficient_grids):
        """Yield particular + combinations of the homogeneous basis, with
        coefficients drawn from the cartesian product of the given grids."""
        if not self.feasible:
            return
        f = self.homogeneous.field
        basis = self.homogeneous.basis
        for combo in itertools.product(*coefficient_grids):
            v = list(self.particular)
            for c, b in zip(combo, basis):
                if c != 0:
                    for i, x in enumerate(b):
                        v[i] = f.add(v[i], f.mul(c, x))
            yield tuple(v)


def solve_affine(m: LinMap, b) -> AffineSolutionSet:
    """All exact solutions of m x = b."""
    b = tuple(b)
    if len(b) != m.rows:
        raise InputError(f"rhs length {len(b)} does not match {m.rows} rows")
    f = m.field
    ncols = m.cols
    # [m | b] scaled by both denominators, row i of m's numerators times
    # b's den and b_i's numerator times m's
    (rhs,), b_den = _stored(f, [b])
    rhs = dict(rhs)
    aug = []
    for i, row in enumerate(m.nonzeros):
        if b_den != 1:
            row = tuple([(j, x * b_den) for j, x in row])
        t = rhs.get(i)
        aug.append(row + ((ncols, t * m.den),) if t else row)
    reduced, den, pivots = rref(f, aug)
    if pivots and pivots[-1] == ncols:
        # the last pivot sits in the rhs column: 0 = 1 is implied
        particular = None
        reduced, pivots = reduced[:-1], pivots[:-1]
    else:
        particular = _values(f, [(pc, row[-1][1])
                                 for row, pc in zip(reduced, pivots)
                                 if row[-1][0] == ncols], den, ncols)
    # the remaining rows' coefficient blocks are the reduced form of m
    basis = _kernel_from_rref(f, reduced, den, pivots, ncols)
    return AffineSolutionSet(particular, Subspace.span(f, m.domain, basis))


def kernel(m: LinMap) -> Subspace:
    """The kernel of a map, as a canonical subspace of its domain."""
    f = m.field
    reduced, den, pivots = rref(f, list(m.nonzeros))
    return Subspace.span(f, m.domain,
                          _kernel_from_rref(f, reduced, den, pivots, m.cols))


def image(m: LinMap) -> Subspace:
    """The image of a map, as a canonical subspace of its codomain: the
    reduced span of its columns."""
    return Subspace.span(m.field, m.codomain, list(m.transpose().nonzeros))


def kernel_image(m: LinMap):
    """(kernel, image) of a map, both canonical; rank-nullity is checked."""
    ker, im = kernel(m), image(m)
    if ker.dim + im.dim != m.cols:
        raise InconsistencyError("rank-nullity violated")
    return ker, im


def right_inverse(m: LinMap) -> LinMap:
    """A right inverse of a surjective map, from one reduction of [m | I]
    (its numerators and den I): column t is the solution of m x = e_t that
    solve_affine returns (zero in every free column).  Raises InputError
    when m is not onto."""
    f = m.field
    n, w = m.rows, m.cols
    aug = [row + ((w + i, m.den),) for i, row in enumerate(m.nonzeros)]
    reduced, den, pivots = rref(f, aug)
    if len(pivots) != n or (pivots and pivots[-1] >= w):
        raise InputError("map is not onto")
    rows = [()] * w
    for row, pc in zip(reduced, pivots):
        rows[pc] = tuple((j - w, x) for j, x in row if j >= w)
    return LinMap(f, m.codomain, m.domain, tuple(rows), den)


def invert(m: LinMap) -> LinMap:
    """Exact inverse of a bijective map; raises InputError when singular."""
    if m.rows != m.cols:
        raise InputError("only square maps can be inverted")
    return right_inverse(m)


# ---------------------------------------------------------------------------
# linear conditions on an unknown matrix


def op_in_unknown(x_dom, x_cod, terms) -> LinMap:
    """Matrix of the linear operator

        X |-> sum of sign * post . (1_L (x) X (x) 1_R) . pre

    over the (sign, (pre, L, R, post)) in terms, each sign +1 or -1.  Each
    pre maps D into L (x) Xdom (x) R and each post maps L (x) Xcod (x) R
    into E, with one D and one E for every term.  The result sends the
    row-major vectorization of X (shape (Xcod, Xdom)) to that of the
    composite (shape (E, D)).

    All terms are assembled in one pass, on one common denominator, the
    lcm of each term's pre and post denominators' product: for each row e
    of E, every term's numerator products pre[(l,s,rho)][d] *
    post[e][(l,r,rho)] are summed, with their signs and scales, into the
    (e, d) cells they reach, reduced mod p once over F_p.  Rows no term
    reaches stay empty, and entries that cancel are dropped.
    """
    if not terms:
        raise InputError("a linear condition needs at least one term")
    _, (pre, _, _, post) = terms[0]
    f = pre.field
    xd, xc = prod(x_dom), prod(x_cod)
    nx = xc * xd
    dd, ee = pre.cols, post.rows
    p = f.p
    parts = []                      # (sign, den, by_lr, rt, post rows)
    for sign, (t_pre, t_left, t_right, t_post) in terms:
        if t_pre.field != f or t_post.field != f:
            raise InputError("field mismatch in a linear condition")
        lt, rt = prod(t_left), prod(t_right)
        if t_pre.rows != lt * xd * rt:
            raise InputError("pre does not land in L (x) Xdom (x) R")
        if t_post.cols != lt * xc * rt:
            raise InputError("post does not start from L (x) Xcod (x) R")
        if t_pre.cols != dd or t_post.rows != ee:
            raise InputError("the terms of a linear condition differ in "
                             "domain or codomain")
        # pre's numerators grouped by the surrounding factors:
        # by_lr[l * rt + rho] = [(d * nx + s, numerator of pre[(l,s,rho)][d])]
        by_lr = {}
        for i, nz in enumerate(t_pre.nonzeros):
            if nz:
                ls, rho = divmod(i, rt)
                l, s = divmod(ls, xd)
                by_lr.setdefault(l * rt + rho, []).extend(
                    (d * nx + s, w) for d, w in nz)
        parts.append((sign, t_pre.den * t_post.den, by_lr, rt, t_post.nonzeros))
    den = lcm(*[d for _, d, _, _, _ in parts])
    parts = [(sign * (den // d), by_lr, rt, post_nz)
             for sign, d, by_lr, rt, post_nz in parts]
    big = [()] * (ee * dd)
    for e in range(ee):
        # acc[d * nx + r * xd + s] = numerator over den of cell (e, d) at (r, s)
        acc = {}
        for scale, by_lr, rt, post_nz in parts:
            for col, v in post_nz[e]:
                lr, rho = divmod(col, rt)
                l, r = divmod(lr, xc)
                found = by_lr.get(l * rt + rho)
                if found:
                    v *= scale
                    base = r * xd
                    for key, w in found:
                        key += base
                        x = acc.get(key)
                        acc[key] = v * w if x is None else x + v * w
        for d, cell in itertools.groupby(_sparse_sums(acc, p),
                                         lambda kx: kx[0] // nx):
            off = d * nx
            big[e * dd + d] = tuple([(k - off, x) for k, x in cell])
    return LinMap(f, (xc, xd), (ee, dd), tuple(big), den)


class _Block(Record):
    """One labelled condition of a `LinearConstraints` system."""

    _fields = ("label", "matrix",  # operator on vec(X), rows indexed by (e, d)
               "rhs")              # (e, d) -> k: the target as one row


class LinearConstraints:
    """Accumulates exact linear conditions on one unknown matrix X and solves
    or checks them; the same assembled system backs both, so solver and
    verifier can never drift apart.

    A condition is stated with terms, each a composite post . (1_L (x) X
    (x) 1_R) . pre written as the tuple (pre, L, R, post); `require`
    assembles its two sides' difference in one op_in_unknown call, so no
    operator is built for one side alone."""

    def __init__(self, field, x_dom, x_cod):
        self.field = field
        self.x_dom, self.x_cod = x_dom, x_cod
        self.blocks: list[_Block] = []

    def require(self, label, lhs, rhs=None, target: LinMap | None = None):
        """Add the condition lhs(X) = rhs(X) + target.  lhs and rhs are
        terms (pre, L, R, post) and rhs is optional; lhs - rhs is assembled
        in one pass by op_in_unknown, which checks every term against the
        unknown.  target is a fixed map vectorized as the affine right-hand
        side (zero when omitted)."""
        terms = [(1, lhs)] if rhs is None else [(1, lhs), (-1, rhs)]
        op = op_in_unknown(self.x_dom, self.x_cod, terms)
        if target is None:
            target = LinMap.zero(self.field, op.codomain, SCALAR)
        elif target.rows * target.cols != op.rows:
            raise InputError("target does not match the constraint block")
        row = (tuple(target._flat_nonzeros()),)
        self.blocks.append(_Block(label, op, LinMap(
            self.field, op.codomain, SCALAR, row, target.den)))

    def assembled(self):
        """The deduplicated system on vec(X); its domain is x_cod (x) x_dom,
        so solution vectors carry the shape of X itself.  Rows are compared
        as integers over the blocks' common denominator."""
        den = lcm(*[m.den for blk in self.blocks for m in (blk.matrix, blk.rhs)])
        rows, rhs = [], []
        seen = set()
        for blk in self.blocks:
            s, st = den // blk.matrix.den, den // blk.rhs.den
            target = dict(blk.rhs.nonzeros[0])
            for i, r in enumerate(blk.matrix.nonzeros):
                if s != 1:
                    r = tuple([(j, x * s) for j, x in r])
                key = (r, target.get(i, 0) * st)
                if key in seen:
                    continue
                seen.add(key)
                if r or key[1]:
                    rows.append(r)
                    rhs.append(key[1])
        m = LinMap(self.field, self.x_cod + self.x_dom, (len(rows),), tuple(rows),
                   den)
        return m, _values(self.field, [(i, t) for i, t in enumerate(rhs) if t],
                          den, len(rhs))

    def transposed(self) -> "LinearConstraints":
        """The same conditions stated on the transposed unknown X^T: each
        block is composed with the flip vec(X^T) -> vec(X), a unit
        selection, so only its columns are renamed."""
        out = LinearConstraints(self.field, self.x_cod, self.x_dom)
        flip = LinMap.twist(self.field, (prod(self.x_dom),), (prod(self.x_cod),))
        out.blocks = [_Block(blk.label, blk.matrix.compose(flip), blk.rhs)
                      for blk in self.blocks]
        return out

    def solve(self) -> AffineSolutionSet:
        return solve_affine(*self.assembled())

    def violations(self, xvec) -> list:
        """Per-block first violation, CheckFailure(label, (output index,
        input index)); empty when xvec satisfies every condition.  Each
        block's image of xvec is compared with its target in the stored
        form."""
        x = LinMap.element(self.field, self.x_cod + self.x_dom, xvec)
        out = []
        for blk in self.blocks:
            diff = blk.rhs.first_difference(blk.matrix.compose(x).transpose())
            if diff is not None:
                out.append(CheckFailure(blk.label,
                                        unflatten(blk.matrix.codomain, diff[0])))
        return out
