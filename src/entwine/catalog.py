"""Deterministic constructors for the example families used by tests and
the command line.

Everything returned here has already passed its own verifier; catalog
construction is pure, so identical parameters give bit-identical payloads.
Cyclic group algebras and their function-algebra duals are the workhorses;
the four-dimensional non-commutative, non-cocommutative Hopf algebra is
available as an extra stress instance behind hopf="sweedler".
"""

from __future__ import annotations

from .errors import InconsistencyError, InputError
from .fields import Field
from .linalg import (LinMap, LinearConstraints, Subspace, SCALAR, compose_all,
                     descend, kron, kron_all, quotient_by)
from .records import Record
from .structures import (Algebra, CheckReport, Coalgebra, dual_swap, law,
                         quotient_coalgebra, verify_algebra, verify_coalgebra)
from .entwining import Entwining, entwine_verified, ground_coalgebra
from .galois import (Coextension, GaloisExtension, build_coextension,
                     build_galois, verify_action)


class HopfData(Record):
    """An algebra and a coalgebra on the same space with an antipode; the
    bialgebra and antipode laws are verified at construction."""

    _fields = ("alg", "coalg", "antipode")

    @property
    def field(self):
        return self.alg.field


class CatalogEntry(Record):
    _fields = ("name", "params", "payload", "extras")

    def __init__(self, name: str, params: dict, payload: object,
                 extras: dict | None = None):
        super().__init__(name, params, payload,
                         {} if extras is None else extras)


def _verify_hopf(h: HopfData) -> None:
    a, c, s = h.alg, h.coalg, h.antipode
    f = a.field
    verify_algebra(a).require()
    verify_coalgebra(c).require()
    ida = a.identity()
    # comultiplication and counit are algebra maps
    tw = LinMap.twist(f, (a.dim,), (a.dim,))
    mult2 = compose_all(kron(a.mult, a.mult), kron_all(ida, tw, ida))
    eps = c.counit_map()
    unit_eps = a.unit_map().compose(eps)
    failures = []
    law(failures, "multiplicative comultiplication", c.comult.compose(a.mult),
        mult2.compose(kron(c.comult, c.comult)))
    law(failures, "multiplicative counit", eps.compose(a.mult), kron(eps, eps))
    law(failures, "unital counit", eps.compose(a.unit_map()),
        LinMap.identity(f, SCALAR))
    law(failures, "left antipode", compose_all(a.mult, kron(s, ida), c.comult),
        unit_eps)
    law(failures, "right antipode", compose_all(a.mult, kron(ida, s), c.comult),
        unit_eps)
    CheckReport("Hopf data", tuple(failures)).require()


# Largest group order of any catalog family (each --n, --na and --nc): every
# family is built on cyclic_group_hopf, and order 16 takes seconds.
MAX_ORDER = 16


def cyclic_group_hopf(n: int, field: Field) -> HopfData:
    """k[C_n] with the group-like coproduct and inversion antipode."""
    if n < 1:
        raise InputError("group order must be positive")
    if n > MAX_ORDER:
        raise InputError(f"group order {n} is above the cap of {MAX_ORDER}")
    one, zero = field.one, field.zero
    rows = [[zero] * (n * n) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[(i + j) % n][i * n + j] = one
    alg = Algebra(n, LinMap.from_rows(field, (n, n), (n,), rows),
                  tuple(one if i == 0 else zero for i in range(n)))
    crows = [[zero] * n for _ in range(n * n)]
    for i in range(n):
        crows[i * n + i][i] = one
    coalg = Coalgebra(n, LinMap.from_rows(field, (n,), (n, n), crows),
                      (one,) * n)
    srows = [[zero] * n for _ in range(n)]
    for i in range(n):
        srows[(-i) % n][i] = one
    h = HopfData(alg, coalg, LinMap.from_rows(field, (n,), (n,), srows))
    _verify_hopf(h)
    return h


def function_group_hopf(n: int, field: Field) -> HopfData:
    """Functions on C_n: pointwise product, convolution-dual coproduct."""
    g = cyclic_group_hopf(n, field)
    h = HopfData(dual_swap(g.coalg), dual_swap(g.alg), g.antipode.transpose())
    _verify_hopf(h)
    return h


def sweedler_hopf(field: Field) -> HopfData:
    """The four-dimensional Hopf algebra on 1, s, t, st with s*s = 1,
    t*t = 0 and t*s = -s*t; needs characteristic different from 2."""
    if field.kind == "Fp" and field.p == 2:
        raise InputError("this Hopf algebra degenerates in characteristic 2")
    one, zero = field.one, field.zero
    neg = field.neg(one)
    d = 4
    # basis order: 1, s, t, st
    table = {}
    for j in range(d):
        table[(0, j)] = {j: one}
        table[(j, 0)] = {j: one}
    table[(1, 1)] = {0: one}
    table[(1, 2)] = {3: one}
    table[(1, 3)] = {2: one}
    table[(2, 1)] = {3: neg}
    table[(2, 2)] = {}
    table[(2, 3)] = {}
    table[(3, 1)] = {2: neg}
    table[(3, 2)] = {}
    table[(3, 3)] = {}
    rows = [[zero] * (d * d) for _ in range(d)]
    for (i, j), out in table.items():
        for k, v in out.items():
            rows[k][i * d + j] = v
    alg = Algebra(d, LinMap.from_rows(field, (d, d), (d,), rows),
                  (one, zero, zero, zero))
    # coproduct: s group-like, t skew-primitive over s
    crows = [[zero] * d for _ in range(d * d)]
    crows[0 * d + 0][0] = one                       # 1 -> 1 (x) 1
    crows[1 * d + 1][1] = one                       # s -> s (x) s
    crows[2 * d + 0][2] = one                       # t -> t (x) 1 + s (x) t
    crows[1 * d + 2][2] = one
    crows[3 * d + 1][3] = one                       # st -> st (x) s + 1 (x) st
    crows[0 * d + 3][3] = one
    coalg = Coalgebra(d, LinMap.from_rows(field, (d,), (d, d), crows),
                      (one, one, zero, zero))
    srows = [[zero] * d for _ in range(d)]
    srows[0][0] = one
    srows[1][1] = one
    srows[3][2] = neg                               # t -> -st
    srows[2][3] = one                               # st -> t
    h = HopfData(alg, coalg, LinMap.from_rows(field, (d,), (d,), srows))
    _verify_hopf(h)
    return h


def _char_warning(n: int, field: Field):
    if field.kind == "Fp" and n % field.p == 0:
        return [f"characteristic {field.p} divides the group order {n}"]
    return []


def _order(params, key, default):
    # a plain int only: int() would read 2.9 as 2 and True as 1
    n = params.get(key, default)
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"{key} must be an integer, got {n!r}")
    return n


# the parameters each family reads, besides field; with hopf given, the
# two families that take it do not read n
FAMILY_KEYS = {
    "group_algebra": {"n", "hopf"},
    "group_function_coalgebra": {"n"},
    "hopf_self_galois": {"n", "hopf"},
    "hopf_quotient_galois": {"n", "d"},
    "comodule_algebra_entwining": {"n"},
    "self_coextension": {"n", "dual"},
    "trivial_entwining": {"n"},
    "flip_entwining": {"na", "nc"},
}


def make_example(name: str, params: dict) -> CatalogEntry:
    """Build one catalog entry; every payload is verifier-clean.  A
    parameter the family does not read is an InputError, not ignored."""
    params = dict(params)
    field = params.get("field", None)
    if not isinstance(field, Field):
        raise InputError("params must include a field")
    if name not in FAMILY_KEYS:
        raise InputError(f"unknown catalog name {name!r}")
    hopf = params.get("hopf")
    reads = FAMILY_KEYS[name] - ({"n"} if hopf is not None else set())
    unread = sorted(params.keys() - reads - {"field"})
    if unread:
        raise InputError(f"{name} does not read {', '.join(unread)}"
                         f"{' with hopf' if hopf is not None else ''} "
                         f"(it reads {', '.join(sorted(reads))})")
    if hopf is not None and hopf != "sweedler":
        raise InputError(f"unknown hopf {hopf!r}; only 'sweedler' is known")
    if not isinstance(params.get("dual", False), bool):
        raise InputError(f"dual must be true or false, got {params['dual']!r}")

    if name == "group_algebra":
        if hopf:
            return CatalogEntry(name, params, sweedler_hopf(field))
        n = _order(params, "n", 2)
        payload = cyclic_group_hopf(n, field)
        return CatalogEntry(name, params, payload,
                            {"warnings": _char_warning(n, field)})

    if name == "group_function_coalgebra":
        n = _order(params, "n", 2)
        payload = function_group_hopf(n, field)
        return CatalogEntry(name, params, payload,
                            {"warnings": _char_warning(n, field)})

    if name == "hopf_self_galois":
        h = sweedler_hopf(field) if hopf else \
            cyclic_group_hopf(_order(params, "n", 2), field)
        ext = build_galois(h.alg, h.coalg,
                           h.coalg.comult.reshaped((h.alg.dim,),
                                                   (h.alg.dim, h.coalg.dim)))
        return CatalogEntry(name, params, ext, {"hopf": h})

    if name == "hopf_quotient_galois":
        return _hopf_quotient_galois(params, field)

    if name == "comodule_algebra_entwining":
        return _comodule_algebra_entwining(params, field)

    if name == "self_coextension":
        n = _order(params, "n", 2)
        h = function_group_hopf(n, field) if params.get("dual") else \
            cyclic_group_hopf(n, field)
        coext = build_coextension(h.coalg, h.alg,
                                  h.alg.mult.reshaped((h.coalg.dim, h.alg.dim),
                                                      (h.coalg.dim,)))
        return CatalogEntry(name, params, coext, {"hopf": h})

    if name == "trivial_entwining":
        n = _order(params, "n", 2)
        h = cyclic_group_hopf(n, field)
        ent = entwine_verified(h.alg, ground_coalgebra(field),
                               LinMap.twist(field, (1,), (n,)))
        return CatalogEntry(name, params, ent)

    # flip_entwining, the last name in FAMILY_KEYS
    na = _order(params, "na", 2)
    nc = _order(params, "nc", 2)
    ha = cyclic_group_hopf(na, field)
    hc = cyclic_group_hopf(nc, field)
    ent = entwine_verified(ha.alg, hc.coalg, LinMap.twist(field, (nc,), (na,)))
    return CatalogEntry(name, params, ent)


def _hopf_quotient_galois(params, field) -> CatalogEntry:
    n = _order(params, "n", 4)
    d = _order(params, "d", 2)
    if n < 1 or d < 1 or n % d != 0:
        raise InputError("quotient data needs d dividing n")
    h = cyclic_group_hopf(n, field)
    f = field
    one, zero = f.one, f.zero
    # right ideal and coideal spanned by (s^{jd} - 1) s^i
    spanners = []
    for j in range(1, n // d):
        for i in range(n):
            v = [zero] * n
            v[(j * d + i) % n] = one
            v[i] = f.sub(v[i], one)
            spanners.append(tuple(v))
    ideal = Subspace.from_vectors(f, (n,), spanners)
    quot_coalg, proj = quotient_coalgebra(h.coalg, ideal)
    # quotient action [x].a = [x a], well defined because the span is a
    # right ideal; descend checks that
    rho_c = descend(proj.compose(h.alg.mult), quotient_by(ideal), right=n)
    verify_action(h.alg, rho_c).require()
    rho_a = kron(h.alg.identity(), proj).compose(h.coalg.comult)
    ext = build_galois(h.alg, quot_coalg, rho_a)
    # the fixed subalgebra must be exactly the subgroup algebra
    expected = Subspace.from_vectors(f, (n,), [
        tuple(one if t == (j * d) % n else zero for t in range(n))
        for j in range(n // d)])
    if ext.fixed.basis != expected.basis:
        raise InputError("fixed subalgebra is not the subgroup algebra")
    # the entwining must agree with s (x) a -> a1 (x) s.a2
    expected_psi = compose_all(kron(h.alg.identity(), rho_c),
                               kron(LinMap.twist(f, (quot_coalg.dim,), (n,)),
                                    h.alg.identity()),
                               kron(LinMap.identity(f, (quot_coalg.dim,)),
                                    h.coalg.comult))
    failures = []
    law(failures, "canonical entwining", ext.ent.psi, expected_psi)
    CheckReport("quotient datum", tuple(failures)).require(InconsistencyError)
    # invariant of the quotient coalgebra, when the characteristic allows it:
    # x . a = eps(a) x for every a in H, and eps(x) = 1
    qshape = (quot_coalg.dim,)
    sys = LinearConstraints(f, SCALAR, qshape)
    acted = (h.alg.identity(), SCALAR, (n,), rho_c)
    kept = (h.coalg.counit_map(), SCALAR, SCALAR, LinMap.identity(f, qshape))
    sys.require("invariance", acted, kept)
    sys.require("normalisation",
                (LinMap.identity(f, SCALAR), SCALAR, SCALAR,
                 quot_coalg.counit_map()),
                target=LinMap.identity(f, SCALAR))
    sol = sys.solve()
    extras = {"hopf": h, "projection": proj, "action": rho_c,
              "invariant": sol.particular if sol.feasible else None,
              "warnings": [] if sol.feasible else
              ["no normalised invariant element in this characteristic"]}
    return CatalogEntry("hopf_quotient_galois", params, ext, extras)


def _comodule_algebra_entwining(params, field) -> CatalogEntry:
    n = _order(params, "n", 2)
    h = cyclic_group_hopf(n, field)
    f = field
    coaction = h.coalg.comult.reshaped((n,), (n, n))
    # psi(c (x) a) = a0 (x) c a1 through the coaction and the product of C
    psi = compose_all(kron(h.alg.identity(), h.alg.mult),
                      kron(LinMap.twist(f, (n,), (n,)), h.coalg.identity()),
                      kron(h.coalg.identity(), coaction))
    psi = psi.reshaped((n, n), (n, n))
    ent = entwine_verified(h.alg, h.coalg, psi)
    kappa = tuple(f.one if i == 0 else f.zero for i in range(n))
    extras = {"hopf": h, "coactionA": coaction, "kappa": kappa,
              "c_unit": tuple(h.alg.unit)}
    return CatalogEntry("comodule_algebra_entwining", params, ent, extras)


def default_catalog(field: Field) -> list:
    """The small battery every property test sweeps."""
    entries = [
        make_example("trivial_entwining", {"field": field, "n": 2}),
        make_example("flip_entwining", {"field": field, "na": 2, "nc": 2}),
        make_example("flip_entwining", {"field": field, "na": 2, "nc": 3}),
        make_example("hopf_self_galois", {"field": field, "n": 2}),
        make_example("hopf_self_galois", {"field": field, "n": 3}),
        make_example("self_coextension", {"field": field, "n": 2}),
        make_example("comodule_algebra_entwining", {"field": field, "n": 3}),
    ]
    entries.append(make_example("hopf_quotient_galois",
                                {"field": field, "n": 4, "d": 2}))
    entries.append(make_example("self_coextension",
                                {"field": field, "n": 2, "dual": True}))
    return entries


def entwining_of(entry: CatalogEntry) -> Entwining:
    """The entwining structure carried by any catalog payload."""
    p = entry.payload
    if isinstance(p, Entwining):
        return p
    if isinstance(p, (GaloisExtension, Coextension)):
        return p.ent
    raise InputError(f"catalog entry {entry.name!r} carries no entwining")
