"""The shared JSON schema ("entwine/1") for structures, witnesses, reports.

Documents are strict: an unknown or repeated key anywhere is an error, so a
certificate can never silently carry unvalidated data.  All matrices are
row-major with codomain-rows x domain-columns; scalars are written as
"num/den" strings over Q (the denominator omitted when 1) and plain integers
in [0, p) over F_p, and read in the grammar that `Field.parse` states.
"""

from __future__ import annotations

import json
from math import prod

from .errors import InputError
from .fields import Field, FieldError, GF, QQ
from .linalg import LinMap
from .structures import Algebra, Coalgebra
from .entwining import Entwining, make_entwining
from .hochschild import Bimodule

SCHEMA = "entwine/1"


class SchemaError(InputError):
    pass


def _need(obj, key, where):
    if key not in obj:
        raise SchemaError(f"missing key {key!r} in {where}")
    return obj[key]


def _need_int(obj, key, where):
    """A required JSON integer; strings, floats and booleans are rejected
    rather than coerced."""
    value = _need(obj, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{key} in {where} must be an integer, got {value!r}")
    return value


def _need_dim(obj, where):
    """The required positive integer "dim" of a section."""
    dim = _need_int(obj, "dim", where)
    if dim < 1:
        raise SchemaError(f"{where} dimension must be positive")
    return dim


def _unique_keys(pairs):
    """The object of json.loads's key-value pairs; json.loads alone would
    keep the last value of a repeated key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise SchemaError(f"repeated key {repeated!r}")
    return obj


def _strict(obj, allowed, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)} in {where}")


def parse_field(obj) -> Field:
    _strict(obj, {"kind", "p"}, "field")
    kind = _need(obj, "kind", "field")
    try:
        if kind == "Q":
            if "p" in obj:
                raise SchemaError("field Q takes no modulus")
            return QQ
        if kind == "Fp":
            return GF(_need_int(obj, "p", "field"))
    except FieldError as exc:
        raise SchemaError(str(exc)) from exc
    raise SchemaError(f"unknown field kind {kind!r}")


def field_to_json(f: Field) -> dict:
    return {"kind": "Q"} if f.kind == "Q" else {"kind": "Fp", "p": f.p}


def parse_scalar(f: Field, raw):
    try:
        return f.parse(raw)
    except FieldError as exc:
        raise SchemaError(str(exc)) from exc


def parse_vector(f: Field, raw, length, where):
    if not isinstance(raw, list) or len(raw) != length:
        raise SchemaError(f"{where} must be a list of length {length}")
    return tuple(parse_scalar(f, x) for x in raw)


def parse_matrix(f: Field, raw, domain, codomain, where) -> LinMap:
    if not isinstance(raw, list) or len(raw) != prod(codomain):
        raise SchemaError(f"{where} must have {prod(codomain)} rows")
    rows = [parse_vector(f, row, prod(domain), f"a row of {where}")
            for row in raw]
    return LinMap.from_rows(f, domain, codomain, rows)


def matrix_to_json(m: LinMap) -> list:
    f = m.field
    return [[f.fmt(x) for x in row] for row in m.entries]


def vector_to_json(f: Field, vec) -> list:
    return [f.fmt(x) for x in vec]


DOCUMENT_KEYS = {"schema", "field", "algebra", "coalgebra", "psi",
                 "coactionA", "actionC", "module", "morphism"}


class InputDocument:
    """A parsed input file; sections are validated but not yet combined."""

    def __init__(self, field, algebra=None, coalgebra=None, psi=None,
                 coaction_a=None, action_c=None, module=None, morphism=None):
        self.field = field
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.psi = psi
        self.coaction_a = coaction_a
        self.action_c = action_c
        self.module = module
        self.morphism = morphism

    def entwining(self) -> Entwining:
        if self.algebra is None or self.coalgebra is None or self.psi is None:
            raise SchemaError("document has no full entwining "
                              "(needs algebra, coalgebra and psi)")
        return make_entwining(self.algebra, self.coalgebra, self.psi)


def parse_document(text) -> InputDocument:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys) \
            if isinstance(text, (str, bytes)) else text
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past Python's digit limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    _strict(obj, DOCUMENT_KEYS, "document")
    if _need(obj, "schema", "document") != SCHEMA:
        raise SchemaError(f"unsupported schema {obj['schema']!r}")
    f = parse_field(_need(obj, "field", "document"))
    doc = InputDocument(f)
    if "algebra" in obj:
        doc.algebra = _parse_algebra(f, obj["algebra"])
    if "coalgebra" in obj:
        doc.coalgebra = _parse_coalgebra(f, obj["coalgebra"])
    if "psi" in obj:
        if doc.algebra is None or doc.coalgebra is None:
            raise SchemaError("psi needs both an algebra and a coalgebra")
        da, dc = doc.algebra.dim, doc.coalgebra.dim
        doc.psi = parse_matrix(f, obj["psi"], (dc, da), (da, dc), "psi")
    if "coactionA" in obj:
        if doc.algebra is None or doc.coalgebra is None:
            raise SchemaError("coactionA needs both an algebra and a coalgebra")
        da, dc = doc.algebra.dim, doc.coalgebra.dim
        doc.coaction_a = parse_matrix(f, obj["coactionA"], (da,), (da, dc),
                                      "coactionA")
    if "actionC" in obj:
        if doc.algebra is None or doc.coalgebra is None:
            raise SchemaError("actionC needs both an algebra and a coalgebra")
        da, dc = doc.algebra.dim, doc.coalgebra.dim
        doc.action_c = parse_matrix(f, obj["actionC"], (dc, da), (dc,),
                                    "actionC")
    if "module" in obj:
        doc.module = _parse_module(f, obj["module"], doc)
    if "morphism" in obj:
        doc.morphism = _parse_morphism(f, obj["morphism"], doc)
    return doc


def parse_bimodule(text, alg: Algebra) -> Bimodule:
    """The (A,A)-bimodule M of a `--bimodule` document over alg."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past Python's digit limit
        raise SchemaError(f"cannot read bimodule file: {exc}") from exc
    _strict(obj, {"schema", "field", "bimodule"}, "bimodule document")
    if obj.get("schema") != SCHEMA:
        raise SchemaError("unsupported schema in bimodule file")
    f = parse_field(_need(obj, "field", "bimodule document"))
    if f != alg.field:
        raise SchemaError("bimodule field does not match the algebra")
    sect = _need(obj, "bimodule", "bimodule document")
    _strict(sect, {"dim", "left", "right"}, "bimodule")
    dim = _need_dim(sect, "bimodule")
    left = parse_matrix(f, _need(sect, "left", "bimodule"), (alg.dim, dim),
                        (dim,), "left")
    right = parse_matrix(f, _need(sect, "right", "bimodule"), (dim, alg.dim),
                         (dim,), "right")
    return Bimodule(dim, left, right)


def _parse_algebra(f, obj) -> Algebra:
    _strict(obj, {"dim", "mult", "unit"}, "algebra")
    dim = _need_dim(obj, "algebra")
    mult = parse_matrix(f, _need(obj, "mult", "algebra"), (dim, dim), (dim,),
                        "mult")
    unit = parse_vector(f, _need(obj, "unit", "algebra"), dim, "unit")
    return Algebra(dim, mult, unit)


def _parse_coalgebra(f, obj) -> Coalgebra:
    _strict(obj, {"dim", "comult", "counit"}, "coalgebra")
    dim = _need_dim(obj, "coalgebra")
    comult = parse_matrix(f, _need(obj, "comult", "coalgebra"), (dim,),
                          (dim, dim), "comult")
    counit = parse_vector(f, _need(obj, "counit", "coalgebra"), dim, "counit")
    return Coalgebra(dim, comult, counit)


def _parse_module(f, obj, doc: InputDocument):
    _strict(obj, {"dim", "action", "coaction"}, "module")
    if doc.algebra is None or doc.coalgebra is None:
        raise SchemaError("module needs both an algebra and a coalgebra")
    dim = _need_dim(obj, "module")
    da, dc = doc.algebra.dim, doc.coalgebra.dim
    action = parse_matrix(f, _need(obj, "action", "module"), (dim, da), (dim,),
                          "module action")
    coaction = parse_matrix(f, _need(obj, "coaction", "module"), (dim,),
                            (dim, dc), "module coaction")
    return dim, action, coaction


def _parse_morphism(f, obj, doc: InputDocument):
    _strict(obj, {"f", "g", "dst"}, "morphism")
    dst_obj = _need(obj, "dst", "morphism")
    _strict(dst_obj, {"algebra", "coalgebra", "psi"}, "morphism dst")
    alg2 = _parse_algebra(f, _need(dst_obj, "algebra", "morphism dst"))
    coalg2 = _parse_coalgebra(f, _need(dst_obj, "coalgebra", "morphism dst"))
    da2, dc2 = alg2.dim, coalg2.dim
    psi2 = parse_matrix(f, _need(dst_obj, "psi", "morphism dst"), (dc2, da2),
                        (da2, dc2), "morphism dst psi")
    if doc.algebra is None or doc.coalgebra is None:
        raise SchemaError("morphism needs the document's algebra and coalgebra")
    fmap = parse_matrix(f, _need(obj, "f", "morphism"), (doc.algebra.dim,),
                        (da2,), "morphism f")
    gmap = parse_matrix(f, _need(obj, "g", "morphism"), (doc.coalgebra.dim,),
                        (dc2,), "morphism g")
    return fmap, gmap, (alg2, coalg2, psi2)


# ---------------------------------------------------------------------------
# emission


def algebra_to_json(a: Algebra) -> dict:
    return {"dim": a.dim, "mult": matrix_to_json(a.mult),
            "unit": vector_to_json(a.field, a.unit)}


def coalgebra_to_json(c: Coalgebra) -> dict:
    return {"dim": c.dim, "comult": matrix_to_json(c.comult),
            "counit": vector_to_json(c.field, c.counit)}


def entwining_document(e: Entwining, coaction_a: LinMap | None = None,
                       action_c: LinMap | None = None) -> dict:
    doc = {"schema": SCHEMA, "field": field_to_json(e.field),
           "algebra": algebra_to_json(e.alg),
           "coalgebra": coalgebra_to_json(e.coalg),
           "psi": matrix_to_json(e.psi)}
    if coaction_a is not None:
        doc["coactionA"] = matrix_to_json(coaction_a)
    if action_c is not None:
        doc["actionC"] = matrix_to_json(action_c)
    return doc


def witness_document(field: Field, kind: str, normalized: bool,
                     matrix: LinMap, family) -> dict:
    return {"schema": SCHEMA, "kind": "witness", "field": field_to_json(field),
            "witness": {"kind": kind, "normalized": normalized,
                        "domain_shape": list(matrix.domain),
                        "codomain_shape": list(matrix.codomain),
                        "matrix": matrix_to_json(matrix)},
            "family": {"feasible": family.feasible,
                       "homogeneous_dim": family.homogeneous.dim,
                       "homogeneous": [vector_to_json(field, v)
                                       for v in family.homogeneous.basis]}}


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
