"""Spans and counters recorded from outside the library.

The traced run wraps public functions of `src/entwine` in place: each
wrapper opens a span (name, start, end, parent, question id) around the
call.  The library binds many names with `from .linalg import ...`, so a
function is rebound in every `entwine.*` module namespace that holds it;
methods are patched on their class.  `Recorder.uninstall` puts every
original object back.

Spans stay in memory and are summarised (and optionally written out) when
the run ends.  A layer's inclusive time sums only its outermost spans, so a
name that re-enters itself is not counted twice; its self time is each
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute); "Class.method" patches a method.
SPANNED = [
    ("linalg.rref", "entwine.linalg", "rref"),
    ("linalg.solve_affine", "entwine.linalg", "solve_affine"),
    ("linalg.kernel_image", "entwine.linalg", "kernel_image"),
    ("linalg.invert", "entwine.linalg", "invert"),
    ("linalg.quotient_by", "entwine.linalg", "quotient_by"),
    ("linalg.compose", "entwine.linalg", "LinMap.compose"),
    ("linalg.kron", "entwine.linalg", "kron"),
    ("linalg.descend", "entwine.linalg", "descend"),
    ("linalg.corestrict", "entwine.linalg", "corestrict"),
    ("linalg.op_in_unknown", "entwine.linalg", "op_in_unknown"),
    ("linalg.constraints.assembled", "entwine.linalg",
     "LinearConstraints.assembled"),
    ("linalg.constraints.solve", "entwine.linalg", "LinearConstraints.solve"),
    ("entmod.cotensor", "entwine.entmod", "cotensor"),
    ("entmod.tensor_over_A", "entwine.entmod", "tensor_over_A"),
    ("entmod.induce", "entwine.entmod", "induce"),
    ("entmod.coinduce", "entwine.entmod", "coinduce"),
    ("entmod.adjunction_maps", "entwine.entmod", "adjunction_maps"),
    ("witness.lambda_context", "entwine.witness", "lambda_context"),
    ("witness.frakz_context", "entwine.witness", "frakz_context"),
    ("witness.integrability_system", "entwine.witness",
     "integrability_system"),
    ("witness.cointegrability_system", "entwine.witness",
     "cointegrability_system"),
    ("witness.witness_system", "entwine.witness", "witness_system"),
    ("witness.nu_from_lambda", "entwine.witness", "nu_from_lambda"),
    ("galois.build_galois", "entwine.galois", "build_galois"),
    ("galois.build_coextension", "entwine.galois", "build_coextension"),
    ("galois.fixed_subalgebra", "entwine.galois", "fixed_subalgebra"),
    ("separability.check_separable", "entwine.separability",
     "check_separable"),
    ("separability.check_split", "entwine.separability", "check_split"),
    ("separability.check_strongly_separable", "entwine.separability",
     "check_strongly_separable"),
    ("separability.check_coseparable", "entwine.separability",
     "check_coseparable"),
    ("hochschild.relative_complex", "entwine.hochschild", "relative_complex"),
    ("hochschild.cohomology_dim", "entwine.hochschild", "cohomology_dim"),
    ("structures.law", "entwine.structures", "law"),
    ("schema.parse_document", "entwine.schema", "parse_document"),
    ("schema.dumps", "entwine.schema", "dumps"),
    ("catalog.make_example", "entwine.catalog", "make_example"),
]

# every public verify_* function is one layer, "verify"
VERIFY_MODULES = ["entwine.structures", "entwine.entwining", "entwine.galois",
                  "entwine.entmod", "entwine.hochschild",
                  "entwine.separability"]

FIELD_OPS = ("add", "sub", "mul", "neg", "inv")

# spans counted by calls as well as time
CALL_COUNTED = ("entmod.induce", "entmod.coinduce", "linalg.rref", "verify",
                "structures.law")

# share of the traced wall time (plus process floors for cli_batch) spent in
# a layer; these show that the workloads separate the layers
SHARES = {
    "share.linalg.rref": {"linalg.rref"},
    "share.linalg.op_in_unknown": {"linalg.op_in_unknown"},
    "share.entmod.tensor_over_A": {"entmod.tensor_over_A"},
    "share.galois": {"galois.build_galois", "galois.build_coextension",
                     "galois.fixed_subalgebra"},
    "share.separability": {"separability.check_separable",
                           "separability.check_split",
                           "separability.check_strongly_separable",
                           "separability.check_coseparable"},
    "share.verify": {"verify"},
}

# time spent on the recorder's own bookkeeping inside a span; it is a child
# of that span (so it leaves the parent's self time) and is never reported
BOOKKEEPING = "_bookkeeping"


class Recorder:
    """Holds spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent_index, qid]
        self.stack = []
        self.qid = None
        self.active = False
        self.counts = {"fields.ops": 0, "fields.inv_calls": 0,
                       "linalg.rref.cells": 0}
        self.systems = []        # (rows_raw, rows, cols, nnz, rank, nullity)
        self._assembled = {}     # id(constraints) -> (rows_raw, rows, cols, nnz)
        self._patches = []       # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.qid])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def _wrap(self, name, fn, on_result=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec.open(name)
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    rec.open(BOOKKEEPING)
                    try:
                        on_result(args, out)
                    finally:
                        rec.close()
                return out
            finally:
                rec.close()
        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "entwine" and not modname.startswith("entwine."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import entwine.cli  # noqa: F401  (loads every module)
        from entwine.fields import Field
        hooks = {"linalg.rref": self._after_rref,
                 "linalg.constraints.assembled": self._after_assembled,
                 "linalg.constraints.solve": self._after_solve}
        for name, modname, attr in SPANNED:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hooks.get(name)))
            else:
                original = getattr(mod, attr)
                self._rebind_everywhere(original,
                                        self._wrap(name, original,
                                                   hooks.get(name)))
        for modname in VERIFY_MODULES:
            mod = sys.modules[modname]
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("verify_") and callable(val)
                        and getattr(val, "__module__", None) == modname):
                    self._rebind_everywhere(val, self._wrap("verify", val))
        for op in FIELD_OPS:
            original = Field.__dict__[op]
            self._patches.append((Field, op, original))
            setattr(Field, op, self._count_field_op(op, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def _count_field_op(self, op, fn):
        counts = self.counts
        rec = self
        if op == "inv":
            @functools.wraps(fn)
            def counted(*args):
                if rec.active:
                    counts["fields.ops"] += 1
                    counts["fields.inv_calls"] += 1
                return fn(*args)
        else:
            @functools.wraps(fn)
            def counted(*args):
                if rec.active:
                    counts["fields.ops"] += 1
                return fn(*args)
        return counted

    # -- per-call bookkeeping ---------------------------------------------

    def _after_rref(self, args, out):
        rows = args[1]
        n = len(rows)
        self.counts["linalg.rref.cells"] += n * (len(rows[0]) if n else 0)

    def _after_assembled(self, args, out):
        cons = args[0]
        m, _ = out
        raw = sum(blk.matrix.rows for blk in cons.blocks)
        nnz = sum(1 for row in m.entries for x in row if x != 0)
        self._assembled[id(cons)] = (raw, m.rows, m.cols, nnz)

    def _after_solve(self, args, out):
        raw, rows, cols, nnz = self._assembled.pop(id(args[0]))
        nullity = out.homogeneous.dim
        self.systems.append((raw, rows, cols, nnz, cols - nullity, nullity))

    # -- summary ----------------------------------------------------------

    def summary(self, wall_s):
        """Per-layer metrics: inclusive and self seconds per span name,
        call counts, field-operation counts and linear-system shapes."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        incl, self_ns, calls = {}, {}, {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name == BOOKKEEPING:
                continue
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
            p = parent
            nested = False
            while p >= 0:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][3]
            if not nested:
                incl[name] = incl.get(name, 0) + dur
        out = {}
        names = [s[0] for s in SPANNED] + ["verify"]
        for name in names:
            out[f"{name}.s"] = incl.get(name, 0) / 1e9
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        out.update(self.counts)
        sy = self.systems
        tot = [sum(s[k] for s in sy) for k in range(6)]
        out["linalg.system.count"] = len(sy)
        for k, key in enumerate(("rows_raw", "rows", "cols", "nnz", "rank",
                                 "nullity")):
            out[f"linalg.system.{key}"] = tot[k]
        out["linalg.system.useful_row_ratio"] = (tot[4] / tot[0]
                                                 if tot[0] else 0.0)
        for key, names in SHARES.items():
            out[key] = self._union_ns(names) / 1e9 / wall_s if wall_s else 0.0
        return out

    def _union_ns(self, names):
        """Time covered by spans of the given names, nested ones once."""
        total = 0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s[0] != BOOKKEEPING:
                    fh.write(json.dumps(s) + "\n")
