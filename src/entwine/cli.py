"""Command-line front end.

Exit codes are a function of the mathematical outcome only: 0 when every
requested check passes or a witness exists, 1 when a property fails or a
system is infeasible (including non-Galois data for the report commands),
2 for malformed input.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError, EntwineError, GaloisError, InputError
from .fields import GF, QQ
from .linalg import LinMap, Subspace
from .structures import verify_algebra, verify_coalgebra
from .entwining import (counit_morphism, unit_morphism, Entwining,
                        EntwiningMorphism, make_entwining, verify_entwining,
                        verify_morphism)
from .entmod import EntwinedModule, verify_entwined_module
from .galois import (Coextension, GaloisExtension, build_coextension,
                     build_galois, copointed_grouplike, cotranslation_map,
                     fixed_subalgebra, pointed_kappa, verify_action,
                     verify_coaction)
from .hochschild import (_assemble_complex, cohomology_dim, regular_bimodule,
                         verify_bimodule)
from .separability import (STRATEGIES, check_coseparable,
                           check_strongly_separable, right_free_basis)
from .witness import (WitnessKind, checked_solve, witness_system,
                      integrability_system, cointegrability_system)
from . import schema
from .catalog import make_example

OK, FAIL, MALFORMED = 0, 1, 2


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise schema.SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise schema.SchemaError(f"{path} is not UTF-8 text: {exc}") from exc


def _load(path: str, parse=schema.parse_document):
    """The document at path, as parse reads its text."""
    text = _read(path)
    try:
        return parse(text)
    except RecursionError:
        raise schema.SchemaError(f"{path} is nested too deeply") from None


def _emit(doc: dict, out: str | None, as_json: bool):
    """Write doc as JSON to the file out, if given, and then to standard
    output if as_json; a file that cannot be written is an input error.
    Commands emit before they print anything else to standard output, so
    a failed write leaves it empty."""
    text = schema.dumps(doc)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    if as_json:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    doc = _load(args.file)
    reports = []
    if doc.algebra is not None:
        reports.append(("algebra", verify_algebra(doc.algebra)))
    if doc.coalgebra is not None:
        reports.append(("coalgebra", verify_coalgebra(doc.coalgebra)))
    ent = None
    if doc.psi is not None:
        ent = Entwining(doc.algebra, doc.coalgebra, doc.psi)
        reports.append(("entwining", verify_entwining(ent)))
    if doc.coaction_a is not None:
        reports.append(("coactionA", verify_coaction(doc.coalgebra,
                                                     doc.coaction_a)))
    if doc.action_c is not None:
        reports.append(("actionC", verify_action(doc.algebra, doc.action_c)))
    if doc.module is not None:
        if ent is None:
            raise schema.SchemaError("module section needs psi")
        dim, action, coaction = doc.module
        reports.append(("module",
                        verify_entwined_module(EntwinedModule(ent, dim,
                                                              action,
                                                              coaction))))
    if doc.morphism is not None:
        if ent is None:
            raise schema.SchemaError("morphism section needs psi")
        fmap, gmap, (alg2, coalg2, psi2) = doc.morphism
        dst = Entwining(alg2, coalg2, psi2)
        reports.append(("morphism dst entwining", verify_entwining(dst)))
        reports.append(("morphism",
                        verify_morphism(EntwiningMorphism(ent, dst, fmap,
                                                          gmap))))
    for name, rep in reports:
        print(rep.replace(subject=name))
    if not reports:
        print("nothing to check")
    return OK if all(rep.ok for _, rep in reports) else FAIL


# ---------------------------------------------------------------------------
# solve


_KIND_MAP = {
    "integral": WitnessKind.INTEGRAL,
    "cointegral": WitnessKind.COINTEGRAL,
    "integral-map": WitnessKind.INTEGRAL_MAP,
    "cointegral-map": WitnessKind.COINTEGRAL_MAP,
}


def _morphism_from(doc, ent, choice) -> EntwiningMorphism:
    if choice == "counit":
        return counit_morphism(ent)
    if choice == "unit":
        return unit_morphism(ent)
    if doc.morphism is None:
        raise schema.SchemaError("--morphism doc needs a morphism section")
    fmap, gmap, (alg2, coalg2, psi2) = doc.morphism
    mor = EntwiningMorphism(ent, make_entwining(alg2, coalg2, psi2), fmap, gmap)
    verify_morphism(mor).require()
    return mor


def cmd_solve(args) -> int:
    if args.kind in _KIND_MAP and args.morphism is not None:
        raise InputError(f"--kind {args.kind} does not read --morphism")
    doc = _load(args.file)
    try:
        ent = doc.entwining()
    except DomainError as exc:
        print(f"invalid entwining: {exc}")
        return FAIL
    f = ent.field
    normalized = args.normalized
    if args.kind in _KIND_MAP:
        kind = _KIND_MAP[args.kind]
        sys_ = witness_system(kind, ent, normalized)
        label = kind.value
    else:
        mor = _morphism_from(doc, ent, args.morphism or "counit")
        build = {"lambda": integrability_system,
                 "frakz": cointegrability_system}[args.kind]
        sys_, _ = build(mor, total=True)
        label = args.kind
        normalized = True  # the functor-level systems are always total
    sol = checked_solve(sys_)
    if not sol.feasible:
        print(f"{label}: infeasible")
        return FAIL
    matrix = LinMap.from_flat(f, sys_.x_dom, sys_.x_cod, sol.particular)
    out_doc = schema.witness_document(f, label, normalized, matrix, sol)
    _emit(out_doc, args.output, args.json)
    if not args.json:
        print(f"{label}: found; solution family dimension "
              f"{sol.homogeneous.dim}")
        for row in matrix.entries:
            print("  [" + ", ".join(str(f.fmt(x)) for x in row) + "]")
    return OK


# ---------------------------------------------------------------------------
# extension / coextension reports


def extension_report(ext: GaloisExtension, strategy: str) -> dict:
    f = ext.field
    strong = check_strongly_separable(ext, strategy)
    sep, split = strong.separability, strong.split
    # the build checked the algebra laws, which are the regular bimodule's,
    # and that the fixed subalgebra is unital; A (x)_B A is ext.square
    cx = _assemble_complex(ext.alg, ext.fixed, regular_bimodule(ext.alg), 1,
                           ext.square)
    h1, _ = cohomology_dim(cx, 1)
    report = {
        "schema": schema.SCHEMA,
        "kind": "extension_report",
        "field": schema.field_to_json(f),
        "dims": {"algebra": ext.alg.dim, "coalgebra": ext.coalg.dim,
                 "fixed_subalgebra": ext.fixed.dim},
        "separable": sep is not None,
        "split": split is not None,
        "strong": {
            "found": strong.found,
            "strategy": strategy,
            "inconclusive": strong.inconclusive,
            "tau": f.fmt(strong.certificate.tau) if strong.found else None,
            "note": strong.note,
        },
        "certificates": {},
        "hochschild": {"h1_dim": h1},
        "hypothesis_flags": {
            "free_right_module": "unverified" if right_free_basis(ext) is None
            else "verified",
        },
    }
    copointed = copointed_grouplike(ext)
    report["copointed"] = copointed is not None
    certs = report["certificates"]
    if sep is not None:
        certs["integral"] = schema.vector_to_json(f, sep.source_integral.value)
        certs["idempotent"] = schema.vector_to_json(
            f, ext.square.section.apply(sep.u))
    if split is not None:
        cert, family = split
        certs["phi"] = schema.matrix_to_json(cert.phi)
        certs["expectation"] = schema.matrix_to_json(cert.expectation)
        certs["phi_family_dim"] = family.homogeneous.dim
        report["hypothesis_flags"]["faithfully_flat_left_module"] = True
    if strong.found:
        coupled = strong.certificate
        certs["strong_phi"] = schema.matrix_to_json(coupled.split.phi)
        if coupled.separability is not sep:
            # search coupled on another integral: tau and strong_phi are its
            certs["strong_integral"] = schema.vector_to_json(
                f, coupled.separability.source_integral.value)
    return report


def cmd_extension(args) -> int:
    doc = _load(args.file)
    if doc.algebra is None or doc.coalgebra is None or doc.coaction_a is None:
        raise schema.SchemaError("extension report needs algebra, coalgebra "
                                 "and coactionA")
    try:
        ext = build_galois(doc.algebra, doc.coalgebra, doc.coaction_a)
    except (GaloisError, DomainError) as exc:
        print(f"not a coalgebra-Galois extension: {exc}")
        return FAIL
    report = extension_report(ext, args.strategy)
    _emit(report, args.output, args.json)
    if not args.json:
        print(f"separable: {str(report['separable']).lower()}")
        print(f"split: {str(report['split']).lower()}")
        strong = report["strong"]
        tau = f'"{strong["tau"]}"' if strong["tau"] is not None else "null"
        undecided = ", inconclusive: true" if strong["inconclusive"] else ""
        print(f"strong: {{found: {str(strong['found']).lower()}, tau: {tau}"
              f"{undecided}}}")
        print(f"hochschild H1: {report['hochschild']['h1_dim']}")
    return OK


def coextension_report(coext: Coextension) -> dict:
    f = coext.field
    cos = check_coseparable(coext)
    kappa = pointed_kappa(coext)
    report = {
        "schema": schema.SCHEMA,
        "kind": "coextension_report",
        "field": schema.field_to_json(f),
        "dims": {"coalgebra": coext.coalg.dim, "algebra": coext.alg.dim,
                 "coideal": coext.coideal.dim, "base": coext.base.dim},
        "coseparable": cos is not None,
        "pointed": kappa is not None,
        "certificates": {},
    }
    certs = report["certificates"]
    if cos is not None:
        certs["cointegral"] = schema.vector_to_json(
            f, cos.source_cointegral.value)
        certs["upsilon"] = schema.vector_to_json(f, cos.upsilon)
    if kappa is not None:
        certs["kappa"] = schema.vector_to_json(f, kappa)
    if coext.base.dim == 1 and kappa is not None:
        certs["cotranslation"] = schema.matrix_to_json(cotranslation_map(coext))
    return report


def cmd_coextension(args) -> int:
    doc = _load(args.file)
    if doc.algebra is None or doc.coalgebra is None or doc.action_c is None:
        raise schema.SchemaError("coextension report needs algebra, coalgebra "
                                 "and actionC")
    try:
        coext = build_coextension(doc.coalgebra, doc.algebra, doc.action_c)
    except (GaloisError, DomainError) as exc:
        print(f"not an algebra-Galois coextension: {exc}")
        return FAIL
    report = coextension_report(coext)
    _emit(report, args.output, args.json)
    if not args.json:
        print(f"coseparable: {str(report['coseparable']).lower()}")
        print(f"pointed: {str(report['pointed']).lower()}")
    return OK


# ---------------------------------------------------------------------------
# hochschild


def cmd_hochschild(args) -> int:
    doc = _load(args.file)
    if doc.algebra is None:
        raise schema.SchemaError("hochschild needs an algebra")
    alg = doc.algebra
    f = alg.field
    bimod = _load(args.bimodule, lambda text: schema.parse_bimodule(text, alg)) \
        if args.bimodule else None
    try:
        verify_algebra(alg).require()
        if bimod is not None:
            verify_bimodule(alg, bimod).require()
        # the fixed subalgebra is taken only under a valid coaction
        if doc.coaction_a is not None:
            verify_coalgebra(doc.coalgebra).require()
            verify_coaction(doc.coalgebra, doc.coaction_a).require()
    except DomainError as exc:
        print(exc)
        return FAIL
    if bimod is None:
        # the regular bimodule's laws are the algebra laws just checked
        bimod = regular_bimodule(alg)
    # a unital subalgebra either way: fixed_subalgebra checks its own
    if doc.coaction_a is not None:
        sub, _ = fixed_subalgebra(alg, doc.coaction_a)
    else:
        sub = Subspace.from_vectors(f, (alg.dim,), [tuple(alg.unit)])
    cx = _assemble_complex(alg, sub, bimod, max(1, args.degree))
    dim, reps = cohomology_dim(cx, args.degree)
    out = {"schema": schema.SCHEMA, "kind": "hochschild",
           "field": schema.field_to_json(f),
           "degree": args.degree, "dim": dim,
           "cochain_dims": [s.dim for s in cx.spaces],
           "representatives": [schema.vector_to_json(f, v)
                               for v in reps.basis]}
    _emit(out, args.output, args.json)
    if not args.json:
        print(f"H^{args.degree} dimension: {dim}")
        if dim > 0:
            print("representative cocycle (cochain coordinates): "
                  + "[" + ", ".join(str(f.fmt(x)) for x in reps.basis[0])
                  + "]")
    return OK


# ---------------------------------------------------------------------------
# catalog


def cmd_catalog(args) -> int:
    if args.field == "Q" and args.p is not None:
        raise InputError("--field Q does not read --p (only --field Fp does)")
    field = QQ if args.field == "Q" else GF(2 if args.p is None else args.p)
    params = {key: getattr(args, key) for key in ("n", "d", "na", "nc", "hopf")
              if getattr(args, key) is not None}
    if args.dual:
        params["dual"] = True
    entry = make_example(args.name, dict(params, field=field))
    payload = entry.payload
    if isinstance(payload, GaloisExtension):
        doc = schema.entwining_document(payload.ent, coaction_a=payload.rho_a)
    elif isinstance(payload, Coextension):
        doc = schema.entwining_document(payload.ent, action_c=payload.rho_c)
    elif isinstance(payload, Entwining):
        doc = schema.entwining_document(payload)
    else:  # Hopf data
        doc = {"schema": schema.SCHEMA,
               "field": schema.field_to_json(field),
               "algebra": schema.algebra_to_json(payload.alg),
               "coalgebra": schema.coalgebra_to_json(payload.coalg)}
    for w in entry.extras.get("warnings", []):
        print(f"warning: {w}", file=sys.stderr)
    _emit(doc, args.output, not args.output)
    if args.output:
        print(f"wrote {args.output}")
    return OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwine",
        description="Exact certificates for entwining structures and "
                    "coalgebra-Galois extensions.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="verify every structure in a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("solve", help="solve for a witness")
    p.add_argument("--kind", required=True,
                   choices=[*_KIND_MAP, "lambda", "frakz"])
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--morphism", choices=["counit", "unit", "doc"],
                   help="morphism for lambda/frakz solves (default counit)")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.add_argument("file")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("extension", help="coalgebra-Galois extension reports")
    esubs = p.add_subparsers(dest="subcommand", required=True)
    pr = esubs.add_parser("report")
    pr.add_argument("file")
    pr.add_argument("--strategy", default="fixed_integral", choices=STRATEGIES)
    pr.add_argument("--json", action="store_true")
    pr.add_argument("-o", "--output")
    pr.set_defaults(func=cmd_extension)

    p = subs.add_parser("coextension", help="algebra-Galois coextension reports")
    csubs = p.add_subparsers(dest="subcommand", required=True)
    pr = csubs.add_parser("report")
    pr.add_argument("file")
    pr.add_argument("--json", action="store_true")
    pr.add_argument("-o", "--output")
    pr.set_defaults(func=cmd_coextension)

    p = subs.add_parser("hochschild", help="relative cohomology dimensions")
    p.add_argument("--n", dest="degree", type=int, default=1, choices=[0, 1, 2])
    p.add_argument("--bimodule")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.add_argument("file")
    p.set_defaults(func=cmd_hochschild)

    p = subs.add_parser("catalog", help="emit a catalog example")
    p.add_argument("--name", required=True)
    p.add_argument("--field", choices=["Q", "Fp"], default="Q")
    p.add_argument("--p", type=int, help="modulus for --field Fp (default 2)")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--na", type=int)
    p.add_argument("--nc", type=int)
    p.add_argument("--hopf")
    p.add_argument("--dual", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_catalog)

    return parser


class _ReaderGone:
    """Standard output for one command that outlives its reader: when a
    write or flush finds the pipe closed, fd 1 is pointed at os.devnull and
    the rest of the output is dropped, so the command runs to its end and
    exits with its own code, without a traceback."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, text):
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._drop()
            return len(text)

    def flush(self):
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._drop()

    def _drop(self):
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self._stream.fileno())
        os.close(devnull)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv=None) -> int:
    stdout = sys.stdout
    sys.stdout = _ReaderGone(stdout)
    try:
        return _run(argv)
    finally:
        sys.stdout.flush()
        sys.stdout = stdout


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return MALFORMED
    except EntwineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
