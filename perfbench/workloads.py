"""The three workloads: seeded question streams, the asks, and the checks.

A question is a JSON document plus an ask.  Each workload hands out its
questions in cycles; a run measures whole cycles, so every run of a
workload sees the same mix of question kinds whatever its speed.  The seed
chooses the random bases (reports_dense), the primes within each
divisibility class, the question order inside a cycle and the malformed
documents (cli_batch); it never changes the mix.

`ask` is the timed part.  `check` runs untimed (and untraced) afterwards:
it compares the basis-invariant part of the answer with the expected-answer
table and passes every returned certificate back through the library's
public verifiers.  A problem is either "wrong" (a wrong answer or a
certificate that fails re-checking) or "contract" (malformed input that did
not end with exit code 2 and a one-line message).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback

import expected
import gen

# "p|n" draws from the primes dividing the group order.  "p∤n" draws from
# primes above every order used here: a random basis mod 2 or 3 has many
# zero entries, so those data would be cheaper than the rest of the class.
DIVIDING = (2, 3, 5)
NON_DIVIDING = (7, 11, 13)


def primes_for(label, order):
    if label == "p|n":
        return [p for p in DIVIDING if order % p == 0]
    return list(NON_DIVIDING)


def _field(p):
    from entwine import GF, QQ
    return QQ if p is None else GF(p)


class Question:
    __slots__ = ("qid", "key", "ask", "text", "args", "expect")

    def __init__(self, qid, key, ask, text=None, args=None, expect=None):
        self.qid = qid          # position in the stream, "cycle.index"
        self.key = key          # expected-answer table key
        self.ask = ask          # what is asked
        self.text = text        # the JSON document (in-process workloads)
        self.args = args        # argv after the program (cli_batch)
        self.expect = expect    # cli_batch: expected exit code and output


class Workload:
    name = ""
    # latency_tail_ms is this percentile: the highest one with at least ten
    # questions beyond it in a 16-second run of the seed commit
    tail_pct = 90
    trace_cycles = 1         # cycles replayed by the traced run

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")

    def cycle_rng(self, k):
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def prepare(self):
        """Catalog data and anything else built once per run (set-up)."""

    def cycle(self, k):
        raise NotImplementedError

    def warm_up(self):
        """Untimed questions run during set-up, disjoint from the stream."""

    def ask(self, q):
        raise NotImplementedError

    def check(self, q, answer):
        raise NotImplementedError

    def canonical(self, q, answer):
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# reports_dense


REPORT_SLOTS = [
    # slot, catalog family, parameters, group order, field classes
    ("hsg-n2", "hopf_self_galois", {"n": 2}, 2, ("Q", "p|n", "p∤n")),
    ("hsg-n3", "hopf_self_galois", {"n": 3}, 3, ("Q", "p|n", "p∤n")),
    ("hsg-n4", "hopf_self_galois", {"n": 4}, 4, ("Q", "p|n", "p∤n")),
    # n=5 over Q takes about 5 s in a dense basis; one would dominate a run
    ("hsg-n5", "hopf_self_galois", {"n": 5}, 5, ("p|n", "p∤n")),
    # characteristic 2 is excluded by the catalog
    ("hsg-sweedler", "hopf_self_galois", {"hopf": "sweedler"}, 4,
     ("Q", "p∤n")),
    ("hqg-n4-d2", "hopf_quotient_galois", {"n": 4, "d": 2}, 4,
     ("Q", "p|n", "p∤n")),
    ("coext-n2", "self_coextension", {"n": 2}, 2, ("Q",)),
    ("coext-n3", "self_coextension", {"n": 3}, 3, ("Q", "p∤n")),
    ("coext-n4", "self_coextension", {"n": 4}, 4, ("Q", "p|n", "p∤n")),
    ("coext-dual-n3", "self_coextension", {"n": 3, "dual": True}, 3,
     ("Q", "p|n")),
    ("coext-dual-n4", "self_coextension", {"n": 4, "dual": True}, 4,
     ("Q", "p|n")),
]


# Extra questions of one kind per cycle, each on its own random basis.  The
# n=3 report over GF(p) (about 40 ms, and steady across bases) then fills
# the middle of the latency ranking, so latency_p50_ms measures that kind
# instead of jumping between two neighbouring kinds from run to run.
REPORT_COPIES = {"hsg-n3/p∤n": 7}


def catalog_payload(family, params, p):
    from entwine import make_example
    return make_example(family, dict(params, field=_field(p))).payload


def report_document(payload, p, rng):
    """A Galois extension or coextension as a document in a random basis
    (the catalog basis when rng is None)."""
    if hasattr(payload, "rho_a"):
        return gen.conjugated_document(payload.alg, payload.coalg,
                                       coaction=payload.rho_a, p=p, rng=rng)
    return gen.conjugated_document(payload.alg, payload.coalg,
                                   action=payload.rho_c, p=p, rng=rng)


def report_summary(report):
    """The basis-invariant part of an extension or coextension report."""
    if report["kind"] == "extension_report":
        certs = report["certificates"]
        return {"dims": report["dims"], "separable": report["separable"],
                "split": report["split"], "copointed": report["copointed"],
                "h1_dim": report["hochschild"]["h1_dim"],
                "strong_found": report["strong"]["found"],
                "phi_family_dim": certs.get("phi_family_dim")}
    return {"dims": report["dims"], "coseparable": report["coseparable"],
            "pointed": report["pointed"]}


def _flat(matrix_json, f):
    return tuple(f.parse(x) for row in matrix_json for x in row)


def recheck_report(struct, report):
    """Pass every certificate in a report back through public verifiers."""
    from entwine import WitnessKind, check_witness
    from entwine.separability import (expectation_violations, split_system,
                                      verify_idempotent)
    from entwine.linalg import LinMap
    f = struct.field
    certs = report["certificates"]
    bad = []
    if report["kind"] == "extension_report":
        if "integral" in certs:
            z = tuple(f.parse(x) for x in certs["integral"])
            if check_witness(WitnessKind.INTEGRAL, struct.ent, z, True):
                bad.append("integral fails check_witness")
        if "idempotent" in certs:
            raw = tuple(f.parse(x) for x in certs["idempotent"])
            u = struct.square.projection.apply(raw)
            if verify_idempotent(struct, u):
                bad.append("idempotent fails verify_idempotent")
        for key in ("phi", "strong_phi"):
            if key in certs:
                if split_system(struct).violations(_flat(certs[key], f)):
                    bad.append(f"{key} fails the split system")
        if "expectation" in certs:
            da = struct.alg.dim
            e = LinMap.from_rows(f, (da,), (da,),
                                 [[f.parse(x) for x in row]
                                  for row in certs["expectation"]])
            if expectation_violations(struct, e):
                bad.append("expectation fails expectation_violations")
    elif "cointegral" in certs:
        y = tuple(f.parse(x) for x in certs["cointegral"])
        if check_witness(WitnessKind.COINTEGRAL, struct.ent, y, True):
            bad.append("cointegral fails check_witness")
    return bad


class ReportsDense(Workload):
    name = "reports_dense"
    tail_pct = 92
    trace_cycles = 1

    def prepare(self):
        self.slots = []
        for slot, family, params, order, labels in REPORT_SLOTS:
            for label in labels:
                p = None if label == "Q" else \
                    self.rng.choice(primes_for(label, order))
                payload = catalog_payload(family, params, p)
                self.slots.append((f"{slot}/{label}", p, payload))

    def cycle(self, k):
        rng = self.cycle_rng(k)
        out = []
        for key, p, payload in self.slots:
            for _ in range(REPORT_COPIES.get(key, 1)):
                text = gen.dumps(report_document(payload, p, rng))
                out.append(Question(None, key, "report", text=text))
        rng.shuffle(out)
        for i, q in enumerate(out):
            q.qid = f"{k}.{i}"
        return out

    def warm_up(self):
        # two small data in a basis no stream question uses
        rng = random.Random(f"{self.name}:warm:{self.seed}")
        for key, p, payload in self.slots:
            if key in ("hsg-n2/Q", "coext-n2/Q"):
                self.ask(Question("warm", key, "report",
                                  text=gen.dumps(report_document(payload, p,
                                                               rng))))

    def ask(self, q):
        from entwine import build_coextension, build_galois, schema
        from entwine.cli import coextension_report, extension_report
        doc = schema.parse_document(q.text)
        if doc.coaction_a is not None:
            struct = build_galois(doc.algebra, doc.coalgebra, doc.coaction_a)
            report = extension_report(struct, "fixed_integral")
        else:
            struct = build_coextension(doc.coalgebra, doc.algebra,
                                       doc.action_c)
            report = coextension_report(struct)
        return struct, report, schema.dumps(report)

    def check(self, q, answer):
        struct, report, _ = answer
        problems = []
        want = expected.REPORTS[q.key]
        got = report_summary(report)
        if got != want:
            diff = {k: (got.get(k), want.get(k)) for k in want
                    if got.get(k) != want.get(k)}
            problems.append(("wrong", f"answer differs from the table "
                                      f"(got, expected): {diff}"))
        problems += [("wrong", m) for m in recheck_report(struct, report)]
        return problems

    def canonical(self, q, answer):
        return answer[2]


# ---------------------------------------------------------------------------
# functor_systems


# (field class, group order, asks); every ask is on the catalog-basis
# hopf_self_galois document of that order.  Left out: the counit adjunction
# over Q at n=3 (1.6 s), the n=4 adjunctions (3 s and 1.7 s) and the n=4
# counit nu; each would dominate a cycle, and the n=4 adjunctions would
# drown the system-assembly layer this workload exists to load.
ALL_ASKS = ("lambda/counit", "frakz/counit", "nu/counit", "lambda/unit",
            "frakz/unit", "nu/unit", "adjunction/counit", "adjunction/unit",
            "integral-map", "cointegral-map", "H2")
FUNCTOR_GROUPS = [
    ("Q", 2, ALL_ASKS),
    ("Q", 3, tuple(a for a in ALL_ASKS if a != "adjunction/counit")),
    ("p|n", 2, ALL_ASKS),
    ("p|n", 3, ALL_ASKS),
    ("p∤n", 4, tuple(a for a in ALL_ASKS
                     if a not in ("adjunction/counit", "adjunction/unit",
                                  "nu/counit"))),
]


def functor_document(n, p):
    from entwine import schema
    ext = catalog_payload("hopf_self_galois", {"n": n}, p)
    return schema.dumps(schema.entwining_document(ext.ent,
                                                  coaction_a=ext.rho_a))


def _morphism(ent, side):
    from entwine.entwining import counit_morphism, unit_morphism
    return counit_morphism(ent) if side == "counit" else unit_morphism(ent)


def _nu_module(doc, ent, mor, side):
    from entwine import EntwinedModule
    from entwine.entmod import regular_module, standard_module
    if side == "counit":
        # A itself, entwined by its product and coaction
        return EntwinedModule(ent, doc.algebra.dim, doc.algebra.mult,
                              doc.coaction_a)
    return standard_module("mod_tensor_c", regular_module(mor.src.alg),
                           mor.src)


def functor_answer_summary(ask, answer):
    kind = ask.split("/")[0]
    if kind in ("lambda", "frakz", "integral-map", "cointegral-map"):
        sol = answer
        return {"feasible": sol.feasible, "nullity": sol.homogeneous.dim}
    if kind == "adjunction":
        phi, psi = answer
        return {"unit": [phi.cols, phi.rows], "counit": [psi.cols, psi.rows]}
    if kind == "nu":
        return {"shape": [answer.cols, answer.rows]}
    return {"h2_dim": answer[0]}


class FunctorSystems(Workload):
    name = "functor_systems"
    tail_pct = 93
    trace_cycles = 1

    def prepare(self):
        self.groups = []
        self.lambdas = {}
        for label, n, asks in FUNCTOR_GROUPS:
            p = None if label == "Q" else self.rng.choice(primes_for(label, n))
            self.groups.append((f"{label}/n{n}", functor_document(n, p),
                                asks))
        self.order = list(range(len(self.groups)))
        self.rng.shuffle(self.order)
        self.verified = set()

    def cycle(self, k):
        out = []
        for g in self.order:
            gkey, text, asks = self.groups[g]
            for ask in asks:
                out.append(Question(f"{k}.{len(out)}", f"{gkey}/{ask}", ask,
                                    text=text))
        return out

    def warm_up(self):
        gkey, text, _ = next(g for g in self.groups if g[0] == "p|n/n2")
        for ask in ("lambda/counit", "frakz/unit", "H2"):
            self.ask(Question("warm", f"{gkey}/{ask}", ask, text=text))

    def ask(self, q):
        from entwine import (WitnessKind, adjunction_maps, cohomology_dim,
                             nu_from_lambda, regular_bimodule,
                             relative_complex, schema, solve_witness)
        from entwine.entmod import (regular_comodule, regular_module,
                                    standard_module)
        from entwine.galois import fixed_subalgebra
        from entwine.witness import (cointegrability_system,
                                     integrability_system, lambda_witness)
        doc = schema.parse_document(q.text)
        kind, _, side = q.ask.partition("/")
        if kind == "H2":
            alg = doc.algebra
            fixed, _ = fixed_subalgebra(alg, doc.coaction_a)
            cx = relative_complex(alg, fixed, regular_bimodule(alg),
                                  max_degree=2)
            return cohomology_dim(cx, 2)
        ent = doc.entwining()
        if kind in ("integral-map", "cointegral-map"):
            wk = WitnessKind.INTEGRAL_MAP if kind == "integral-map" \
                else WitnessKind.COINTEGRAL_MAP
            return solve_witness(wk, ent, normalized=True)
        mor = _morphism(ent, side)
        if kind == "lambda":
            sol = integrability_system(mor, total=True)[0].solve()
            # the client keeps lambda for its follow-up nu question
            self.lambdas[q.key.rsplit("/", 2)[0] + "/" + side] = \
                sol.particular
            return sol
        if kind == "frakz":
            return cointegrability_system(mor, total=True)[0].solve()
        if kind == "adjunction":
            m = standard_module("mod_tensor_c", regular_module(mor.src.alg),
                                mor.src)
            mt = standard_module("comod_tensor_a",
                                 regular_comodule(mor.dst.coalg), mor.dst)
            return adjunction_maps(mor, m, mt)
        lam = lambda_witness(mor, self.lambdas[q.key.rsplit("/", 2)[0]
                                               + "/" + side])
        return nu_from_lambda(lam, _nu_module(doc, ent, mor, side))

    def check(self, q, answer):
        problems = []
        got = functor_answer_summary(q.ask, answer)
        want = expected.FUNCTORS[q.key]
        if got != want:
            problems.append(("wrong", f"answer {got} differs from the table "
                                      f"{want}"))
        kind, _, side = q.ask.partition("/")
        if kind not in ("lambda", "frakz", "integral-map", "cointegral-map") \
                or not answer.feasible:
            return problems
        # identical answers to one question are re-checked once
        memo = (q.key, self.canonical(q, answer))
        if memo in self.verified:
            return problems
        from entwine import WitnessKind, check_witness, schema
        from entwine.witness import (cointegrability_system,
                                     integrability_system)
        ent = schema.parse_document(q.text).entwining()
        if kind == "lambda":
            bad = integrability_system(_morphism(ent, side))[0] \
                .violations(answer.particular)
        elif kind == "frakz":
            bad = cointegrability_system(_morphism(ent, side))[0] \
                .violations(answer.particular)
        else:
            wk = WitnessKind.INTEGRAL_MAP if kind == "integral-map" \
                else WitnessKind.COINTEGRAL_MAP
            bad = check_witness(wk, ent, answer.particular, True)
        if bad:
            problems.append(("wrong", f"solution fails a fresh system: "
                                      f"{bad[:3]}"))
        else:
            self.verified.add(memo)
        return problems

    def canonical(self, q, answer):
        kind = q.ask.split("/")[0]
        if kind in ("lambda", "frakz", "integral-map", "cointegral-map"):
            part = None if answer.particular is None else \
                [str(x) for x in answer.particular]
            return json.dumps([part, [[str(x) for x in v]
                                      for v in answer.homogeneous.basis]])
        if kind == "adjunction":
            return json.dumps([[[str(x) for x in row] for row in m.entries]
                               for m in answer])
        if kind == "nu":
            return json.dumps([[str(x) for x in row]
                               for row in answer.entries])
        dim, reps = answer
        return json.dumps([dim, [[str(x) for x in v] for v in reps.basis]])


# ---------------------------------------------------------------------------
# cli_batch


CLI_DOCS = [
    # file stem, catalog family, parameters, field class, order
    ("ext_q2", "hopf_self_galois", {"n": 2}, "Q", 2),
    ("ext_p2", "hopf_self_galois", {"n": 2}, "p|n", 2),
    ("ext_p3", "hopf_self_galois", {"n": 3}, "p∤n", 3),
    ("coext_q2", "self_coextension", {"n": 2}, "Q", 2),
    ("coext_p3", "self_coextension", {"n": 3}, "p∤n", 3),
]

# (argv template, expected-answer key); {doc} is the document path and
# {p3} the prime of the n=3 documents.
CLI_VALID = [
    (["check", "{ext_q2}"], "check"),
    (["check", "{coext_p3}"], "check"),
    (["solve", "--kind", "integral", "--normalized", "{ext_q2}"],
     "solve/integral/ext_q2"),
    (["solve", "--kind", "integral", "--normalized", "{ext_p2}"],
     "solve/integral/ext_p2"),
    (["solve", "--kind", "cointegral", "--normalized", "{coext_q2}"],
     "solve/cointegral/coext_q2"),
    (["solve", "--kind", "integral-map", "--normalized", "{ext_p3}"],
     "solve/integral-map/ext_p3"),
    (["solve", "--kind", "cointegral-map", "--normalized", "--json",
      "{ext_q2}"], "solve/cointegral-map/ext_q2"),
    (["solve", "--kind", "lambda", "{ext_q2}"], "solve/lambda/ext_q2"),
    (["solve", "--kind", "frakz", "{ext_q2}"], "solve/frakz/ext_q2"),
    (["extension", "report", "{ext_q2}"], "report/ext_q2"),
    (["extension", "report", "--json", "{ext_p2}"], "report/ext_p2"),
    (["extension", "report", "{ext_p3}"], "report/ext_p3"),
    (["coextension", "report", "{coext_q2}"], "report/coext_q2"),
    (["coextension", "report", "--json", "{coext_p3}"], "report/coext_p3"),
    (["hochschild", "--n", "0", "{ext_p3}"], "hochschild/0/ext_p3"),
    (["hochschild", "--n", "1", "{ext_p2}"], "hochschild/1/ext_p2"),
    (["hochschild", "--n", "2", "{ext_q2}"], "hochschild/2/ext_q2"),
    (["catalog", "--name", "hopf_self_galois", "--n", "3", "--field", "Fp",
      "--p", "{p3}"], "catalog"),
    (["catalog", "--name", "self_coextension", "--n", "2", "--dual"],
     "catalog"),
]

# Malformed documents.  The first four are the known contract breaks of the
# seed (a bare int() on "dim" and "p", no decode guard, silent truncation of
# a fractional dimension): they stay in every cycle and count as failures
# until the library rejects them with exit code 2.
KNOWN_BREAKS = ["dim-string", "p-string", "not-utf8", "dim-fraction"]
OTHER_MUTATIONS = ["unknown-key", "row-length", "bad-scalar", "missing-key",
                   "invalid-json", "wrong-schema", "dim-zero",
                   "matrix-string", "field-kind"]
MALFORMED_COMMANDS = [["check"], ["extension", "report"],
                      ["solve", "--kind", "integral", "--normalized"],
                      ["hochschild", "--n", "1"]]
OTHER_PER_CYCLE = 2


def mutate(doc: dict, mutation: str, rng: random.Random) -> bytes:
    """A malformed variant of a valid document, as file bytes."""
    doc = json.loads(json.dumps(doc))
    section = rng.choice(["algebra", "coalgebra"])
    if mutation == "dim-string":
        doc[section]["dim"] = "x"
    elif mutation == "p-string":
        doc["field"] = {"kind": "Fp", "p": "abc"}
    elif mutation == "not-utf8":
        return b"\xff\xfe" + json.dumps(doc).encode("utf-8")[2:]
    elif mutation == "dim-fraction":
        doc[section]["dim"] = doc[section]["dim"] + 0.5
    elif mutation == "unknown-key":
        doc[section]["extra"] = 1
    elif mutation == "row-length":
        key = "mult" if section == "algebra" else "comult"
        doc[section][key][0] = doc[section][key][0][:-1]
    elif mutation == "bad-scalar":
        doc[section]["mult" if section == "algebra" else "comult"][0][0] = \
            "1/0" if doc["field"]["kind"] == "Q" else doc["field"]["p"]
    elif mutation == "missing-key":
        del doc[section]["unit" if section == "algebra" else "counit"]
    elif mutation == "invalid-json":
        return json.dumps(doc).encode("utf-8")[:-7]
    elif mutation == "wrong-schema":
        doc["schema"] = "entwine/0"
    elif mutation == "dim-zero":
        doc[section]["dim"] = 0
    elif mutation == "matrix-string":
        doc[section]["mult" if section == "algebra" else "comult"] = "[]"
    elif mutation == "field-kind":
        doc["field"] = {"kind": "R"}
    else:
        raise ValueError(mutation)
    return json.dumps(doc).encode("utf-8")


def run_inprocess(argv):
    """cli.main(argv) with captured output, mapped to what the process
    would report: (exit code, stdout, stderr)."""
    from entwine import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the interpreter would print it and exit 1
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


class CliBatch(Workload):
    name = "cli_batch"
    tail_pct = 92
    trace_cycles = 1
    in_process = False       # the traced run sets this

    def prepare(self):
        from entwine import schema
        self.dir = os.path.join(self.root, ".perfbench_tmp",
                                f"{self.name}-{self.seed}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.paths, self.docs = {}, {}
        self.p3 = self.rng.choice(primes_for("p∤n", 3))
        for stem, family, params, label, order in CLI_DOCS:
            p = None if label == "Q" else (
                self.p3 if order == 3 else
                self.rng.choice(primes_for(label, order)))
            payload = catalog_payload(family, params, p)
            if hasattr(payload, "rho_a"):
                doc = schema.entwining_document(payload.ent,
                                                coaction_a=payload.rho_a)
            else:
                doc = schema.entwining_document(payload.ent,
                                                action_c=payload.rho_c)
            path = os.path.join(self.dir, stem + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(schema.dumps(doc))
            self.paths[stem], self.docs[stem] = path, doc
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(self.root, "src"))

    def _subst(self, argv):
        return [a.format(p3=self.p3, **self.paths) for a in argv]

    def cycle(self, k):
        rng = self.cycle_rng(k)
        out = [Question(None, key, "cli", args=self._subst(argv),
                        expect=expected.CLI[key]) for argv, key in CLI_VALID]
        mutations = KNOWN_BREAKS + rng.sample(OTHER_MUTATIONS,
                                              OTHER_PER_CYCLE)
        for j, mutation in enumerate(mutations):
            stem = rng.choice([s for s, *_ in CLI_DOCS if s.startswith("ext")])
            path = os.path.join(self.dir, f"bad-{k}-{j}.json")
            with open(path, "wb") as fh:
                fh.write(mutate(self.docs[stem], mutation, rng))
            argv = rng.choice(MALFORMED_COMMANDS) + [path]
            out.append(Question(None, f"malformed/{mutation}", "cli",
                                args=argv, expect=expected.CLI["malformed"]))
        rng.shuffle(out)
        for i, q in enumerate(out):
            q.qid = f"{k}.{i}"
        return out

    def spawn(self, argv, **kw):
        return subprocess.run([sys.executable] + argv, capture_output=True,
                              cwd=self.dir, env=self.env, timeout=120, **kw)

    def warm_up(self):
        # fills the page cache and writes the bytecode caches
        self.spawn(["-m", "entwine.cli", "catalog", "--name", "group_algebra",
                    "--n", "2"])

    def ask(self, q):
        if self.in_process:
            return run_inprocess(q.args)
        proc = self.spawn(["-m", "entwine.cli"] + q.args)
        return (proc.returncode, proc.stdout.decode("utf-8", "replace"),
                proc.stderr.decode("utf-8", "replace"))

    def check(self, q, answer):
        rc, out, err = answer
        want_rc, needles = q.expect
        kind = "contract" if q.key.startswith("malformed/") else "wrong"
        problems = []
        if rc != want_rc:
            problems.append((kind, f"exit code {rc}, expected {want_rc}"))
        if "Traceback" in err:
            problems.append((kind, "traceback: "
                             + err.strip().splitlines()[-1][:120]))
        if kind == "contract":
            lines = err.strip().splitlines()
            if rc == 2 and (len(lines) != 1
                            or not lines[0].startswith("input error:")):
                problems.append((kind, "not a one-line input error message"))
            return problems
        text = out
        for needle in needles:
            if isinstance(needle, dict):
                try:
                    got = json.loads(out)
                except ValueError:
                    problems.append((kind, "stdout is not JSON"))
                    continue
                for path, value in needle.items():
                    cur = got
                    for part in path.split("."):
                        cur = cur.get(part) if isinstance(cur, dict) else None
                    if cur != value:
                        problems.append((kind, f"{path} = {cur!r}, expected "
                                               f"{value!r}"))
            elif needle not in text:
                problems.append((kind, f"stdout lacks {needle!r}"))
        return problems

    def canonical(self, q, answer):
        return json.dumps(answer[:2])

    def close(self):
        import shutil
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ReportsDense, FunctorSystems, CliBatch)}
