"""The benchmark's own tests (standard library unittest; pytest does not
collect this directory).

    python3 perfbench/selftest.py

Checks that the seeded generator gives verifier-clean, seed-determined
documents, that the expected-answer table agrees with catalog-basis runs
for every prime of every field class, that the command-line checks accept
the library's current answers, and that tracing changes no answer.
"""

import os
import random
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import expected  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def _pools(label, order):
    return [None] if label == "Q" else W.primes_for(label, order)


class GeneratorTest(unittest.TestCase):

    def test_conjugated_data_pass_the_verifiers(self):
        from entwine import schema, verify_algebra, verify_coalgebra
        from entwine.galois import verify_action, verify_coaction
        rng = random.Random("selftest")
        for slot, family, params, order, labels in W.REPORT_SLOTS:
            for label in labels:
                for p in _pools(label, order):
                    payload = W.catalog_payload(family, params, p)
                    doc = schema.parse_document(gen.dumps(
                        W.report_document(payload, p, rng)))
                    where = f"{slot}/{label} p={p}"
                    self.assertTrue(verify_algebra(doc.algebra).ok, where)
                    self.assertTrue(verify_coalgebra(doc.coalgebra).ok, where)
                    if doc.coaction_a is not None:
                        rep = verify_coaction(doc.coalgebra, doc.coaction_a)
                    else:
                        rep = verify_action(doc.algebra, doc.action_c)
                    self.assertTrue(rep.ok, where)

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        def texts(seed, k):
            wl = W.ReportsDense(seed, ROOT)
            wl.prepare()
            return [q.text for q in wl.cycle(k)]
        self.assertEqual(texts(7, 0), texts(7, 0))
        self.assertEqual(texts(7, 3), texts(7, 3))
        self.assertNotEqual(sorted(texts(7, 0)), sorted(texts(8, 0)))
        self.assertNotEqual(sorted(texts(7, 0)), sorted(texts(7, 1)))
        self.assertEqual(len(set(texts(7, 0))), len(texts(7, 0)))

    def test_malformed_documents_follow_the_seed(self):
        def files(seed):
            wl = W.CliBatch(seed, ROOT)
            wl.prepare()
            try:
                out = []
                for q in wl.cycle(0):
                    if q.key.startswith("malformed/"):
                        with open(q.args[-1], "rb") as fh:
                            out.append((q.key, fh.read()))
                return out
            finally:
                wl.close()
        first = files(5)
        self.assertEqual(first, files(5))
        self.assertNotEqual(first, files(6))
        keys = {k for k, _ in first}
        for known in W.KNOWN_BREAKS:
            self.assertIn(f"malformed/{known}", keys)


class ExpectedTableTest(unittest.TestCase):
    """Every entry against catalog-basis runs, for every prime of its
    class."""

    def test_reports(self):
        wl = W.ReportsDense(0, ROOT)
        for slot, family, params, order, labels in W.REPORT_SLOTS:
            for label in labels:
                for p in _pools(label, order):
                    payload = W.catalog_payload(family, params, p)
                    text = gen.dumps(W.report_document(payload, p, None))
                    struct, report, _ = wl.ask(W.Question("t", "", "report",
                                                          text=text))
                    self.assertEqual(W.report_summary(report),
                                     expected.REPORTS[f"{slot}/{label}"],
                                     f"{slot}/{label} p={p}")
                    self.assertEqual(W.recheck_report(struct, report), [])

    def test_functors(self):
        wl = W.FunctorSystems(0, ROOT)
        wl.lambdas, wl.verified = {}, set()
        for label, n, asks in W.FUNCTOR_GROUPS:
            for p in _pools(label, n):
                text = W.functor_document(n, p)
                for ask in asks:
                    q = W.Question("t", f"{label}/n{n}/{ask}", ask, text=text)
                    self.assertEqual(wl.check(q, wl.ask(q)), [],
                                     f"{q.key} p={p}")

    def test_cli_answers_pass_their_checks(self):
        wl = W.CliBatch(0, ROOT)
        wl.prepare()
        wl.in_process = True
        try:
            for q in wl.cycle(0):
                if not q.key.startswith("malformed/"):
                    self.assertEqual(wl.check(q, wl.ask(q)), [], q.key)
        finally:
            wl.close()


class TracingTest(unittest.TestCase):

    def test_traced_answers_equal_untraced_and_originals_return(self):
        import entwine.linalg as linalg
        from entwine.fields import Field
        original_rref, original_add = linalg.rref, Field.__dict__["add"]
        wl = W.ReportsDense(3, ROOT)
        wl.prepare()
        questions = [q for q in wl.cycle(0) if "n2" in q.key or "n3" in q.key]
        plain = [wl.canonical(q, wl.ask(q)) for q in questions]
        rec = spans.Recorder()
        rec.install()
        try:
            rec.active = True
            traced = [wl.canonical(q, wl.ask(q)) for q in questions]
            rec.active = False
        finally:
            rec.uninstall()
        self.assertEqual(plain, traced)
        self.assertIs(linalg.rref, original_rref)
        self.assertIs(Field.__dict__["add"], original_add)
        layer = rec.summary(1.0)
        self.assertGreater(layer["linalg.rref.calls"], 0)
        self.assertGreater(layer["fields.ops"], 0)
        self.assertGreater(layer["galois.build_galois.s"], 0)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_tmp"),
                      ignore_errors=True)
