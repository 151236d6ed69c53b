"""The benchmark tracer patches library functions by name
(`perfbench/spans.py`); a renamed or deleted target would first show up as
a failed traced run, so every target is resolved here."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_spanned_target_resolves():
    spans = _spans()
    missing = []
    for name, modname, attr in spans.SPANNED:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            ok = cls is not None and callable(vars(cls).get(meth))
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append((name, modname, attr))
    assert missing == []
    for modname in spans.VERIFY_MODULES:
        importlib.import_module(modname)


def test_every_counted_field_op_resolves():
    from entwine.fields import Field
    spans = _spans()
    assert [op for op in spans.FIELD_OPS if not callable(vars(Field).get(op))] == []


def test_traced_solve_records_assembly_and_systems():
    # one small system solved under the recorder: the spans and the system
    # shapes read off the constraint blocks must be there, and uninstall
    # must put the library back
    import entwine.linalg
    from entwine import QQ, WitnessKind, make_example, solve_witness
    spans = _spans()
    original = entwine.linalg.op_in_unknown
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload
    rec = spans.Recorder()
    rec.install()
    try:
        assert entwine.linalg.op_in_unknown is not original
        rec.active = True
        sol = solve_witness(WitnessKind.INTEGRAL, ext.ent)
        rec.active = False
    finally:
        rec.uninstall()
    assert entwine.linalg.op_in_unknown is original
    assert sol.feasible
    metrics = rec.summary(1.0)
    for key in ("linalg.system.count", "linalg.system.rows_raw",
                "linalg.op_in_unknown.s"):
        assert metrics[key] > 0, key
