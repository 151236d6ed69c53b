"""The immutable records of `entwine.records`: value equality and hashing,
immutability, `replace`, the default repr, and an import of the command
line that leaves the code-generating stdlib modules unloaded."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import entwine
from entwine import GF, QQ, make_example
from entwine.catalog import CatalogEntry, cyclic_group_hopf
from entwine.entwining import counit_morphism
from entwine.errors import InputError
from entwine.fields import FieldError
from entwine.hochschild import regular_bimodule, relative_complex
from entwine.linalg import (AffineSolutionSet, LinMap, LinearConstraints,
                            SCALAR)
from entwine.records import Record
from entwine.separability import (SplitCertificate, check_coseparable,
                                  check_separable, check_split,
                                  check_strongly_separable)
from entwine.structures import Algebra, verify_algebra
from entwine.witness import (WitnessKind, frakz_context, integrability_system,
                             lambda_context, lambda_witness,
                             particular_witness)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _record_classes():
    """Every Record subclass defined in a module of the package."""
    found = set()
    for info in pkgutil.iter_modules(entwine.__path__):
        mod = importlib.import_module(f"entwine.{info.name}")
        for _, obj in inspect.getmembers(mod, inspect.isclass):
            if (issubclass(obj, Record) and obj is not Record
                    and obj.__module__ == mod.__name__):
                found.add(obj)
    return found


@pytest.fixture(scope="module")
def samples():
    """One instance of every record class, built by the library."""
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload
    coext = make_example("self_coextension", {"field": QQ, "n": 2}).payload
    mor = counit_morphism(ext.ent)
    lam_sys, _ = integrability_system(mor)
    lam = lambda_witness(mor, lam_sys.solve().particular)
    family, witness = particular_witness(WitnessKind.INTEGRAL, ext.ent)
    strong = check_strongly_separable(ext)
    broken = Algebra(2, LinMap.zero(QQ, (2, 2), (2,)), ext.alg.unit)
    report = verify_algebra(broken)
    cons = LinearConstraints(QQ, SCALAR, (2,))
    cons.require("x", (LinMap.identity(QQ, SCALAR), SCALAR, SCALAR,
                       ext.alg.identity()))
    out = [
        ext, coext, mor, lam, lam.context, witness, family, strong,
        strong.certificate, check_separable(ext), check_split(ext)[0],
        check_coseparable(coext), report, report.failures[0],
        lambda_context(mor), frakz_context(mor), ext.module_A(),
        ext.alg, ext.coalg, ext.ent, ext.rho_a, ext.fixed, ext.square,
        ext.field, cyclic_group_hopf(2, QQ), regular_bimodule(ext.alg),
        relative_complex(ext.alg, ext.fixed, regular_bimodule(ext.alg)),
        make_example("group_algebra", {"field": QQ, "n": 2}),
        cons.blocks[0],
    ]
    return {type(obj): obj for obj in out}


def test_every_record_class_has_a_sample(samples):
    assert set(samples) == _record_classes()
    assert len(samples) == 28


def test_equal_fields_give_equal_records_and_hashes(samples):
    for cls, obj in samples.items():
        copy = obj.replace()
        assert copy is not obj and copy == obj and not copy != obj, cls
        if cls.__name__ == "CatalogEntry":
            continue  # a dict field
        assert hash(copy) == hash(obj), cls


def test_unhashable_records():
    entry = CatalogEntry("a", {}, None)
    with pytest.raises(TypeError):
        hash(entry)
    cons = LinearConstraints(QQ, SCALAR, SCALAR)
    cons.require("one", (LinMap.identity(QQ, SCALAR), SCALAR, SCALAR,
                         LinMap.identity(QQ, SCALAR)))
    block = cons.blocks[0]
    # a block is an ordinary record: hashable, and its fields stay put
    assert hash(block) == hash(block.replace())
    with pytest.raises(AttributeError):
        block.label = "two"
    assert block.label == "one"


def test_a_changed_field_or_another_class_is_unequal(c2_q):
    ext = c2_q
    assert ext.replace(rho_a=LinMap.zero(QQ, (2,), (2, 2))) != ext
    assert AffineSolutionSet(ext.alg.mult, ext.fixed) \
        != SplitCertificate(ext.alg.mult, ext.fixed)
    assert ext.alg != (ext.alg.dim, ext.alg.mult, ext.alg.unit)


def test_records_are_immutable(samples):
    for cls, obj in samples.items():
        name = cls._fields[0]
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            setattr(obj, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value


def test_replace_reruns_the_constructor_checks():
    m = LinMap.identity(QQ, (2,))
    with pytest.raises(InputError, match="3 rows for codomain of total 2"):
        m.replace(nonzeros=((), (), ()))
    with pytest.raises(InputError, match="multiplication map does not match"):
        Algebra(2, LinMap.zero(QQ, (2, 2), (2,)), (1, 0)).replace(dim=3)
    with pytest.raises(FieldError, match="modulus must be prime"):
        GF(7).replace(p=8)
    with pytest.raises(TypeError):
        m.replace(rows=2)
    assert m.replace(domain=(2, 1)).domain == (2, 1)


def test_own_constructors_take_the_fields_in_order():
    own = {cls for cls in _record_classes() if "__init__" in vars(cls)}
    assert {cls.__name__ for cls in own} == {
        "LinMap", "Field", "Algebra", "Coalgebra", "Entwining",
        "EntwinedModule", "CatalogEntry"}
    for cls in own:
        params = list(inspect.signature(cls.__init__).parameters)
        assert params == ["self", *cls._fields], cls


def test_the_base_constructor_takes_one_value_per_field():
    assert AffineSolutionSet(1, "m").homogeneous == "m"
    with pytest.raises(TypeError,
                       match="AffineSolutionSet takes 2 values, got 1"):
        AffineSolutionSet(1)
    with pytest.raises(TypeError, match="got 3"):
        AffineSolutionSet(1, "m", None)
    with pytest.raises(TypeError, match="no field 'nope'"):
        AffineSolutionSet(1, "m").replace(nope=1)


def test_fields_compare_by_value():
    a, b = GF(7), GF(7)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != GF(11) and a != QQ and QQ == QQ
    assert {a, b, QQ} == {QQ, GF(7)}
    assert (a == "F7") is False


def test_default_repr_keeps_the_field_format():
    assert repr(CatalogEntry("a", {}, None)) == \
        "CatalogEntry(name='a', params={}, payload=None, extras={})"
    first, second = CatalogEntry("a", {}, None), CatalogEntry("a", {}, None)
    assert first.extras is not second.extras
    assert repr(AffineSolutionSet(1, "m")) == \
        "AffineSolutionSet(particular=1, homogeneous='m')"
    # records with their own repr keep it
    assert repr(GF(7)) == "F7"


def test_importing_the_cli_loads_no_code_generation_modules():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, entwine.cli; print(sorted({'dataclasses', "
             "'inspect', 'ast', 'dis'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                           text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
