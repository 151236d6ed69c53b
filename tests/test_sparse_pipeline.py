"""The pipeline never builds dense matrices.

With `LinMap.entries` (the dense rows, read only at the JSON and printing
boundary) made to raise, every question below must still be answered: the
solvers, checkers and functor constructions work on the stored sparse rows.
"""

import pytest

from entwine import GF, QQ, make_example
from entwine.entmod import (adjunction_maps, regular_comodule, regular_module,
                            standard_module)
from entwine.entwining import counit_morphism
from entwine.hochschild import _assemble_complex, cohomology_dim, regular_bimodule
from entwine.linalg import LinMap
from entwine.separability import check_coseparable, check_strongly_separable
from entwine.witness import (cointegrability_system, integrability_system,
                             lambda_witness, nu_from_lambda)


@pytest.fixture()
def no_dense_rows(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense rows of a LinMap were read")
    monkeypatch.setattr(LinMap, "entries", property(refuse))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_pipeline_never_densifies(field, no_dense_rows):
    ext = make_example("hopf_self_galois", {"field": field, "n": 2}).payload
    coext = make_example("self_coextension", {"field": field, "n": 2}).payload
    for strategy in ("fixed_integral", "search"):
        assert check_strongly_separable(ext, strategy).found
    assert check_coseparable(coext) is not None
    cx = _assemble_complex(ext.alg, ext.fixed, regular_bimodule(ext.alg), 2,
                           ext.square)
    assert [cohomology_dim(cx, n)[0] for n in (1, 2)] == [0, 0]
    mor = counit_morphism(ext.ent)
    lam = integrability_system(mor, total=True)[0].solve()
    assert lam.feasible
    assert cointegrability_system(mor, total=True)[0].solve().feasible
    m = standard_module("mod_tensor_c", regular_module(ext.alg), ext.ent)
    nu = nu_from_lambda(lambda_witness(mor, lam.particular), m)
    assert nu.rows == m.dim
    mt = standard_module("comod_tensor_a", regular_comodule(mor.dst.coalg),
                         mor.dst)
    unit, counit = adjunction_maps(mor, m, mt)
    assert unit.cols == m.dim and counit.rows == mt.dim
