"""The memoised carriers: `entmod.cotensor`, `entmod.tensor_over_A`,
`witness.lambda_context` and `witness.frakz_context`.

Each is keyed on its records by value, so equal inputs share one result
however they were built, and unequal inputs (another field, another shape)
never do; a memoised result equals a fresh build; and the memo is bounded.
"""

import importlib
import pkgutil

import pytest

import entwine
from entwine import GF, QQ, LinMap, make_example, schema
from entwine import entmod, witness
from entwine.entmod import MEMO_SIZE, cotensor, tensor_over_A
from entwine.entwining import counit_morphism, unit_morphism
from entwine.linalg import kron
from entwine.witness import frakz_context, lambda_context

MEMOS = {"entwine.entmod.cotensor": cotensor,
         "entwine.entmod.tensor_over_A": tensor_over_A,
         "entwine.witness.lambda_context": lambda_context,
         "entwine.witness.frakz_context": frakz_context}


def _document(n, field):
    ext = make_example("hopf_self_galois", {"field": field, "n": n}).payload
    return schema.dumps(schema.entwining_document(ext.ent,
                                                  coaction_a=ext.rho_a))


def _calls(ent):
    """(memo, args) for one call of each memoised construction on the
    entwining's counit morphism and its regular (co)modules."""
    mor = counit_morphism(ent)
    return [(cotensor, (ent.coalg.comult, ent.coalg.comult)),
            (tensor_over_A, (ent.alg.mult, ent.alg.mult)),
            (lambda_context, (mor,)), (frakz_context, (mor,))]


def test_only_the_four_constructions_are_memoised():
    found = {}
    for info in pkgutil.iter_modules(entwine.__path__):
        mod = importlib.import_module(f"entwine.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    assert found == MEMOS


def test_every_memo_is_bounded():
    for memo in MEMOS.values():
        assert memo.cache_info().maxsize == MEMO_SIZE
    assert isinstance(MEMO_SIZE, int) and MEMO_SIZE > 0


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_two_parses_of_one_document_share_each_result(field):
    text = _document(2, field)
    first = schema.parse_document(text).entwining()
    second = schema.parse_document(text).entwining()
    assert first is not second and first == second
    for (memo, args), (_, again) in zip(_calls(first), _calls(second)):
        assert args[0] is not again[0]
        before = memo.cache_info()
        assert memo(*again) is memo(*args)
        after = memo.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) \
            == (1, 1), memo


def test_another_field_misses():
    # over F5 and F7 the n = 2 data have the same numerators: only the
    # field tells the keys apart
    five = schema.parse_document(_document(2, GF(5))).entwining()
    seven = schema.parse_document(_document(2, GF(7))).entwining()
    assert five.alg.mult.nonzeros == seven.alg.mult.nonzeros
    for (memo, args), (_, other) in zip(_calls(five), _calls(seven)):
        before = memo.cache_info()
        got, got_other = memo(*args), memo(*other)
        assert memo.cache_info().misses - before.misses == 2, memo
        assert got != got_other


def test_a_reshaped_map_misses(c2_q):
    comult = c2_q.coalg.comult
    right = kron(LinMap.identity(QQ, (2,)), comult)        # (2, 2) -> (2, 2, 2)
    flat = right.reshaped((4,), (4, 2))
    assert flat.nonzeros == right.nonzeros and flat != right
    before = cotensor.cache_info()
    square, flat_square = cotensor(right, comult), cotensor(flat, comult)
    assert cotensor.cache_info().misses - before.misses == 2
    assert square.dim == flat_square.dim and square != flat_square
    mult = c2_q.alg.mult
    right = kron(LinMap.identity(QQ, (2,)), mult)          # (2, 2, 2) -> (2, 2)
    flat = right.reshaped((4, 2), (4,))
    before = tensor_over_A.cache_info()
    assert tensor_over_A(right, mult) != tensor_over_A(flat, mult)
    assert tensor_over_A.cache_info().misses - before.misses == 2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_memoised_results_equal_fresh_builds(n, field, monkeypatch):
    """Every carrier the two contexts build, on the counit and the unit
    morphism, equals the same construction run afresh with empty memos."""
    ent = make_example("hopf_self_galois",
                       {"field": field, "n": n}).payload.ent
    calls = []

    def recording(memo):
        def record(*args):
            calls.append((memo, args))
            return memo(*args)
        return record
    monkeypatch.setattr(entmod, "cotensor", recording(cotensor))
    monkeypatch.setattr(entmod, "tensor_over_A", recording(tensor_over_A))
    for mor in (counit_morphism(ent), unit_morphism(ent)):
        for memo in (lambda_context, frakz_context):
            calls.append((memo, (mor,)))
            memo(mor)
    monkeypatch.undo()
    assert {memo for memo, _ in calls} == set(MEMOS.values())
    memoised = [memo(*args) for memo, args in calls]
    for memo in MEMOS.values():
        memo.cache_clear()
    for (memo, args), kept in zip(calls, memoised):
        fresh = memo.__wrapped__(*args)
        assert fresh is not kept and fresh == kept, memo


def test_the_witness_systems_are_rebuilt_on_shared_contexts(c2_q):
    mor = counit_morphism(c2_q.ent)
    first, ctx = witness.integrability_system(mor)
    second, again = witness.integrability_system(mor)
    assert again is ctx and second is not first
    first, ctx = witness.cointegrability_system(mor)
    second, again = witness.cointegrability_system(mor)
    assert again is ctx and second is not first
