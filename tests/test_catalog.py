import pytest

from entwine import (GF, QQ, make_example, verify_algebra, verify_coalgebra,
                     verify_entwining)
from entwine.catalog import HopfData, sweedler_hopf
from entwine.errors import InputError
from entwine import schema
from entwine.galois import Coextension, GaloisExtension

from constructions import default_catalog, entwining_of


def test_every_payload_is_verifier_clean():
    for field in (QQ, GF(2), GF(5)):
        for entry in default_catalog(field):
            ent = entwining_of(entry)
            assert verify_algebra(ent.alg).ok
            assert verify_coalgebra(ent.coalg).ok
            assert verify_entwining(ent).ok


def test_group_algebra_entry():
    entry = make_example("group_algebra", {"field": QQ, "n": 3})
    h = entry.payload
    assert isinstance(h, HopfData)
    assert h.alg.dim == 3
    # antipode is inversion: s^i -> s^{-i}
    assert h.antipode.column(1) == (0, 0, 1)


def test_char_divides_order_warning():
    entry = make_example("group_algebra", {"field": GF(2), "n": 2})
    assert entry.extras["warnings"]
    entry2 = make_example("group_algebra", {"field": GF(3), "n": 2})
    assert not entry2.extras["warnings"]


def test_function_coalgebra_entry():
    entry = make_example("group_function_coalgebra", {"field": QQ, "n": 2})
    h = entry.payload
    assert verify_coalgebra(h.coalg).ok
    # pointwise idempotents multiply diagonally
    def product(u, v):
        return h.alg.mult.apply(tuple(x * y for x in u for y in v))
    assert product((1, 0), (1, 0))[0] == 1
    assert product((1, 0), (0, 1)) == (0, 0)


def test_sweedler_characteristic_guard():
    with pytest.raises(InputError):
        sweedler_hopf(GF(2))
    assert sweedler_hopf(GF(3)).alg.dim == 4


def test_quotient_entry_invariant_warnings():
    ok = make_example("hopf_quotient_galois", {"field": QQ, "n": 4, "d": 2})
    assert ok.extras["invariant"] is not None
    broke = make_example("hopf_quotient_galois", {"field": GF(2), "n": 4,
                                                  "d": 2})
    assert broke.extras["invariant"] is None
    assert broke.extras["warnings"]


def test_quotient_entry_rejects_bad_divisor():
    with pytest.raises(InputError):
        make_example("hopf_quotient_galois", {"field": QQ, "n": 4, "d": 3})


def test_unknown_name_rejected():
    with pytest.raises(InputError):
        make_example("no_such_family", {"field": QQ})


def test_missing_field_rejected():
    with pytest.raises(InputError):
        make_example("group_algebra", {"n": 2})


def test_deterministic_emission():
    def emit():
        entry = make_example("hopf_self_galois", {"field": QQ, "n": 2})
        return schema.dumps(schema.entwining_document(entry.payload.ent,
                                                      coaction_a=entry.payload.rho_a))
    assert emit() == emit()

    def emit2():
        entry = make_example("self_coextension", {"field": GF(3), "n": 2})
        return schema.dumps(schema.entwining_document(entry.payload.ent,
                                                      action_c=entry.payload.rho_c))
    assert emit2() == emit2()


def test_payload_kinds():
    e1 = make_example("hopf_self_galois", {"field": QQ, "n": 2})
    assert isinstance(e1.payload, GaloisExtension)
    e2 = make_example("self_coextension", {"field": QQ, "n": 2})
    assert isinstance(e2.payload, Coextension)
    e3 = make_example("trivial_entwining", {"field": QQ, "n": 2})
    assert e3.payload.coalg.dim == 1
    e4 = make_example("flip_entwining", {"field": QQ, "na": 2, "nc": 3})
    assert e4.payload.alg.dim == 2 and e4.payload.coalg.dim == 3


@pytest.mark.parametrize("name, params", [
    ("group_algebra", {"hopf": "bogus"}),
    ("hopf_self_galois", {"hopf": "Sweedler"}),
    ("self_coextension", {"hopf": "sweedler"}),
    ("hopf_quotient_galois", {"hopf": "sweedler"}),
    ("group_algebra", {"n": 2.9}),
    ("group_algebra", {"n": True}),
    ("group_algebra", {"n": "2"}),
    ("hopf_quotient_galois", {"n": 4, "d": 2.0}),
    ("flip_entwining", {"na": 2, "nc": True}),
])
def test_parameters_are_not_coerced(name, params):
    # int() would read 2.9 as 2 and True as 1, and an unread or unknown
    # hopf value would silently give the cyclic group
    with pytest.raises(InputError):
        make_example(name, dict(params, field=QQ))


@pytest.mark.parametrize("name, params, unread", [
    ("group_algebra", {"n": 2, "dual": True, "d": 7, "nc": 3}, "d, dual, nc"),
    ("hopf_self_galois", {"n": 2, "dual": False}, "dual"),
    ("hopf_self_galois", {"hopf": "sweedler", "n": 3}, "n"),
    ("hopf_quotient_galois", {"n": 4, "d": 2, "na": 2}, "na"),
    ("flip_entwining", {"na": 2, "nc": 2, "n": 2}, "n"),
    ("trivial_entwining", {"n": 2, "p": 7}, "p"),
])
def test_unread_parameters_are_named_and_rejected(name, params, unread):
    with pytest.raises(InputError, match=f"{name} does not read {unread}"):
        make_example(name, dict(params, field=QQ))


def test_dual_must_be_a_boolean():
    with pytest.raises(InputError):
        make_example("self_coextension", {"field": QQ, "n": 2, "dual": "yes"})


@pytest.mark.parametrize("name, params", [
    ("group_algebra", {"n": 3}),
    ("group_algebra", {"hopf": "sweedler"}),
    ("group_function_coalgebra", {"n": 2}),
    ("hopf_self_galois", {"n": 2}),
    ("hopf_self_galois", {"hopf": "sweedler"}),
    ("hopf_quotient_galois", {"n": 4, "d": 2}),
    ("comodule_algebra_entwining", {"n": 2}),
    ("self_coextension", {"n": 2, "dual": True}),
    ("self_coextension", {"n": 2, "dual": False}),
    ("trivial_entwining", {"n": 2}),
    ("flip_entwining", {"na": 2, "nc": 3}),
])
def test_every_read_parameter_is_accepted(name, params):
    entry = make_example(name, dict(params, field=GF(7)))
    assert entry.params == dict(params, field=GF(7))
