"""Laws that a command no longer runs twice, and the balanced square it no
longer builds twice.

Galois builds run only the "entwined compatibility" law of A (resp. C)
over its own (co)extension, and reports and `hochschild` skip the regular
bimodule's laws. Each skipped law must restate, with both sides equal as
maps up to order, a law the same path still runs. That is checked here on
random structure maps over GF(7), which satisfy none of the laws, so equal
verdicts alone would not pass. Reports assemble the relative complex on
the extension's own A (x)_B A, which must be the quotient that
`entmod.balanced_power` builds. The flip entwining of the counit and
unit morphisms runs no law, because its four laws hold for any maps.
"""

import math
import random

import pytest

from entwine import GF, QQ, default_catalog
from entwine.entmod import (balanced_power as _balanced_power,
                            check_right_comodule, check_right_module)
from entwine.entwining import Entwining, verify_entwining
from entwine.galois import GaloisExtension, verify_action, verify_coaction
from entwine.hochschild import regular_bimodule, verify_bimodule
from entwine.linalg import LinMap
from entwine.structures import (Algebra, Coalgebra, verify_algebra,
                                verify_coalgebra)

F7 = GF(7)


def _random_map(rng, domain, codomain):
    rows = [[rng.randrange(7) for _ in range(math.prod(domain))]
            for _ in range(math.prod(codomain))]
    return LinMap.from_rows(F7, domain, codomain, rows)


def _random_vector(rng, d):
    return tuple(rng.randrange(7) for _ in range(d))


def _laws_of(calls, check):
    calls.clear()
    failures = []
    check(failures)
    return list(calls), failures


def _assert_restated(calls, skipped, kept):
    dropped, dropped_failures = _laws_of(calls, skipped)
    still, _ = _laws_of(calls, kept)
    # every skipped law fails on the random data, so its sides differ
    assert len(dropped_failures) == len(dropped)
    kept_sides = [sides for _, sides in still]
    for name, sides in dropped:
        assert len(sides) == 2
        assert sides in kept_sides, name


@pytest.mark.parametrize("seed", range(5))
def test_module_laws_of_the_product_restate_the_algebra_laws(law_calls, seed):
    rng = random.Random(seed)
    d = 3
    alg = Algebra(d, _random_map(rng, (d, d), (d,)), _random_vector(rng, d))
    _assert_restated(
        law_calls,
        lambda failures: check_right_module(alg, alg.mult, failures),
        lambda failures: failures.extend(verify_algebra(alg).failures))


@pytest.mark.parametrize("seed", range(5))
def test_comodule_laws_of_the_coproduct_restate_the_coalgebra_laws(law_calls,
                                                                   seed):
    rng = random.Random(seed)
    d = 3
    coalg = Coalgebra(d, _random_map(rng, (d,), (d, d)),
                      _random_vector(rng, d))
    _assert_restated(
        law_calls,
        lambda failures: check_right_comodule(coalg, coalg.comult, failures),
        lambda failures: failures.extend(verify_coalgebra(coalg).failures))


@pytest.mark.parametrize("seed", range(5))
def test_module_and_comodule_laws_of_the_data_restate_their_checks(law_calls,
                                                                    seed):
    # A's coaction laws in build_galois, C's action laws in build_coextension
    rng = random.Random(seed)
    d, e = 3, 2
    alg = Algebra(e, _random_map(rng, (e, e), (e,)), _random_vector(rng, e))
    coalg = Coalgebra(e, _random_map(rng, (e,), (e, e)),
                      _random_vector(rng, e))
    rho = _random_map(rng, (d,), (d, e))
    _assert_restated(
        law_calls,
        lambda failures: check_right_comodule(coalg, rho, failures),
        lambda failures: failures.extend(verify_coaction(coalg, rho).failures))
    act = _random_map(rng, (d, e), (d,))
    _assert_restated(
        law_calls,
        lambda failures: check_right_module(alg, act, failures),
        lambda failures: failures.extend(verify_action(alg, act).failures))


@pytest.mark.parametrize("seed", range(5))
def test_regular_bimodule_laws_restate_the_algebra_laws(law_calls, seed):
    rng = random.Random(seed)
    d = 3
    alg = Algebra(d, _random_map(rng, (d, d), (d,)), _random_vector(rng, d))
    _assert_restated(
        law_calls,
        lambda failures: failures.extend(
            verify_bimodule(alg, regular_bimodule(alg)).failures),
        lambda failures: failures.extend(verify_algebra(alg).failures))


@pytest.mark.parametrize("seed", range(5))
def test_flip_laws_hold_for_any_maps(law_calls, seed):
    # counit_morphism and unit_morphism build their flip entwining without
    # running its four laws, which hold whatever the structure maps are
    rng = random.Random(seed)
    da, dc = 3, 2
    alg = Algebra(da, _random_map(rng, (da, da), (da,)),
                  _random_vector(rng, da))
    coalg = Coalgebra(dc, _random_map(rng, (dc,), (dc, dc)),
                      _random_vector(rng, dc))
    assert len(verify_algebra(alg).failures) == 3
    assert len(verify_coalgebra(coalg).failures) == 3
    law_calls.clear()
    flip = Entwining(alg, coalg, LinMap.twist(F7, (dc,), (da,)))
    assert verify_entwining(flip).ok
    assert [name for name, _ in law_calls] == [
        "multiplicativity", "unitality", "comultiplicativity", "counitality"]
    for _, sides in law_calls:
        assert len(sides) == 1


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_extension_square_is_the_balanced_square(field):
    extensions = [entry.payload for entry in default_catalog(field)
                  if isinstance(entry.payload, GaloisExtension)]
    assert extensions
    for ext in extensions:
        power = _balanced_power(ext.alg, ext.fixed, 2)
        assert ext.square.ambient == power.ambient
        assert ext.square.relations == power.relations
        assert ext.square.projection.entries == power.projection.entries
        assert ext.square.section.entries == power.section.entries
