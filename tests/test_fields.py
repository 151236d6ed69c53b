import time

import pytest

from entwine import GF
from entwine.errors import InputError
from entwine.fields import Field, FieldError, _is_prime


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_matches_trial_division_below_5000():
    assert all(_is_prime(n) == _trial_division(n) for n in range(-3, 5000))


def test_large_prime_modulus_is_accepted_promptly():
    start = time.perf_counter()
    field = GF(2 ** 61 - 1)
    assert time.perf_counter() - start < 0.1
    assert field.mul(2 ** 60, 2) == 1


def test_strong_pseudoprimes_are_rejected():
    # 561 is a Carmichael number; 3215031751 fools bases 2, 3, 5 and 7
    for n in (561, 3215031751, 2 ** 64 - 1):
        with pytest.raises(FieldError):
            GF(n)


def test_modulus_of_64_bits_or_more_is_rejected():
    with pytest.raises(FieldError, match="below 2\\*\\*64"):
        GF(2 ** 64 + 13)
    assert GF(2 ** 64 - 59).p == 2 ** 64 - 59   # the largest 64-bit prime


def test_non_integer_modulus_is_rejected():
    for p in (7.0, True, None, "7"):
        with pytest.raises(FieldError):
            GF(p)


def test_a_field_error_is_an_input_error():
    # a bad field from any library call is malformed input, not a bug
    with pytest.raises(InputError, match="modulus must be prime"):
        GF(4)
    with pytest.raises(InputError, match="modulus must be an integer"):
        Field("Fp", True)
