"""Exception hierarchy.

InputError: malformed or shape-inconsistent input, never a failed law.
DomainError: well-formed input that violates a mathematical precondition
    (not a coideal, not a coaction, wrong side of a morphism, ...).  A
    failed law is always a DomainError raised by `CheckReport.require`,
    with the first failure as its witness.
GaloisError: a canonical map fails to be bijective; carries the dimension
    and rank data that witnessed the failure.
InconsistencyError: an internal re-verification failed; this always signals
    a bug, never bad user input.
"""


class EntwineError(Exception):
    pass


class InputError(EntwineError):
    pass


class DomainError(EntwineError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GaloisError(EntwineError):
    def __init__(self, message, expected_dim=None, actual_dim=None, rank=None):
        super().__init__(message)
        self.expected_dim = expected_dim
        self.actual_dim = actual_dim
        self.rank = rank


class InconsistencyError(EntwineError):
    pass
