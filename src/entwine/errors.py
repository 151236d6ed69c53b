"""Exception hierarchy, and the record of a failed identity.

CheckFailure(law, at): the identity `law` fails at basis index `at`.  Every
checker lists these (`structures.law` appends one per failed comparison of
two maps, `LinearConstraints.violations` one per failed block), and only
`structures.CheckReport.require` raises them: "<subject>: FAIL <law> fails
at basis index <at>; ...".

InputError: malformed or shape-inconsistent input, never a failed law.
DomainError: well-formed input that violates a mathematical precondition
    (not a coideal, not a coaction, wrong side of a morphism, ...); one
    raised for a failed law carries its first CheckFailure as witness.
GaloisError: a canonical map fails to be bijective; carries the dimension
    and rank data that witnessed the failure.
InconsistencyError: a failed identity of something the library built and
    re-verifies itself; this always signals a bug, never bad user input.
"""

from .records import Record


class CheckFailure(Record):
    _fields = ("law", "at")

    def __repr__(self):
        return f"{self.law} fails at basis index {self.at}"


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
