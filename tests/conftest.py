import sys

import pytest

from entwine import GF, QQ, make_example


@pytest.fixture(scope="session")
def c2_q():
    """The rational group-algebra extension on two elements."""
    return make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload


@pytest.fixture(scope="session")
def c2_f2():
    return make_example("hopf_self_galois", {"field": GF(2), "n": 2}).payload


@pytest.fixture(scope="session")
def coext_q():
    """The rational self-coextension on two elements (pointed)."""
    return make_example("self_coextension", {"field": QQ, "n": 2}).payload


@pytest.fixture(scope="session")
def hopf_c2_q():
    return make_example("group_algebra", {"field": QQ, "n": 2}).payload


@pytest.fixture()
def law_calls(monkeypatch):
    """Every `structures.law` run while the fixture is live, as
    (name, {lhs entries, rhs entries})."""
    from entwine import structures
    law = structures.law
    calls = []

    def recording(failures, name, lhs, rhs):
        calls.append((name, {lhs.entries, rhs.entries}))
        return law(failures, name, lhs, rhs)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("entwine") and getattr(mod, "law", None) is law:
            monkeypatch.setattr(mod, "law", recording)
    return calls
