"""Seeded fuzzing of the command line's input contract.

Catalog documents are mutated at a random place in their JSON tree (a
wrong type, a wrong shape, a deleted entry, a bad scalar, a huge integer)
and each mutant is run through one command: `check`, `solve` (integral,
lambda, frakz), both reports or `hochschild`. Every run must end with exit
code 0, 1 or 2 and no traceback, and exit 2 must print exactly one line,
`input error: ...`, on stderr. A document that passes `check` (each
unmutated source, and every mutant that `check` accepts) also runs through
every other command, and none of those runs may raise `InconsistencyError`,
which always signals a bug. The seed is fixed, so a failure reproduces.
Fixed cases add a key repeated in an object, which JSON allows and the
contract rejects.

    PYTHONPATH=src python tests/test_cli_fuzz.py SEED COUNT

runs COUNT mutants from SEED and prints every failure.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import traceback

from entwine.cli import main
from entwine.errors import InconsistencyError

SEED = 20240611
COUNT = 400

DOCS = {
    "ext_q2": ["--name", "hopf_self_galois", "--n", "2", "--field", "Q"],
    "ext_f3": ["--name", "hopf_self_galois", "--n", "2", "--field", "Fp",
               "--p", "3"],
    "coext_q2": ["--name", "self_coextension", "--n", "2", "--field", "Q"],
}

CHECK = ["check"]
COMMANDS = [
    CHECK,
    ["solve", "--kind", "integral", "--normalized"],
    ["solve", "--kind", "lambda"],
    ["solve", "--kind", "frakz", "--json"],
    ["extension", "report"],
    ["coextension", "report", "--json"],
    ["hochschild", "--n", "1"],
]

# a JSON integer literal with more digits than Python converts by default
HUGE = "9" * 5000
WRONG_TYPES = [None, True, False, 1.5, "x", "", [], {}, [[]], 0, -1, "1/2"]
BAD_SCALARS = ["1.5", "1e3", "1_000", " 2 ", "1/0", "-", "0x10", "+1",
               "1/-2", "١", -1, 3, 2 ** 64, 10 ** 40, True, None, 0.0]
HUGE_INTS = [10 ** 30, -10 ** 30, 2 ** 127 - 1, HUGE]


def _paths(node, prefix=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield prefix, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _set(doc, path, value):
    if not path:
        return value
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


def _delete(doc, path):
    node = doc
    for step in path[:-1]:
        node = node[step]
    del node[path[-1]]
    return doc


def _reshape(value, rng):
    if isinstance(value, list) and value:
        choice = rng.randrange(4)
        if choice == 0:
            return value[:-1]
        if choice == 1:
            return value + [rng.choice(value)]
        if choice == 2:
            return [value]
        return value[0]
    if isinstance(value, dict):
        return [value]
    return [value, value]


def mutate(doc, rng):
    """(description, file bytes) of one random mutant of doc."""
    doc = json.loads(json.dumps(doc))
    paths = list(_paths(doc))
    path, value = rng.choice(paths)
    kind = rng.choice(["type", "shape", "delete", "scalar", "huge", "key"])
    if kind == "delete" and path:
        doc = _delete(doc, path)
    elif kind == "type":
        doc = _set(doc, path, rng.choice(WRONG_TYPES))
    elif kind == "shape":
        doc = _set(doc, path, _reshape(value, rng))
    elif kind == "scalar":
        doc = _set(doc, path, rng.choice(BAD_SCALARS))
    elif kind == "huge":
        doc = _set(doc, path, rng.choice(HUGE_INTS))
    else:
        # an unknown key beside the chosen entry, or a renamed one
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and path:
            parent["x" + str(path[-1])] = parent.pop(path[-1])
        elif isinstance(doc, dict):
            doc["extra"] = 1
    text = json.dumps(doc).replace(f'"{HUGE}"', HUGE)
    return f"{kind} at {list(path)}", text.encode("utf-8")


def run(argv):
    """(exit code, stderr, messages of every InconsistencyError raised) of
    cli.main, with any escaping exception as a traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    raised = []

    def record(self, *args):
        raised.append(str(args[0]) if args else "")
        Exception.__init__(self, *args)
    InconsistencyError.__init__ = record
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = None
    finally:
        del InconsistencyError.__init__
    return code, err.getvalue(), raised


def contract_breaks(code, err):
    problems = []
    if code not in (0, 1, 2):
        problems.append(f"exit code {code!r}")
    if "Traceback" in err:
        problems.append("traceback")
    if code == 2:
        lines = err.splitlines()
        if len(lines) != 1 or not lines[0].startswith("input error: "):
            problems.append(f"stderr is not one input error line: {err!r:.200}")
    return problems


def _problems(what, command, result):
    code, err, raised = result
    found = contract_breaks(code, err)
    found += [f"InconsistencyError: {message}" for message in raised]
    return [f"{what}, {' '.join(command)}: {problem}" for problem in found]


def _after_check(what, path):
    """Problems of every command but `check` on a document `check` accepts."""
    failures = []
    for command in COMMANDS[1:]:
        failures += _problems(what, command, run(command + [path]))
    return failures


def fuzz(seed, count, workdir):
    rng = random.Random(seed)
    sources = {}
    failures = []
    for stem, argv in DOCS.items():
        path = os.path.join(workdir, f"{stem}.json")
        code, err, _ = run(["catalog"] + argv + ["-o", path])
        assert code == 0, err
        with open(path, encoding="utf-8") as fh:
            sources[stem] = json.load(fh)
        failures += _after_check(f"{stem}, unmutated", path)
    mutant = os.path.join(workdir, "mutant.json")
    for i in range(count):
        stem = rng.choice(sorted(sources))
        what, data = mutate(sources[stem], rng)
        with open(mutant, "wb") as fh:
            fh.write(data)
        what = f"#{i} {stem}, {what}"
        command = COMMANDS[i % len(COMMANDS)]
        result = run(command + [mutant])
        failures += _problems(what, command, result)
        if command != CHECK:
            result = run(CHECK + [mutant])
            failures += _problems(what, CHECK, result)
        if result[0] == 0:
            failures += _after_check(what, mutant)
    return failures


def test_mutated_documents_keep_the_input_contract(tmp_path):
    failures = fuzz(SEED, COUNT, str(tmp_path))
    assert not failures, "\n".join(failures)


def test_a_repeated_key_is_an_input_error(tmp_path):
    source = str(tmp_path / "ext_q2.json")
    assert run(["catalog"] + DOCS["ext_q2"] + ["-o", source])[0] == 0
    with open(source, encoding="utf-8") as fh:
        text = json.dumps(json.load(fh))
    top, nested, bimodule = (tmp_path / f"{name}.json"
                             for name in ("top", "nested", "bimodule"))
    # a 1-dimensional algebra first: json.loads alone keeps the real one
    one_dim = '{"dim": 1, "mult": [["1"]], "unit": ["1"]}'
    top.write_text(text.replace('"algebra": ',
                                f'"algebra": {one_dim}, "algebra": ', 1))
    nested.write_text(text.replace('"kind": "Q"', '"kind": "Q", "kind": "Q"',
                                   1))
    bimodule.write_text('{"schema": "entwine/1", "field": {"kind": "Q"}, '
                        '"bimodule": {"dim": 1, "left": [["1", "1"]], '
                        '"left": [["1", "1"]], "right": [["1", "1"]]}}')
    cases = [(CHECK + [str(top)], "algebra"),
             (["extension", "report", str(top)], "algebra"),
             (CHECK + [str(nested)], "kind"),
             (["hochschild", "--n", "1", "--bimodule", str(bimodule), source],
              "left")]
    for argv, key in cases:
        code, err, _ = run(argv)
        assert (code, err) == (2, f"input error: repeated key {key!r}\n"), argv


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else SEED
    count = int(sys.argv[2]) if len(sys.argv) > 2 else COUNT
    with tempfile.TemporaryDirectory() as tmp:
        found = fuzz(seed, count, tmp)
    print("\n".join(found) or f"{count} mutants, no contract break")
    sys.exit(1 if found else 0)
