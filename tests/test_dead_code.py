"""Dead-code scan of the package with the stdlib `ast` module.

Seven checks:

- every function and class defined in src/entwine is referenced somewhere
  in src, tests or perfbench outside its own definition: as a name, an
  attribute, an imported name, or a part of a string literal that is a
  dotted name (the benchmark tracer patches targets such as
  "LinearConstraints.assembled" by string; free text does not count);
  a method counts as referenced only through an attribute or a string;
  docstrings do not count, and dunder methods are exempt because Python
  calls them itself;
- the same scan, run over the library and perfbench only, finds every
  definition referenced: the package is what the command line and the
  benchmark reach, and a construction only the tests call lives in
  tests/constructions.py.  The package's `__init__.py` is left out, since
  a re-export reaches nothing;
- no function in src/entwine or tests assigns a local variable that it
  never reads; `_` is the conventional throwaway and is exempt;
- no module in src/entwine or tests imports a name it never uses; the
  package's `__init__.py` is exempt, since its imports are the public
  re-exports;
- no `if` with a `raise` in its body compares maps or reads a check
  itself: its test may not read `.ok` or a `failures` list, call
  `.equals(`, `.first_difference(`, `.violations(` or a `verify_*` or
  `*_violations` checker, or read a name its function bound from such a
  call.  A failed identity is a `law` or a violation, and
  `CheckReport.require` is the one place a failed report becomes an
  exception.  linalg.py, below that layer, keeps its own assertions, and
  the bodies of `law` and `CheckReport.require` are exempt;
- no class in src/entwine defines an `__init__` whose body only calls
  `_set(self, "name", name)` on its own parameters: the `Record` base
  constructor stores the values of `_fields`, so a record declares its
  fields once;
- linalg.py names `Fraction`, `.numerator` and `.denominator` only inside
  its two boundary helpers, `_stored` (values to integer numerators over
  one denominator) and `_values` (back), and defines no other converter
  between the two forms (`_integral`, `_denominator`).
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "entwine")
TESTS = os.path.join(ROOT, "tests")
SCANNED = [os.path.join(ROOT, top) for top in ("src", "tests", "perfbench")]
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = FUNCTIONS + (ast.ClassDef, ast.Lambda, ast.ListComp, ast.SetComp,
                      ast.DictComp, ast.GeneratorExp)


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _docstring_ids(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef) + FUNCTIONS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _references(tree):
    """(name, line, is_attribute) for every use of a name in a module."""
    docstrings = _docstring_ids(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno, True


def _definitions():
    """(path, name, first line, last line, is_method) of every def and class."""
    for path in _python_files(PACKAGE):
        tree = _parse(path)
        methods = {id(member) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for member in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef,) + FUNCTIONS):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno, id(node) in methods


def _unreferenced(paths):
    """Definitions of src/entwine that no file in paths references outside
    the definition itself."""
    uses = {}
    for path in paths:
        for name, line, is_attribute in _references(_parse(path)):
            uses.setdefault(name, []).append((path, line, is_attribute))
    dead = []
    for path, name, first, last, is_method in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        # a method is reached only through an attribute (or a string naming
        # it); a bare name of the same spelling is some other variable
        outside = [u for u in uses.get(name, ())
                   if (u[0] != path or not first <= u[1] <= last)
                   and (u[2] or not is_method)]
        if not outside:
            dead.append(f"{os.path.relpath(path, ROOT)}:{first} {name}")
    return dead


def dead_definitions():
    return _unreferenced(path for top in SCANNED for path in _python_files(top))


def reached_only_from_tests():
    library = [path for path in _python_files(os.path.join(ROOT, "src"))
               if os.path.basename(path) != "__init__.py"]
    return [f"{line} (reached only from tests)" for line in _unreferenced(
        library + list(_python_files(os.path.join(ROOT, "perfbench"))))]


def _own_scope(fn):
    """Nodes of a function body that belong to its own scope."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, SCOPES):
                stack.append(child)
            elif isinstance(child, ast.Lambda):
                continue
            elif not isinstance(child, (ast.ClassDef,) + FUNCTIONS):
                # a comprehension's first iterable is evaluated in this scope
                stack.append(child.generators[0].iter)


def unused_locals():
    found = []
    for path in [*_python_files(PACKAGE), *_python_files(TESTS)]:
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, FUNCTIONS):
                continue
            stored, declared = {}, set()
            for node in _own_scope(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            read.update(n.target.id for n in ast.walk(fn)
                        if isinstance(n, ast.AugAssign)
                        and isinstance(n.target, ast.Name))
            for name, line in sorted(stored.items(), key=lambda kv: kv[1]):
                if name != "_" and name not in read and name not in declared:
                    found.append(f"{os.path.relpath(path, ROOT)}:{line} "
                                 f"{fn.name}.{name}")
    return found


def unused_imports():
    found = []
    for path in [*_python_files(PACKAGE), *_python_files(TESTS)]:
        if os.path.basename(path) == "__init__.py":
            continue
        tree = _parse(path)
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported.setdefault(name, node.lineno)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for name, line in sorted(imported.items(), key=lambda kv: kv[1]):
            if name not in used:
                found.append(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    return found


COMPARISONS = {"equals", "first_difference", "violations"}
REPORT_GATES = {("structures.py", "law"), ("structures.py", "require")}


def _calls_a_check(node):
    """Whether an expression calls a comparison of maps or a checker."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        fn = call.func
        if isinstance(fn, ast.Attribute) and fn.attr in COMPARISONS:
            return True
        name = fn.attr if isinstance(fn, ast.Attribute) else \
            fn.id if isinstance(fn, ast.Name) else ""
        if name.startswith("verify_") or name.endswith("_violations"):
            return True
    return False


def raising_report_checks():
    found = []
    for path in _python_files(PACKAGE):
        module = os.path.basename(path)
        if module == "linalg.py":
            continue
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, FUNCTIONS) or (module, fn.name) in REPORT_GATES:
                continue
            nodes = list(_own_scope(fn))
            checked = {"failures"} | {
                t.id for node in nodes
                if isinstance(node, ast.Assign) and _calls_a_check(node.value)
                for target in node.targets for t in ast.walk(target)
                if isinstance(t, ast.Name)}
            for node in nodes:
                if not isinstance(node, ast.If):
                    continue
                reads = {n.attr if isinstance(n, ast.Attribute) else n.id
                         for n in ast.walk(node.test)
                         if isinstance(n, (ast.Attribute, ast.Name))}
                raises = any(isinstance(n, ast.Raise)
                             for stmt in node.body for n in ast.walk(stmt))
                if raises and (reads & (checked | {"ok"})
                               or _calls_a_check(node.test)):
                    found.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    return found


def _stores_a_parameter(stmt, params):
    """Whether stmt is `_set(self, "name", name)` for a parameter name."""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "_set" and len(call.args) == 3
            and not call.keywords):
        return False
    target, name, value = call.args
    return (isinstance(target, ast.Name) and target.id == "self"
            and isinstance(name, ast.Constant) and isinstance(value, ast.Name)
            and name.value == value.id and value.id in params)


def store_only_constructors():
    found = []
    for path in _python_files(PACKAGE):
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, FUNCTIONS) and fn.name == "__init__"):
                    continue
                params = {a.arg for a in fn.args.args[1:]}
                if all(_stores_a_parameter(stmt, params) for stmt in fn.body):
                    found.append(f"{os.path.relpath(path, ROOT)}:{fn.lineno} "
                                 f"{cls.name}.__init__")
    return found


BOUNDARY = {"_stored", "_values"}
FRACTION_NAMES = {"Fraction", "numerator", "denominator"}


def fractions_outside_the_boundary():
    """linalg.py lines that read a Fraction or its parts outside the two
    boundary helpers, and its definitions of the old converters."""
    path = os.path.join(PACKAGE, "linalg.py")
    tree = _parse(path)
    inside = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS) and node.name in BOUNDARY:
            inside.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, FUNCTIONS) and node.name in {"_integral",
                                                          "_denominator"}:
            found.append(f"linalg.py:{node.lineno} defines {node.name}")
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in FRACTION_NAMES and node.lineno not in inside:
            found.append(f"linalg.py:{node.lineno} {name}")
    if not BOUNDARY <= {node.name for node in ast.walk(tree)
                        if isinstance(node, FUNCTIONS)}:
        found.append("linalg.py lacks a boundary helper")
    return found


def test_every_definition_is_referenced():
    assert dead_definitions() == []


def test_library_reaches_every_definition():
    assert reached_only_from_tests() == []


def test_no_unused_locals():
    assert unused_locals() == []


def test_no_unused_imports():
    assert unused_imports() == []


def test_only_require_raises_on_a_failed_report():
    assert raising_report_checks() == []


def test_no_constructor_only_stores_its_arguments():
    assert store_only_constructors() == []


def test_fractions_only_at_the_linalg_boundary():
    assert fractions_outside_the_boundary() == []


if __name__ == "__main__":
    for line in (dead_definitions() + reached_only_from_tests()
                 + unused_locals() + unused_imports()
                 + raising_report_checks() + store_only_constructors()
                 + fractions_outside_the_boundary()):
        print(line)
