"""The package's surface: what it exports, what it asserts, and the names the
traced benchmark wraps."""

import ast
import importlib.util
import re
import types
from pathlib import Path

import rtfinite
from rtfinite import bases, cli, context, cyclotomic, lattice, positivity, quantum
from rtfinite.context import LevelContext
from rtfinite.cyclotomic import CyclotomicInteger

PACKAGE_DIR = Path(rtfinite.__file__).resolve().parent
PERFBENCH_DIR = PACKAGE_DIR.parents[1] / "perfbench"
README = PACKAGE_DIR.parents[1] / "README.md"

# the deciders and the types they take and return
DECISION_NAMES = {
    "decide_torus", "decide_closed", "discreteness_certificate", "DiscretenessReport",
    "theorem_predicate", "clause_witness_k",
    "FinitenessVerdict", "PositivityReport",
    "Finiteness", "Positivity", "Crosscheck", "Provenance", "Sign",
    "LevelContext", "UsageError", "InvariantViolation",
}


def test_package_exports_only_the_decision_names():
    public = {
        name for name, value in vars(rtfinite).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == DECISION_NAMES


def test_no_assert_statements_in_the_package():
    # every invariant must survive python -O, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_traced_benchmark_wraps_and_restores_the_program(monkeypatch):
    # install() raises when a name it wraps is gone, or when a module that
    # imported it by name holds a different object
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    spec = importlib.util.spec_from_file_location("perfbench_replay", PERFBENCH_DIR / "replay.py")
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)

    owners = (bases, cli, context, cyclotomic, lattice, positivity, quantum,
              LevelContext, CyclotomicInteger)
    before = [(owner, dict(vars(owner))) for owner in owners]
    main = cli.main
    tracer = replay.Tracer()
    try:
        replay.install(tracer)
        assert cli.main is not main
    finally:
        tracer.restore()
    for owner, attrs in before:
        assert dict(vars(owner)).keys() == attrs.keys()
        assert all(vars(owner)[name] is value for name, value in attrs.items()), owner


def test_no_unused_module_level_imports():
    # __init__.py imports only to re-export, so it is left out.  An import in
    # a function body is used when that function reads the name
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope, imports in [(tree, tree.body)] + [(f, ast.walk(f)) for f in functions]:
            used = {node.id for node in ast.walk(scope)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in imports:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = (alias.asname or alias.name).split(".")[0]
                        if name not in used:
                            unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _names_read(tree, strings=False):
    """Every name and attribute the tree loads; with strings, also every string
    constant that is an identifier, as the tracer names what it wraps."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                read.add(node.value)
    return read


def test_every_private_module_level_definition_is_read():
    # a private function or class that no module of the package reads, by name
    # or as an attribute, is left over from code that is gone
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    unread = [f"{name}:{node.lineno} {node.name}"
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in read]
    assert unread == []


def _public_definitions(trees):
    """(label, name) for every public module-level function, class and
    constant, and every non-dunder method of those classes."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                continue
            found += [(f"{module}.{name}", name) for name in names if not name.startswith("_")]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not item.name.startswith("__")]
    return found


def test_every_public_definition_has_a_reader():
    # a public definition is read in src/, exported by rtfinite, read by the
    # acceptance spec, or named by the traced benchmark; what only the tracer
    # names is pinned, so that list can only shrink as the tracer lets go
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    spec = ast.parse((PACKAGE_DIR.parents[1] / "tests" / "test_acceptance.py")
                     .read_text(encoding="utf-8"))
    readers = set().union(exported, _names_read(spec), *map(_names_read, trees.values()))
    tracer = ast.parse((PERFBENCH_DIR / "replay.py").read_text(encoding="utf-8"))
    named_by_tracer = _names_read(tracer, strings=True)
    others = [(label, name) for label, name in _public_definitions(trees)
              if name not in readers]
    unread = [label for label, name in others if name not in named_by_tracer]
    assert unread == []
    assert {label for label, _ in others} == {
        "CyclotomicInteger.conjugate", "CyclotomicInteger.trace",
        "lattice.naive_norm_formula", "quantum.qfactorial",
    }


def test_no_class_defines_its_own_equality():
    # results are plain values: a class that needs its own __eq__, __ne__ or
    # __hash__ holds something that does not compare as a value
    defined = [f"{path.name}:{item.lineno} {node.name}.{item.name}"
               for path in sorted(PACKAGE_DIR.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and item.name in ("__eq__", "__ne__", "__hash__")]
    assert defined == []


def test_every_parameter_is_read():
    # a parameter the body never reads is an input no caller can vary
    unread = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {a.arg}" for a in params
                       if a.arg not in ("self", "cls") and a.arg not in read]
    assert unread == []


def test_every_raise_is_a_usage_error_or_an_invariant_violation():
    # cli.main maps exactly these two classes to exit codes 2 and 3
    others = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name)
                        and exc.id in ("UsageError", "InvariantViolation")):
                    others.append(f"{path.name}:{node.lineno}")
    assert others == []


def test_every_module_name_in_the_readme_resolves():
    # a code span that starts with `<submodule>.<name>`, with or without call
    # arguments, names an attribute of that module: a rename cannot leave the
    # README pointing at a name that is gone
    modules = {path.stem for path in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    spans = re.findall(r"`([^`\n]*)`", README.read_text(encoding="utf-8"))
    cited = {match.groups() for span in spans
             if (match := re.match(r"(\w+)\.(\w+)", span)) and match[1] in modules}
    missing = sorted(f"{module}.{name}" for module, name in cited
                     if not hasattr(importlib.import_module(f"rtfinite.{module}"), name))
    assert len(cited) >= 15 and missing == []


def test_every_limit_in_the_readme_is_the_cli_constant():
    # a `MAX_... = N` span states the value of that constant in rtfinite.cli:
    # a changed limit cannot leave the README's table stating the old one
    spans = re.findall(r"`(MAX_\w+) = ([\d_]+)`", README.read_text(encoding="utf-8"))
    assert len(spans) >= 4
    assert {name: int(value) for name, value in spans} == {
        name: getattr(cli, name) for name, _ in spans}
