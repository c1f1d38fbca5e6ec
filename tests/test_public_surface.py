"""Every public name is used by the program, not only by its tests, the
command line reads only public names of the library and every option it
declares, and the package depends on numpy alone."""

import argparse
import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Names exported ahead of their caller, each with the reason it stays.
ALLOWED_UNUSED = {
    "build_quantized_subsample_state":
        "ROADMAP item 7 makes it real through qsim-check",
}


def unused_exports(root: pathlib.Path) -> dict:
    """Names in a module's ``__all__`` that no program file references, by module.

    The program files are the package modules (``__init__`` re-exports only)
    and the scripts.  A reference is a Name or an Attribute; the strings of
    ``__all__`` and of docstrings are constants and do not count.
    """
    package = sorted((root / "src" / "klpricer").glob("*.py"))
    files = [p for p in package if p.name != "__init__.py"]
    files += sorted((root / "scripts").glob("*.py"))
    exported, referenced = {}, set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(dict.fromkeys(ast.literal_eval(node.value), path.stem))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {name: module for name, module in exported.items() if name not in referenced}


def test_every_exported_name_is_referenced():
    unused = unused_exports(ROOT)
    # an allowed name that gains a caller leaves the list
    assert set(ALLOWED_UNUSED) <= set(unused)
    assert {n: m for n, m in unused.items() if n not in ALLOWED_UNUSED} == {}


def traced_names(path: pathlib.Path) -> list:
    """(module, name) of each ``patch(module, "name", ...)`` call in ``path``, read, not run."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "patch" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and isinstance(node.args[1], ast.Constant)):
            found.append((node.args[0].id, node.args[1].value))
    return found


def test_every_name_the_traced_benchmark_patches_exists():
    # perfbench/tracing.py wraps library names by setattr; one that a change
    # deletes fails the traced benchmark run, which no tier-1 test imports
    from klpricer import pricing, process

    modules = {"pricing": pricing, "process": process}
    names = traced_names(ROOT / "perfbench" / "tracing.py")
    assert len(names) >= 6  # the parse still finds tracing.py's patch calls
    assert {module for module, _ in names} <= set(modules)
    missing = [f"{m}.{n}" for m, n in names if not hasattr(modules[m], n)]
    assert missing == []


def private_reads(path: pathlib.Path) -> list:
    """Underscore names of other ``klpricer`` modules that ``path`` reads or imports.

    A module is a name bound by ``from . import ...`` (or ``from klpricer
    import ...``); a read is an attribute ``module._name``, and an import is
    ``from .module import _name``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module in (None, "klpricer"):
            modules.update(alias.asname or alias.name for alias in node.names)
        elif node.level or node.module.startswith("klpricer."):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_cli_reads_no_private_name_of_the_library():
    # the library validates its own input, so the front end has no reason
    # to call a private helper to find out what a method will reject
    assert private_reads(ROOT / "src" / "klpricer" / "cli.py") == []


def args_reads(path: pathlib.Path, functions: set) -> set:
    """Attributes read as ``args.<name>`` inside the named top-level functions of ``path``."""
    reads = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            reads.update(
                sub.attr for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                and isinstance(sub.value, ast.Name) and sub.value.id == "args"
            )
    return reads


def test_every_cli_option_is_read():
    # an option that its command never reads is a dead flag: it parses, and
    # changes nothing.  A command's options are read in main or in
    # run_<command>, and only the code is read here, none of it run
    from klpricer import cli

    path = ROOT / "src" / "klpricer" / "cli.py"
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {"price", "analyze"}
    unread = {
        name: sorted(
            action.dest for action in parser._actions
            if action.dest != "help"
            and action.dest not in args_reads(path, {"main", f"run_{name}"})
        )
        for name, parser in commands.items()
    }
    assert unread == dict.fromkeys(commands, [])


def imported_roots(path: pathlib.Path) -> set:
    """Top-level names of the modules ``path`` imports; relative imports count as the package."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("klpricer" if node.level else node.module.split(".")[0])
    return roots


def test_package_imports_only_numpy_and_the_stdlib():
    allowed = set(sys.stdlib_module_names) | {"numpy", "klpricer"}
    found = {
        path.name: sorted(imported_roots(path) - allowed)
        for path in sorted((ROOT / "src" / "klpricer").glob("*.py"))
    }
    assert "pricing.py" in found
    assert found == dict.fromkeys(found, [])


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
