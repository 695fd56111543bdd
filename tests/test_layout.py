"""Layout rules of the package source, checked on its syntax trees."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pathtsp"
SHARED = ("ZERO", "ONE", "TWO", "HALF")
PLACEHOLDER = re.compile(r"\{[A-Za-z_]\w*\}")


def module_assignments(path):
    """The names assigned at module level in one source file."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            names.update(n.id for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return names


def test_shared_constants_are_defined_once():
    owners = {name: [] for name in SHARED}
    for path in sorted(SRC.glob("*.py")):
        for name in module_assignments(path) & set(SHARED):
            owners[name].append(path.name)
    twice = {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert not twice, f"shared constants assigned in several modules: {twice}"


def docstring_nodes(tree):
    """The string constants that are docstrings of the module, a class or
    a function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def placeholder_strings(path):
    """(line, text) of every plain string literal holding a {name}
    placeholder; docstrings and the parts of f-strings are skipped."""
    tree = ast.parse(path.read_text())
    skip = docstring_nodes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            skip.update(id(part) for part in node.values)
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in skip and PLACEHOLDER.search(node.value)]


def test_no_placeholder_in_a_plain_string():
    found = {f"{path.name}:{line}": text
             for path in sorted(SRC.glob("*.py"))
             for line, text in placeholder_strings(path)}
    assert not found, f"plain strings with a {{name}} placeholder: {found}"


def top_level_definitions(path):
    """The names a module defines at top level: assignments, functions and
    classes, not the names it imports."""
    defs = {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return defs | module_assignments(path)


def test_names_are_imported_from_their_defining_module():
    defined = {path.stem: top_level_definitions(path)
               for path in SRC.glob("*.py")}
    relayed = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module is not None:
                names = [a.name for a in node.names
                         if a.name not in defined[node.module]]
                if names:
                    relayed[f"{path.name}:{node.lineno}"] = names
    assert not relayed, f"names imported through another module: {relayed}"


def fraction_callers(path):
    """The names of the functions in one source file that call Fraction(."""
    callers = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            if any(isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name)
                   and call.func.id == "Fraction"
                   for call in ast.walk(node)):
                callers.add(node.name)
    return callers


def test_simplex_builds_fractions_only_in_its_readers():
    # the tableau reads its inputs as int ratios; only the results it
    # hands back are Fractions
    extra = fraction_callers(SRC / "simplex.py") - {
        "solution", "objective", "_phase1_objective"}
    assert not extra, f"Fraction( called outside the readers: {extra}"
