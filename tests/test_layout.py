"""Layout rules of the package source, checked on its syntax trees."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pathtsp"
SHARED = ("ZERO", "ONE", "TWO", "HALF")
PLACEHOLDER = re.compile(r"\{[A-Za-z_]\w*\}")


def statement_names(node):
    """The names one module-level statement defines: a function or class
    name, or the names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return set()
    return {n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name)}


def module_assignments(path):
    """The names assigned at module level in one source file."""
    return {name for node in ast.parse(path.read_text()).body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for name in statement_names(node)}


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
    return {name for node in ast.parse(path.read_text()).body
            for name in statement_names(node)}


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


def test_only_cuts_reads_the_chain_layers():
    # which chain levels an edge crosses is decided once, by
    # CutChain.levels_crossed; every other module asks it
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted(SRC.glob("*.py")) if path.stem != "cuts"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "layer"]
    assert not readers, f"chain layers read outside cuts: {readers}"


# fields that only the tableau has: its cost-row forms, basis and row maps
TABLEAU_FIELDS = {"z1", "zden", "z1den", "art_of_row", "sp_of_row", "basis"}


def tableau_field_uses(source):
    """The lines of one source text that read or assign an attribute named
    after a tableau field."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in TABLEAU_FIELDS)


def test_only_simplex_reads_the_tableau_fields():
    # the tableau's form is simplex's own; every other module goes through
    # its constructor, its warm modifications and its readers
    users = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.stem != "simplex"
             for line in tableau_field_uses(path.read_text())]
    assert not users, f"tableau fields used outside simplex: {users}"


def test_the_tableau_rule_catches_a_planted_use():
    planted = ("def f(sx):\n"
               "    r = sx.basis.index(0)\n"
               "    sx.z1den = 1\n"
               "    return sx.art_of_row[r], sx.rows, sx.den\n")
    assert tableau_field_uses(planted) == [2, 3, 4]


def names_read(node, modules):
    """The names one syntax tree reads: loaded names, names imported from
    a package module, and module.name attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1:
            out.update(a.name for a in sub.names)
        elif isinstance(sub, ast.Attribute) and \
                isinstance(sub.value, ast.Name) and sub.value.id in modules:
            out.add(sub.attr)
    return out


def test_every_definition_is_read_in_the_package():
    # code with no caller is deleted; helpers only tests use live in tests/
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    reads = [(stem, stmt, names_read(stmt, modules))
             for stem, tree in modules.items() for stmt in tree.body]
    unread = []
    for stem, tree in modules.items():
        if stem == "__init__":
            continue
        for stmt in tree.body:
            for name in statement_names(stmt):
                if not any(name in names and other is not stmt
                           for _, other, names in reads):
                    unread.append(f"{stem}.{name}")
    assert not unread, f"definitions nothing in the package reads: {unread}"


def imported_names(tree):
    """The names the imports of one syntax tree bind, at any depth;
    `from __future__` imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


# imported and never read, on purpose: perfbench/tracing.py wraps it there
UNREAD_IMPORTS = {"reassembler.narrow_cuts"}


def test_every_import_is_read_in_its_module():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in imported_names(tree)
                   if name not in loaded
                   and f"{path.stem}.{name}" not in UNREAD_IMPORTS]
    assert not unread, f"imported names their module never reads: {unread}"


def type_code_reads(source):
    """The lines of one source text that read an attribute named codes."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "codes")


def test_only_reassembler_reads_the_type_codes():
    # tree types are read through reassembler: in bulk by census, one at a
    # time by classify and type_data; cuts builds the codes by keyword
    readers = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
               if path.stem != "reassembler"
               for line in type_code_reads(path.read_text())]
    assert not readers, f"type codes read outside reassembler: {readers}"


def test_the_type_code_rule_catches_a_planted_use():
    planted = ("def f(chain, tree):\n"
               "    prof = CrossingProfile(counts=[], single=[], types=[],\n"
               "                           codes=[None])\n"
               "    return chain.profile(tree).codes[1], prof\n")
    assert type_code_reads(planted) == [4]
