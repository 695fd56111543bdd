"""Layout rules of the package source and its tests, checked on their
syntax trees."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pathtsp"
SHARED = ("ZERO", "ONE", "HALF")
# the fixed analysis constants and the package module that assigns each
FIXED = {"XI": "cuts", "EPS": "reassembler", "BETA_DEFAULT": "parity",
         "LEGACY": "parity"}
PLACEHOLDER = re.compile(r"\{[A-Za-z_]\w*\}")
TEST_MODULE = re.compile(r"(^|\.)test_")


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
    # xi, eps, the default beta and the legacy audit are assigned in their
    # modules alone, in the package, its tests, demos and benchmark;
    # test_acceptance restates
    # the paper's values on its own and checks them against the package's
    others = [path for folder in ("tests", "demos", "perfbench")
              for path in sorted((ROOT / folder).glob("*.py"))
              if path.name != "test_acceptance.py"]
    copies = fixed_constant_copies(SRC, others)
    assert not copies, f"fixed constants assigned elsewhere: {copies}"


def fixed_constant_copies(src, others):
    """[file: name] of every module-level assignment of a FIXED name
    outside the module of src that defines it, in src and the files
    others."""
    return [f"{path.name}: {name}"
            for path in sorted(src.glob("*.py")) + others
            for name in sorted(module_assignments(path) & FIXED.keys())
            if path != src / f"{FIXED[name]}.py"]


def test_the_fixed_constant_rule_catches_planted_copies(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "cuts.py").write_text("XI = 173 / 100\n")
    (src / "parity.py").write_text("BETA_DEFAULT = 0.401\nXI: float = 1.73\n")
    (src / "reassembler.py").write_text("from .cuts import XI\n"
                                        "EPS, n = 1 / 100, 2\n")
    (tests / "test_x.py").write_text("from cuts import XI\nEPS = 0.01\n"
                                     "def f():\n    BETA_DEFAULT = 0.4\n")
    assert fixed_constant_copies(src, [tests / "test_x.py"]) == [
        "parity.py: XI", "test_x.py: EPS"]


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


def relayed_imports(source, defined, in_package=False):
    """(line, names) of every from-import of the package in one source text
    that takes a name from a module not defining it; the package itself
    defines only its modules.  A relative import is the package's own
    only in a file of the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and in_package:
            module = node.module
        elif node.level == 0 and node.module == "pathtsp":
            module = None
        elif node.level == 0 and (node.module or "").startswith("pathtsp."):
            module = node.module.split(".", 1)[1]
        else:
            continue
        own = set(defined) - {"__init__"} if module is None \
            else defined[module]
        names = [a.name for a in node.names if a.name not in own]
        if names:
            out.append((node.lineno, names))
    return out


def import_lines(source):
    """The lines of one source text that hold an import statement."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Import, ast.ImportFrom)))


def shared_test_code(folder):
    """({name: modules} of every top-level function or class name that
    several modules of folder define, [module:line] of every import there
    that reads a test_* module)."""
    owners, imports = {}, []
    for path in sorted(folder.glob("*.py")):
        for name in top_level_definitions(path) - module_assignments(path):
            owners.setdefault(name, []).append(path.name)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [a.name for a in node.names]
                if any(TEST_MODULE.search(name) for name in names):
                    imports.append(f"{path.name}:{node.lineno}")
    twice = {name: mods for name, mods in owners.items() if len(mods) > 1}
    return twice, imports


def test_shared_test_code_is_defined_once_in_oracles():
    # a builder several test modules use is defined once, in
    # tests/oracles.py, and read from there; constants may repeat
    twice, imports = shared_test_code(ROOT / "tests")
    assert not twice, f"defined in several test modules: {twice}"
    assert not imports, f"imports of a test module: {imports}"


def test_the_shared_code_rule_catches_planted_copies(tmp_path):
    (tmp_path / "oracles.py").write_text("HALF = 1 / 2\n\n"
                                         "def path_x(seq):\n    pass\n")
    (tmp_path / "test_a.py").write_text("HALF = 0.5\n\n"
                                        "class path_x:\n    pass\n")
    (tmp_path / "test_b.py").write_text("from .test_a import path_x\n"
                                        "from . import oracles, test_a\n"
                                        "import tests.test_a\n"
                                        "from .oracles import HALF\n")
    assert shared_test_code(tmp_path) == (
        {"path_x": ["oracles.py", "test_a.py"]},
        ["test_b.py:1", "test_b.py:2", "test_b.py:3"])


def test_names_are_imported_from_their_defining_module():
    # one import path per name: the package exports nothing, so
    # `from pathtsp import` names modules and every other name comes from
    # the module that defines it, in the package, its tests, demos and
    # benchmark alike
    defined = {path.stem: top_level_definitions(path)
               for path in SRC.glob("*.py")}
    relayed = {}
    for folder in (SRC, ROOT / "tests", ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            for line, names in relayed_imports(path.read_text(), defined,
                                               folder == SRC):
                relayed[f"{path.relative_to(ROOT)}:{line}"] = names
    assert not relayed, f"names imported through another module: {relayed}"
    init = import_lines((SRC / "__init__.py").read_text())
    assert not init, f"imports in the package's __init__: lines {init}"


def test_the_import_rule_catches_planted_imports():
    defined = {"__init__": set(), "cli": {"main"},
               "cuts": {"XI", "narrow_cuts"},
               "parity": {"assign_gamma"}}
    planted = ("from pathtsp import cli, narrow_cuts\n"
               "from pathtsp.parity import XI, assign_gamma\n"
               "from pathtsp.cuts import XI\n"
               "from .cuts import narrow_cuts, main\n"
               "from . import cuts, oracles\n"
               "import pathtsp.cli\n")
    assert relayed_imports(planted, defined, in_package=True) == [
        (1, ["narrow_cuts"]), (2, ["XI"]), (4, ["main"]),
        (5, ["oracles"])]
    # outside the package a relative import is not the package's
    assert relayed_imports(planted, defined) == [
        (1, ["narrow_cuts"]), (2, ["XI"])]
    assert import_lines('"""Doc."""\n\nfrom .cuts import narrow_cuts\n'
                        '__all__ = ["narrow_cuts"]\n') == [3]


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


def float_uses(source):
    """(function, line) of every float literal and every use of the name
    float in one source text, with the innermost def around it, or
    "<module>"."""
    tree = ast.parse(source)
    around = {}
    for fn in ast.walk(tree):  # outer defs first, so inner ones overwrite
        if isinstance(fn, ast.FunctionDef):
            around.update(dict.fromkeys(ast.walk(fn), fn.name))
    return sorted((around.get(node, "<module>"), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "float"
                  or isinstance(node, ast.Constant)
                  and type(node.value) is float)


def test_floats_appear_only_in_the_tour_ratio_display():
    # every value is exact; the tour report's ratio≈ alone is a float
    uses = [(path.stem, fn, line) for path in sorted(SRC.glob("*.py"))
            for fn, line in float_uses(path.read_text())]
    assert [(module, fn) for module, fn, _ in uses] == [
        ("cli", "format_tour_report")], f"floats in the package: {uses}"


def test_the_float_rule_catches_planted_floats():
    planted = ('"""A docstring may say float."""\n'
               "INF = float('inf')\n"
               "def f(x):\n"
               "    def g():\n"
               "        return x * 0.5 + 2\n"
               "    return float(x), g\n")
    assert float_uses(planted) == [("<module>", 2), ("f", 6), ("g", 5)]


# the one record filled after it is built: the chain's crossing profiles
UNFROZEN = {"CutChain"}


def unfrozen_records(source):
    """The names of the classes in one source text made by a dataclass
    decorator without frozen=True."""
    out = []
    for node in ast.walk(ast.parse(source)):
        for dec in getattr(node, "decorator_list", []):
            call = isinstance(dec, ast.Call)
            func = dec.func if call else dec
            name = getattr(func, "id", getattr(func, "attr", None))
            frozen = call and any(kw.arg == "frozen" and
                                  getattr(kw.value, "value", None) is True
                                  for kw in dec.keywords)
            if isinstance(node, ast.ClassDef) and name == "dataclass" \
                    and not frozen:
                out.append(node.name)
    return out


def test_records_are_built_whole():
    # each record is made once, with every field, and frozen, so that a
    # record handed back (a default GammaParams() among them) cannot be
    # changed under its next reader; no module of the package rebuilds
    # one with dataclasses.replace
    unfrozen = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
                for name in unfrozen_records(path.read_text())
                if name not in UNFROZEN]
    assert not unfrozen, f"records that are not frozen: {unfrozen}"
    users = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and node.module == "dataclasses"
             and any(alias.name == "replace" for alias in node.names)
             or isinstance(node, ast.Attribute) and node.attr == "replace"
             and isinstance(node.value, ast.Name)
             and node.value.id == "dataclasses"]
    assert not users, f"dataclasses.replace used: {users}"


def test_the_frozen_record_rule_catches_planted_records():
    planted = ("@dataclass\nclass A:\n    x: int\n\n"
               "@dataclass(frozen=True)\nclass B:\n    x: int\n\n"
               "@dataclasses.dataclass(order=True, frozen=False)\n"
               "class C:\n    x: int\n\n"
               "@dataclasses.dataclass(frozen=True)\nclass D:\n    x: int\n\n"
               "class E:\n    x: int\n")
    assert unfrozen_records(planted) == ["A", "C"]


# attributes that one module alone touches, and that module: the chain's
# layers (every other module asks CutChain.levels_crossed), a crossing
# profile's type codes (read through reassembler: in bulk by census, one at
# a time by classify and type_data; cuts builds them by keyword) and the
# tableau's fields, its cost-row forms, basis and unit columns (every other
# module goes through simplex's constructor, warm modifications and readers)
OWNER = {"layer": "cuts", "codes": "reassembler",
         **dict.fromkeys(("z1", "zden", "z1den", "unit", "basis"),
                         "simplex")}


def owned_attribute_uses(source, module):
    """(line, attribute) of every read or assignment, in one source text of
    the named module, of an attribute that another module owns."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and OWNER.get(node.attr, module) != module)


def uses_outside(owner):
    """file:line attribute of every use, outside the owner module, of an
    attribute that module owns."""
    return [f"{path.name}:{line} {attr}" for path in sorted(SRC.glob("*.py"))
            for line, attr in owned_attribute_uses(path.read_text(),
                                                   path.stem)
            if OWNER[attr] == owner]


def test_only_cuts_reads_the_chain_layers():
    users = uses_outside("cuts")
    assert not users, f"chain layers read outside cuts: {users}"


def test_only_simplex_reads_the_tableau_fields():
    users = uses_outside("simplex")
    assert not users, f"tableau fields used outside simplex: {users}"


def test_the_tableau_rule_catches_a_planted_use():
    planted = ("def f(sx):\n"
               "    r = sx.basis.index(0)\n"
               "    sx.z1den = 1\n"
               "    return sx.unit[r], sx.rows, sx.den\n")
    assert owned_attribute_uses(planted, "parity") == [
        (2, "basis"), (3, "z1den"), (4, "unit")]
    # a module's own attributes are its to use
    assert owned_attribute_uses(planted, "simplex") == []


def test_only_reassembler_reads_the_type_codes():
    users = uses_outside("reassembler")
    assert not users, f"type codes read outside reassembler: {users}"


def test_the_type_code_rule_catches_a_planted_use():
    planted = ("def f(chain, tree):\n"
               "    prof = CrossingProfile(counts=[], single=[], types=[],\n"
               "                           codes=[None])\n"
               "    return chain.profile(tree).codes[1], prof\n")
    # building the codes by keyword is not a read
    assert owned_attribute_uses(planted, "parity") == [(4, "codes")]
    assert owned_attribute_uses(planted, "reassembler") == []


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
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in imported_names(tree)
                   if name not in loaded
                   and f"{path.stem}.{name}" not in UNREAD_IMPORTS]
    assert not unread, f"imported names their module never reads: {unread}"
