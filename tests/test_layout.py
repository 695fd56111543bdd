"""Layout rules of the package source, checked on its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pathtsp"
SHARED = ("ZERO", "ONE", "TWO", "HALF")


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
