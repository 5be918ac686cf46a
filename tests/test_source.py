"""Checks on the package source itself, read with ``ast``, not imported."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "infobounds"


def referenced_names(node):
    """Names and attribute names read anywhere under ``node``, with their counts; an
    import binds a name and does not count."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_function_has_a_caller_in_src():
    # a module-level _function that only tests reach is a second code path to keep
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and everywhere[node.name] == referenced_names(node)[node.name]):
                unused.append(f"{module}:{node.name}")
    assert unused == []
