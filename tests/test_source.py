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


def private_definitions(tree):
    """(qualified name, node) of each module-level _function, and of each private
    method or cached property of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and member.name.startswith("_") and not member.name.endswith("__")):
                    yield f"{node.name}.{member.name}", member
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
            yield node.name, node


def test_every_private_function_has_a_caller_in_src():
    # a private function, method or cached property that only tests reach is a
    # second code path to keep
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused, methods = [], []
    for module, tree in trees.items():
        for name, node in private_definitions(tree):
            if everywhere[node.name] == referenced_names(node)[node.name]:
                unused.append(f"{module}:{name}")
            methods += ["." in name]
    assert unused == []
    assert sum(methods) >= 9  # the class members are read too


def cache_size(decorator, constants):
    """(is a functools cache, its maxsize) of a decorator node; maxsize None is unbounded.

    A name passed as maxsize is read from the module's top-level constants."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
    if name == "cache":
        return True, None
    if name != "lru_cache":
        return False, None
    sizes = [] if call is None else call.args[:1] + [
        k.value for k in call.keywords if k.arg == "maxsize"]
    if not sizes:
        return True, 128  # functools' default
    size = sizes[0]
    if isinstance(size, ast.Name):
        size = constants.get(size.id)
    return True, size.value if isinstance(size, ast.Constant) else None


def test_every_cache_is_bounded_or_takes_no_arguments():
    # an unbounded cache keyed by arguments grows with every distinct call
    unbounded, checked = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                     for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                is_cache, size = cache_size(decorator, constants)
                if not is_cache:
                    continue
                a = node.args
                takes_arguments = bool(a.posonlyargs or a.args or a.kwonlyargs
                                       or a.vararg or a.kwarg)
                if takes_arguments and not isinstance(size, int):
                    unbounded.append(f"{path.stem}.{node.name}")
                checked.add(f"{path.stem}.{node.name}")
    assert unbounded == []
    assert {"cli._parser", "mi_oracle._type_rows", "quantum_metrology._phase_basis",
            "random_models._trig_basis"} <= checked


def is_instance_dict(node):
    """True for ``vars(x)`` and ``x.__dict__``."""
    return ((isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "vars" and node.args)
            or (isinstance(node, ast.Attribute) and node.attr == "__dict__"))


def instance_dict_writes(tree):
    """Line of each store into, or deletion from, ``vars(x)[...]`` or ``x.__dict__[...]``,
    whatever the statement: assignment, unpacking, augmented assignment, loop target."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and is_instance_dict(node.value)):
            yield node.lineno


def test_no_writes_into_an_instance_dict():
    # a value takes its fields in its constructor: a write into its __dict__ sets one
    # behind the constructor's checks, and past a frozen dataclass's guard
    writes = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
              for line in instance_dict_writes(ast.parse(path.read_text()))]
    assert writes == []
