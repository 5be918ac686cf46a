"""Checks on the package source itself, read with ``ast``, not imported."""

import ast
from collections import Counter
from pathlib import Path

from test_api import KEPT_WITHOUT_CALLER

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "infobounds"
READERS = (SRC, ROOT / "demos", ROOT / "bench")


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


def parsed(directory):
    """{module name: ast} of the Python files in ``directory``."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def public_definitions(module, tree):
    """(qualified name, name, definition node) of each public name of a source module:
    each name in its ``__all__`` (each module-level public function when it has none),
    and each public method or property of a module-level class."""
    top = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    top[target.id] = node
    listed = top.get("__all__")
    if listed is None:
        names = [name for name, node in top.items() if not name.startswith("_")
                 and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    else:
        names = ast.literal_eval(listed.value)
    for name in names:
        yield f"{module}.{name}", name, top.get(name)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    yield f"{module}.{node.name}.{member.name}", member.name, member


def public_names_without_caller(src, readers):
    """Qualified names of the public names of the modules in ``src`` that no module in
    ``readers`` reads outside the name's own definition."""
    everywhere = sum((referenced_names(tree) for directory in readers
                      for tree in parsed(directory).values()), Counter())
    return [qualified for module, tree in parsed(src).items()
            for qualified, name, node in public_definitions(module, tree)
            if everywhere[name] == (referenced_names(node)[name] if node else 0)]


def caller_rule_faults(src, readers, kept):
    """(public names with no caller and no reason in ``kept``, names in ``kept`` that are
    gone or have a caller now): both empty when the rule holds."""
    flagged = set(public_names_without_caller(src, readers))
    return sorted(flagged - kept.keys()), sorted(kept.keys() - flagged)


def test_every_public_name_has_a_caller_or_a_reason():
    # a public name that only tests read is API to keep for no user: each has a
    # caller in the package, a demo or the benchmark (which is only read here),
    # or a one-line reason in KEPT_WITHOUT_CALLER
    assert caller_rule_faults(SRC, READERS, KEPT_WITHOUT_CALLER) == ([], [])
    checked = [qualified for module, tree in parsed(SRC).items()
               for qualified, *_ in public_definitions(module, tree)]
    assert {"cli.main", "bounds.NATS", "stat_model.PriorDensity.gaussian"} <= set(checked)


CALLER_RULE_MODULES = {
    "model": '__all__ = ["Thing", "LIMIT", "used", "unused"]\n'
             'LIMIT = 3\n'
             'def used():\n    return Thing().read()\n'
             'def unused():\n    return unused()\n'  # a call from its own body does not count
             'class Thing:\n'
             '    def read(self):\n        return 1\n'
             '    def unread(self):\n        return 2\n'
             '    @property\n    def size(self):\n        return 3\n'
             'def helper():\n    return 4\n',  # not in __all__: not checked
    "cli": 'from .model import used, LIMIT\n'  # an import does not count
           'def main():\n    return used()\n'
           'def orphan():\n    return 0\n'
           'def _private():\n    return 0\n'
           'if __name__ == "__main__":\n    main()\n',
}


def write_modules(directory, modules):
    directory.mkdir()
    for name, text in modules.items():
        (directory / f"{name}.py").write_text(text)
    return directory


CALLER_RULE_FLAGS = ["cli.orphan", "model.LIMIT", "model.Thing.unread", "model.unused"]


def caller_rule_tree(tmp_path):
    """(src, readers) of a small tree: CALLER_RULE_MODULES, and a demo that reads a property."""
    src = write_modules(tmp_path / "src", CALLER_RULE_MODULES)
    demos = write_modules(tmp_path / "demos", {"demo": "import model\nprint(model.Thing().size)\n"})
    return src, [src, demos]


def test_caller_rule_flags_public_names_only_their_definitions_read(tmp_path):
    src, readers = caller_rule_tree(tmp_path)
    assert sorted(public_names_without_caller(src, readers)) == CALLER_RULE_FLAGS
    assert caller_rule_faults(src, readers, {}) == (CALLER_RULE_FLAGS, [])
    kept = dict.fromkeys(CALLER_RULE_FLAGS, "a reason")
    assert caller_rule_faults(src, readers, kept) == ([], [])
    # without the demo, the property has no caller either
    assert "model.Thing.size" in public_names_without_caller(src, [src])


def test_caller_rule_fails_on_a_stale_reason(tmp_path):
    src, readers = caller_rule_tree(tmp_path)
    kept = {**dict.fromkeys(CALLER_RULE_FLAGS, "a reason"),
            "model.gone": "deleted since",       # no longer exists
            "model.used": "has a caller now"}    # no longer without a caller
    assert caller_rule_faults(src, readers, kept) == ([], ["model.gone", "model.used"])


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
