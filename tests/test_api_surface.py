"""No API without a caller: every definition in src/brieskorn is referenced
somewhere in src/brieskorn, or by the benchmark's perfbench/*.py, outside
its own body.

The check is name-based.  A function or class counts as referenced when its
name occurs as an ast.Name or as the attribute of an ast.Attribute anywhere in
the package outside the definition itself, whatever that occurrence refers
to; a method only as the attribute of an ast.Attribute (`x.dim`), since a
local variable of the same name does not call it.  perfbench/*.py counts
with its attribute reads only.  So a definition whose name another
definition also uses (a module function milnor_number next to the method
GermProblem.milnor_number, say) escapes the check.  The one exception is a
module-level name that two modules define (rref in linalg and _backend):
only a reference that names the module counts for it, which is
`module.name`, `from brieskorn.module import name`, or a bare name inside
that module.  Dunders are exempt, and so are methods
that override an attribute of a base class (argparse calls
cli._Parser.error, the package does not).

Also, every module-level import binds a name that its module uses.
"""

import ast
import importlib
import os
from collections import Counter

import brieskorn

PACKAGE = os.path.dirname(os.path.abspath(brieskorn.__file__))
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _modules(directory=PACKAGE):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read(), path)


def _definitions(tree):
    """(qualified name, node, enclosing class name or None) of each module-level
    function and class and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item, node.name


def _overrides(module, class_name, name) -> bool:
    cls = getattr(importlib.import_module(f"brieskorn.{module}"), class_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def _references(module, tree):
    """(module, line, name, qualifier, kind) of each name occurrence: the
    qualifier is the module an occurrence names (the owner of `owner.name`,
    the source module of an import, this module for a bare name), else None;
    the kind is "name", "attribute" or "import".  An import counts only for a
    name that two modules define."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield module, node.lineno, node.id, module, "name"
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            yield module, node.lineno, node.attr, owner, "attribute"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("brieskorn."):
            for alias in node.names:
                yield module, node.lineno, alias.name, node.module.removeprefix("brieskorn."), "import"


def unreferenced():
    """Qualified names (module.name) of the definitions nothing references."""
    references = []  # (module, line, name, qualifier, kind)
    definitions = []
    for module, tree in _modules():
        references.extend(_references(module, tree))
        definitions.extend((module, *d) for d in _definitions(tree))
    for module, tree in _modules(PERFBENCH):
        references.extend(r for r in _references(f"perfbench.{module}", tree) if r[4] == "attribute")
    owners = Counter(qualified for _m, qualified, _n, class_name in definitions if class_name is None)
    out = []
    for module, qualified, node, class_name in definitions:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if class_name is not None and _overrides(module, class_name, name):
            continue
        shared = class_name is None and owners[name] > 1
        kinds = {"attribute"} if class_name is not None else {"name", "attribute"}
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(
            n == name and not (m == module and line in inside) and (q == module if shared else kind in kinds)
            for m, line, n, q, kind in references
        ):
            out.append(f"{module}.{qualified}")
    return out


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced() == []



def unused_imports():
    """(module, name) of each module-level import whose bound name the
    module never uses as an ast.Name (an attribute chain `a.b` starts with
    the Name `a`)."""
    out = []
    for module, tree in _modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        out.append((module, bound))
    return out


def test_every_module_level_import_is_used():
    assert unused_imports() == []


def new_calls():
    """module.definition of each `__new__` in the package, by the innermost
    module-level function, class or method around it."""
    out = []
    for module, tree in _modules():
        spans = [(node.lineno, node.end_lineno, qualified) for qualified, node, _c in _definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__new__":
                around = max((lo, q) for lo, hi, q in spans if lo <= node.lineno <= hi)
                out.append(f"{module}.{around[1]}")
    return out


def test_each_value_type_is_built_only_by_its_own_constructor():
    # Polynomial and DifferentialForm are written slot by slot only in their
    # unchecked constructor _of; everything else calls _of or __init__
    assert new_calls() == ["forms.DifferentialForm._of", "poly.Polynomial._of"]
