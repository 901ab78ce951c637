"""Static checks of the package's modules, read with the standard library's
``ast``: every name a module's ``__all__`` lists resolves in it, no module
but ``__init__`` imports a name it never uses, and no private name a module
defines goes unread in the package.  A deletion that leaves a stale
export, import or helper behind fails here."""

import ast
import importlib
import pathlib

import pytest

import stochdual

PACKAGE = pathlib.Path(stochdual.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def parse(module):
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def listed_exports(tree):
    """The names of a module-level ``__all__``, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return ast.literal_eval(node.value)
    return None


def imported_names(tree):
    """(name, line) of every name an import statement binds, at any depth;
    ``import a.b`` binds ``a``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append(((alias.asname or alias.name).partition(".")[0], node.lineno))
    return out


def used_names(tree):
    """Every name the module reads, plus the names its ``__all__`` lists."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(listed_exports(tree) or ())


@pytest.mark.parametrize("module", [m for m in MODULES if listed_exports(parse(m)) is not None])
def test_every_listed_export_resolves(module):
    names = listed_exports(parse(module))
    loaded = importlib.import_module(f"stochdual.{module}")
    assert [name for name in names if not hasattr(loaded, name)] == []
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_no_unused_import(module):
    tree = parse(module)
    used = used_names(tree)
    assert [(name, line) for name, line in imported_names(tree) if name not in used] == []


def private_definitions(tree):
    """The private (single-underscore) names a module defines at its top
    level: its functions, its classes and their methods, and the names it
    assigns."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def read_names(tree):
    """Every name the module reads, as a variable or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_private_name_is_read_in_the_package():
    trees = {module: parse(module) for module in MODULES}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    assert [(module, name) for module, tree in trees.items()
            for name in private_definitions(tree) if name not in read] == []


def catalog_kinds(tree):
    """{name: (methods, concrete)} for ``ConvexFunction`` and each class of
    the module that derives from it (through the module's own classes): the
    names of the methods its body defines, and whether it sets its own
    ``kind``."""
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def derives(name):
        return name == "ConvexFunction" or any(
            isinstance(base, ast.Name) and base.id in classes and derives(base.id)
            for base in classes[name].bases)

    def sets_kind(node):
        return any(isinstance(stmt, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "kind" for t in stmt.targets)
                   for stmt in node.body)

    return {name: ({f.name for f in node.body if isinstance(f, ast.FunctionDef)},
                   name != "ConvexFunction" and sets_kind(node))
            for name, node in classes.items() if derives(name)}


def test_value_many_is_each_catalog_kinds_one_evaluator():
    # ``value`` reads ``value_many`` at one row; only a support function,
    # one LP per point, keeps a rule of its own
    kinds = catalog_kinds(parse("convex"))
    assert sorted(name for name, (methods, _) in kinds.items()
                  if "value" in methods) == ["ConvexFunction", "SupportFunction"]
    concrete = [name for name, (_, is_kind) in kinds.items() if is_kind]
    assert len(concrete) == 10
    assert [name for name in concrete if "value_many" not in kinds[name][0]] == []
