"""Every top-level function and class in ``src/fastpoint``, and every public
method of its classes, is used by the package itself: code that only the
tests run belongs in the tests. Every parameter is read by its function."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fastpoint"

# (module, name) -> why it may have no reference in the package
ALLOWED = {
    ("selfcheck", "finite_diff_check"): "reference that the gradient tests compare against",
    ("voxels", "load_grid"): "the reader of the dump_grid format",
    ("pipeline", "proposal_recall"): "quality metric of the benchmark",
    ("pipeline", "mean_matched_iou3d"): "quality metric of the benchmark",
}


def _references(trees: dict) -> set:
    """(module, name) pairs the package refers to: a load of the name in its
    own module, ``from .module import name``, or ``alias.name`` where
    ``from . import module as alias`` bound the alias."""
    refs = set()
    for mod, tree in trees.items():
        aliases = {}                        # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        refs.add((node.module, a.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add((mod, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
    return refs


def test_every_top_level_definition_is_referenced_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    refs = _references(trees)
    defined = {(mod, node.name) for mod, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    unused = sorted(defined - refs - ALLOWED.keys())
    assert unused == [], f"defined in src/fastpoint but referenced only outside it: {unused}"
    stale = sorted(ALLOWED.keys() & refs)
    assert stale == [], f"allowed as unreferenced but referenced now: {stale}"


def _method_loads(tree) -> set:
    """Attribute names loaded in tree, except on a module (``np.flip`` is
    not a method call): names bound by ``import`` or ``from . import``."""
    modules = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    modules |= {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module is None for a in node.names}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)}


def test_every_public_method_is_loaded_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    loaded = set().union(*map(_method_loads, trees.values()))
    unused = sorted(f"{mod}.{cls.name}.{fn.name}" for mod, tree in trees.items()
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for fn in cls.body
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_") and fn.name not in loaded)
    assert unused == [], f"public methods that no code in src/fastpoint calls: {unused}"


def _unread_parameters(mod: str, tree) -> list:
    """module.function(parameter) for every parameter that its function's
    body never loads, except self, cls and names that start with "_"."""
    unread = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [v for v in (a.vararg, a.kwarg) if v is not None]]
                body = child.body if isinstance(child.body, list) else [child.body]
                loads = {n.id for stmt in body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread.extend(f"{mod}.{prefix}{name}({p})" for p in params
                              if p not in loads and p not in ("self", "cls")
                              and not p.startswith("_"))
                visit(child, f"{prefix}{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return unread


def test_every_parameter_is_read_by_its_function():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    unread = sorted(n for mod, tree in trees.items() for n in _unread_parameters(mod, tree))
    assert unread == [], f"parameters that their function never reads: {unread}"
