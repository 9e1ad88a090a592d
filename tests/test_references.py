"""Every top-level function and class in ``src/fastpoint``, and every public
method of its classes, is used by the package itself: code that only the
tests run belongs in the tests. Every parameter is read by its function,
and every parameter with a default is set by some caller in the package or
the benchmark."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fastpoint"

# (module, name) -> why it may have no reference in the package
ALLOWED = {
    ("train", "SGD"): "kept only for the benchmark tracer's train.SGD.step site",
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


PERFBENCH = PACKAGE.parents[1] / "perfbench"

# module.function(parameter) -> why no caller in the package or the
# benchmark needs to set it
UNSET_ALLOWED = {
    "cli.main(argv)": "the entry point: the console script calls it with none",
    "selfcheck.run_selftest(report)": "a test seam: the tests collect the report lines",
    "pipeline.mean_matched_iou3d(match_iou_bev)": "the benchmark's metric, at its one threshold",
    "selfcheck.random_box3d(center_scale)": "an oracle helper, like random_bev_box",
    "evalkit.evaluate_table(metrics)": "a table dimension the KITTI reader path will set",
    "evalkit.evaluate_table(difficulties)": "a table dimension the KITTI reader path will set",
    "evalkit.evaluate_table(range_buckets)": "a table dimension the KITTI reader path will set",
    "evalkit.evaluate_table(ap_mode)": "a table dimension the KITTI reader path will set",
    "postprocess.write_detections(calib)": "the KITTI reader path's camera frame",
    "postprocess.read_detections(calib)": "the KITTI reader path's camera frame",
    "train.SGD.__init__(weight_decay)": "SGD is kept only for the benchmark tracer's site",
}


def _defaulted_parameters(mod: str, tree) -> dict:
    """module.function(parameter) -> (callee name, parameter, positional
    index or None) for every parameter with a default; a method is called
    by its name without self, and __init__ by its class's name."""
    found = {}

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                if cls is not None and positional and positional[0].arg in ("self", "cls"):
                    positional = positional[1:]
                callee = cls if cls is not None and child.name == "__init__" else child.name
                first = len(positional) - len(a.defaults)
                for i, p in enumerate(positional[first:], first):
                    found[f"{mod}.{prefix}{child.name}({p.arg})"] = (callee, p.arg, i)
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        found[f"{mod}.{prefix}{child.name}({p.arg})"] = (callee, p.arg, None)
                visit(child, f"{prefix}{child.name}.", None)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return found


def _passed(trees) -> set:
    """(callee name, parameter or positional index) for every argument of
    every call in trees; a call with *args or **kwargs passes everything."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                passed.add((name, "*"))
            passed.update((name, i) for i in range(len(node.args)))
            passed.update((name, k.arg) for k in node.keywords)
    return passed


def test_every_defaulted_parameter_is_set_by_some_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    callers = list(trees.values()) + [ast.parse(p.read_text())
                                      for p in sorted(PERFBENCH.glob("*.py"))]
    passed = _passed(callers)
    defaulted = {k: v for mod, tree in trees.items()
                 for k, v in _defaulted_parameters(mod, tree).items()}
    unset = sorted(k for k, (callee, param, index) in defaulted.items()
                   if not {(callee, param), (callee, index), (callee, "*")} & passed)
    assert sorted(set(unset) - UNSET_ALLOWED.keys()) == [], \
        f"defaulted parameters that no caller in src/fastpoint or perfbench sets: {unset}"
    stale = sorted(UNSET_ALLOWED.keys() - set(unset))
    assert stale == [], f"allowed as unset but set by a caller now: {stale}"
