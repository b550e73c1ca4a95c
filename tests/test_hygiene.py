"""Every name a module in src/ or tests/ imports is used in that module,
every name src/ defines is used in src/, src/ raises no builtin exception
but on purpose, and the exceptions to these rules are the known ones."""

import ast
import builtins
import pathlib

import warpconv

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _annotation_names(tree):
    """Names inside quoted annotations, which the AST keeps as strings."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in (*args.posonlyargs, *args.args,
                                            *args.kwonlyargs, args.vararg,
                                            args.kwarg) if a is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    for sub in ast.walk(ast.parse(part.value, mode="eval")):
                        if isinstance(sub, ast.Name):
                            yield sub.id


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # A package __init__ imports in order to re-export.
    paths = [path for top in ("src", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"]
    assert paths
    assert [hit for path in paths for hit in unused_imports(path)] == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize, about 10 ms of each
    # CLI call; only scipy, inside `spectrum`, may load it.
    hits = [path.name for path, tree in _src_trees().items()
            if any(name.split(".")[0] == "dataclasses"
                   for name in _imported_modules(tree))]
    assert hits == []


def test_only_the_filter_asks_what_a_selection_wants():
    # Each verify check is a row that _decide filters; a per-check
    # wants(...) guard elsewhere would split the table again.
    tree = _src_trees()[ROOT / "src" / "warpconv" / "verify.py"]
    calls = [f"{fn.name}({', '.join(ast.unparse(a) for a in node.args)})"
             for fn in tree.body if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "wants"]
    allowed = ("_decide(", "run_suite(")
    assert "_decide(name)" in calls
    assert [call for call in calls if not call.startswith(allowed)] == []


# Public names with no caller in src/; a new public name without a caller
# fails until it gains one or is listed here.
UNCALLED_PUBLIC_NAMES = []

# Names defined in src/ that nothing in src/ refers to, each kept on purpose.
UNREFERENCED_DEFINITIONS = {
    "error": "_Parser.error overrides argparse, which calls it",
    "substitute_symbol": "CoordFunction and OperatorExpr.substitute_symbol; "
                         "only tests call them",
    **{name: "public, pending a caller" for name in UNCALLED_PUBLIC_NAMES},
}


def _src_trees():
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted((ROOT / "src").rglob("*.py"))}


def test_public_names_without_a_caller():
    referenced = set()
    for path, tree in _src_trees().items():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                referenced.add(node.module.split(".")[-1])  # a submodule
    assert sorted(set(warpconv.__all__) - referenced) == UNCALLED_PUBLIC_NAMES


def _definitions(tree):
    """(name, node) for each module-level function, class and constant, and
    each method; dunders are called by Python itself and are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((item.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            yield from ((part.id, node) for target in targets
                        for part in ast.walk(target)
                        if isinstance(part, ast.Name))


def test_every_definition_in_src_is_referenced_in_src():
    # A reference is a loaded name or attribute anywhere in src/ outside
    # every definition of that name, so recursion is no caller.
    trees = _src_trees()
    spans, loads = {}, []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")):
                spans.setdefault(name, []).append(
                    (path, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                name = node.id if isinstance(node, ast.Name) else getattr(
                    node, "attr", None)
                loads.append((name, path, node.lineno))
    referenced = {name for name, path, line in loads if name in spans
                  and not any(path == p and first <= line <= last
                              for p, first, last in spans[name])}
    assert sorted(set(spans) - referenced) == sorted(UNREFERENCED_DEFINITIONS)


# Raises of a builtin exception class in src/, each kept on purpose; every
# other refusal is a WarpconvError, whose class fixes the CLI exit code.
BUILTIN_RAISES = {
    "__init__.__getattr__ AttributeError":
        "PEP 562: a module __getattr__ reports a missing name with it",
    "cli._number ValueError": "its own except turns it into a ConfigError",
}


def _builtin_raises(node, scope):
    """'module.qualname Class' for each raise of a builtin exception class
    under ``node``, whose enclosing names are ``scope``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _builtin_raises(child, (*scope, child.name))
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else (
                child.exc)
            cls = getattr(builtins, getattr(exc, "id", ""), None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                yield f"{'.'.join(scope)} {exc.id}"
        yield from _builtin_raises(child, scope)


def test_src_raises_no_builtin_exception_but_on_purpose():
    hits = [hit for path, tree in _src_trees().items()
            for hit in _builtin_raises(tree, (path.stem,))]
    assert sorted(hits) == sorted(BUILTIN_RAISES)
