"""Every name a module in src/ or tests/ imports is used in that module,
and the public names no code in src/ uses are the known pending ones."""

import ast
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


# Public names with no caller in src/ yet (ROADMAP item 4). Wiring one up
# or deleting it shrinks this list; a new public name without a caller
# fails.
UNCALLED_PUBLIC_NAMES = [
    "distinct_level_spacings", "flux_equivalent", "interference_phase",
    "landau_degeneracy", "lorentz_force", "phases_equal", "uncertainty_bound",
]


def test_public_names_without_a_caller():
    referenced = set()
    for path in (ROOT / "src").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                referenced.add(node.module.split(".")[-1])  # a submodule
    assert sorted(set(warpconv.__all__) - referenced) == UNCALLED_PUBLIC_NAMES
