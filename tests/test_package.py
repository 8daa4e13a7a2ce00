"""The package's public surface: what `banalg.__all__` promises exists."""

import banalg


def test_all_names_resolve_on_the_package():
    missing = [name for name in banalg.__all__ if not hasattr(banalg, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(banalg.__all__) == len(set(banalg.__all__))


def test_rank_decisions_live_in_the_kernel():
    """`np.linalg.svd` and `np.linalg.matrix_rank` appear in the package only
    inside `algebra.rank_basis`, so every rank is decided with one cutoff."""
    import ast
    from pathlib import Path

    outside = []
    for path in sorted(Path(banalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "algebra.py":
            kernel = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef)
                          and node.name == "rank_basis")
            allowed = {id(node) for node in ast.walk(kernel)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("svd", "matrix_rank")
                    and id(node) not in allowed):
                outside.append(f"{path.name}:{node.lineno} {node.attr}")
    assert outside == []


def test_every_library_function_has_a_caller():
    """Every function and method defined in the package is referenced by name
    from the package, `scripts/` or `perfbench/`, exported in `banalg.__all__`
    or not; what only the tests call belongs in the tests.  Exempt are
    only the dunders that Python or dataclasses call on the package's
    behalf (construction, repr, len(), iteration and indexing); any other
    dunder, such as an operator overload or `__call__`, must be referenced
    by name like any other method."""
    import ast
    from pathlib import Path

    package = Path(banalg.__file__).parent
    root = package.parents[1]
    defined = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.name, node.lineno, node.name))
    referenced = set()
    for folder in (package, root / "scripts", root / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    implicit = {"__init__", "__post_init__", "__repr__", "__len__", "__iter__",
                "__getitem__"}
    uncalled = [f"{file}:{line} {name}" for file, line, name in defined
                if name not in implicit and name not in referenced]
    assert uncalled == []
