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


def test_multiplier_checks_run_on_stacks():
    """`bse.py` and `verify.py` iterate over no `MultiplierBasis.basis`: every
    check over a multiplier space is one contraction over its `stack`."""
    import ast
    from pathlib import Path

    loops = []
    for name in ("bse.py", "verify.py"):
        tree = ast.parse((Path(banalg.__file__).parent / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.comprehension)) and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "basis"
                    for sub in ast.walk(node.iter)):
                loops.append(f"{name}:{node.iter.lineno}")
    assert loops == []
