"""No public API that only the tests call.

Every public top-level function and class of `src/famelab` must be used by
name (a `Name`, an `Attribute` or a `from ... import`) somewhere in the
package or in `perfbench/`, and every public method must be reached as an
attribute there.  `__init__.py` only re-exports, so it counts as no use.  A
name only the tests call belongs in `tests/`, next to the tests that need it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "famelab"

# public names kept without a caller in the package, each with its reason
ALLOWED = {
    "load_trajectories": "the documented reader of the .traj files `famelab sample` writes",
    "mode_scatter_svg": "the str of plots/modes.svg, which `write_report` writes unjoined from its parts",
}


def _trees():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in files}


def _uses(trees):
    """Names and attributes used anywhere in the trees."""
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names, attrs


def _public_definitions(trees):
    """(qualified name, bare name, is a method) of every public top-level
    function and class of the package and every public method of its classes."""
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out.append((f"{path.stem}.{node.name}.{item.name}", item.name, True))
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = _trees()
    names, attrs = _uses(trees)
    defined = _public_definitions(trees)
    unused = [
        qualified
        for qualified, name, method in defined
        if name not in ALLOWED and name not in attrs and (method or name not in names)
    ]
    assert unused == [], f"public API nothing in src/ or perfbench/ calls: {unused}"
    # and no exception is kept for a name that is gone
    assert set(ALLOWED) <= {name for _, name, _ in defined}
