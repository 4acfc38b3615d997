"""The public surface is what runs: every exported name has a reader in src/.

A name exported from `sensched` that only tests call is a second
implementation or a dead wrapper. This reads the package source with
`ast` and asserts that each exported function or class is read somewhere
in src/ outside its own definition and outside `__init__.py`.
"""

import ast
from pathlib import Path

import sensched

PACKAGE = Path(sensched.__file__).resolve().parent

# Names kept public although no module in src/ reads them.
ALLOWED = {
    # regenerates the shipped stand-ins instances/water{1,2}_standin.instance
    # (see tests/test_randnet.py), so it stays as their provenance
    "gen_connected_gnm",
}


def _reads(path: Path) -> set[tuple[str, str]]:
    """The (module, name) pairs of sensched names read in one module.

    A name counts as read where it is loaded under the name an import
    from its module bound (`from .graph import ball`), as an attribute of
    an imported sensched module (`domination.search_config`), or, in its
    own module, anywhere outside its own top-level definition.
    """
    own = f"sensched.{path.stem}"
    tree = ast.parse(path.read_text())
    bound: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    modules: dict[str, str] = {}  # local name -> sensched module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    bound[local] = (f"sensched.{node.module}", alias.name)
                else:
                    modules[local] = f"sensched.{alias.name}"
    out = set()
    for stmt in tree.body:
        defines = (
            stmt.name
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            else None
        )
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in bound:
                    out.add(bound[node.id])
                elif node.id != defines:
                    out.add((own, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                out.add((modules[node.value.id], node.attr))
    return out


def _exported() -> dict[str, str]:
    """Exported functions and classes that sensched defines, with their module."""
    out = {}
    for name in sensched.__all__:
        module = getattr(getattr(sensched, name), "__module__", None)
        if module and module.startswith("sensched."):
            out[name] = module
    return out


def test_every_export_has_a_reader_in_src():
    exported = _exported()
    assert ALLOWED <= set(exported)
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            read |= _reads(path)
    unread = sorted(
        name
        for name, module in exported.items()
        if name not in ALLOWED and (module, name) not in read
    )
    assert unread == []
