"""No curmeta module reads another curmeta module's private names, except the listed ones.

A leading underscore marks a name as its module's own.  The scan parses each
module of src/curmeta and collects every private name it takes from a sibling:
``from .nets import _trusted``, or ``nets._unpack`` on a sibling module bound
by an import.  Each such read must be in ``ALLOWED``, and each entry of
``ALLOWED`` must still be read, so the list stays the exact set of exceptions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "curmeta"

# (reader, owner, name)
ALLOWED = {
    ("meta", "nets", "_unpack"),
    ("meta", "nets", "_onehot"),
    ("meta", "nets", "_trace"),
    ("meta", "nets", "_backward"),
    ("meta", "tasks", "_cell"),
    ("tasks", "nets", "_trusted"),
}


def _sibling(node: ast.ImportFrom) -> str | None:
    """The curmeta module (or "" for the package) an import-from reads, else None."""
    if node.level == 1:
        return node.module or ""
    if node.module == "curmeta" or (node.module or "").startswith("curmeta."):
        return node.module.partition(".")[2]
    return None


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_reads(reader: str, source: str) -> set[tuple[str, str, str]]:
    """(reader, owner, name) of every private name ``source`` reads from a sibling module."""
    tree = ast.parse(source)
    modules = {}  # dotted local name -> the sibling module it is bound to
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (owner := _sibling(node)) is not None:
            for alias in node.names:
                if owner == "":  # from . import nets
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.add((reader, owner, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("curmeta."):
                    modules[alias.asname or alias.name] = alias.name.partition(".")[2]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = modules.get(_dotted(node.value))
            if owner is not None:
                reads.add((reader, owner, node.attr))
    return {read for read in reads if read[0] != read[1]}


def test_modules_read_only_the_listed_private_names():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= private_reads(path.stem, path.read_text())
    assert found - ALLOWED == set(), "private names read outside the allow-list"
    assert ALLOWED - found == set(), "allow-list entries no module reads any more"


@pytest.mark.parametrize(
    "source",
    [
        "from .nets import Batch, _trusted",
        "from curmeta.nets import _trusted as t",
        "from . import nets\nnets._trusted(1)",
        "from curmeta import nets as n\nn._trusted",
        "import curmeta.nets\ncurmeta.nets._trusted",
        "import curmeta.nets as n\nn._trusted",
    ],
)
def test_the_scan_sees_each_import_form(source):
    assert private_reads("meta", source) == {("meta", "nets", "_trusted")}


def test_the_scan_ignores_public_and_foreign_names():
    source = "import numpy as np\nfrom . import nets\nnp._x\nnets.grad\nself._views\n"
    assert private_reads("meta", source) == set()


def test_the_package_root_imports_nothing_and_defines_the_version():
    # every name is imported from its module, so the root re-exports nothing
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assigned = {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets}
    assert "__version__" in assigned
