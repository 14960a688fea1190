"""No curmeta code builds a random stream outside the listed functions.

A run has one seeding scheme.  The data seed feeds ``generate_source``; the
run seed's ``SeedSequence`` children feed meta-training (``initial_params``,
``_Learner``) and every other stage (``derive_stream``).  The scan parses
each module of src/curmeta and collects the function around every call into
``numpy.random``: ``np.random.default_rng``, ``SeedSequence``, a legacy
``np.random.seed`` and the like, however numpy was imported.  Each such
function must be in ``ALLOWED``, and each entry of ``ALLOWED`` must still make
such a call, so the list stays the exact set of places that build streams.
"""

import ast
from pathlib import Path

import pytest
from test_layering import _dotted

SRC = Path(__file__).resolve().parents[1] / "src" / "curmeta"

# (module, function)
ALLOWED = {
    ("tasks", "derive_stream"),  # child 3 + worker of the run seed
    ("tasks", "generate_source"),  # the data seed's stream
    ("meta", "initial_params"),  # child 0 of the run seed
    ("meta", "_Learner.__init__"),  # children 1 and 2
    # default_rng(rng): a caller's seed or generator as a generator
    ("meta", "fine_tune"),
    ("samplers", "SamplerState.__init__"),
}


def _numpy_names(tree) -> dict[str, str]:
    """Local name -> the numpy module or object it is bound to."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":  # import numpy.random binds numpy
                    names[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def stream_calls(module: str, source: str) -> set[tuple[str, str]]:
    """(module, enclosing function) of every ``numpy.random`` call in ``source``."""
    tree = ast.parse(source)
    names = _numpy_names(tree)
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call) and (dotted := _dotted(node.func)) is not None:
            head, _, rest = dotted.partition(".")
            if head in names and f"{names[head]}.{rest}".startswith("numpy.random."):
                found.add((module, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_streams_are_built_only_in_the_listed_functions():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= stream_calls(path.stem, path.read_text())
    assert found - ALLOWED == set(), "random streams built outside the allow-list"
    assert ALLOWED - found == set(), "allow-list entries that build no stream any more"


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\ndef f():\n    np.random.default_rng(0)",
        "import numpy\ndef f():\n    numpy.random.SeedSequence(0)",
        "import numpy.random as npr\ndef f():\n    npr.seed(0)",
        "from numpy import random\ndef f():\n    random.default_rng(0)",
        "from numpy.random import default_rng as rng\ndef f():\n    rng(0)",
        "import numpy as np\ndef f():\n    np.random.SeedSequence(0).spawn(2)",
    ],
)
def test_the_scan_sees_each_import_form(source):
    assert stream_calls("harness", source) == {("harness", "f")}


def test_the_scan_names_methods_and_module_level_calls():
    source = "import numpy as np\nRNG = np.random.default_rng()\nclass C:\n    def m(self):\n        np.random.random()\n"
    assert stream_calls("harness", source) == {("harness", "<module>"), ("harness", "C.m")}


def test_the_scan_ignores_generators_passed_in_and_other_modules():
    source = (
        "import random\nimport numpy as np\n"
        "def f(rng: np.random.Generator) -> np.random.Generator:\n"
        "    random.random()\n    rng.random()\n    np.zeros(3)\n    return rng\n"
    )
    assert stream_calls("harness", source) == set()
