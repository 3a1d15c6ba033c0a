"""``src/lproth`` uses no numpy name that numpy 1.24, the floor of ``pyproject.toml``, lacks.

An installed numpy 2 runs such a call without complaint, so only a scan of the
source keeps the floor.  The scan parses each module and flags every
attribute read ``np.<name>`` or ``np.linalg.<name>`` (``np`` standing for
any name bound to numpy) and every ``from numpy import <name>`` whose name
below was added in numpy 2.  It cannot see methods of numpy objects, such as
``Generator.spawn``, nor names built at run time.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lproth"

# top-level names added in numpy 2.0-2.2, most from the array API standard
NUMPY2_NAMES = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat", "cumulative_prod",
    "cumulative_sum", "isdtype", "long", "matrix_transpose", "matvec", "permute_dims", "pow",
    "trapezoid", "ulong", "unique_all", "unique_counts", "unique_inverse", "unique_values",
    "unstack", "vecdot", "vecmat",
}
# names added to numpy.linalg in numpy 2.0
NUMPY2_LINALG_NAMES = {
    "cross", "diagonal", "matrix_norm", "matrix_transpose", "outer", "svdvals", "trace",
    "vecdot", "vector_norm",
}


def numpy2_uses(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each numpy-2-only name that source reads from numpy."""
    tree = ast.parse(source)
    roots, linalg, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    roots.add(alias.asname or "numpy")
                elif alias.name == "numpy.linalg" and alias.asname:
                    linalg.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            names = NUMPY2_NAMES if node.module == "numpy" else NUMPY2_LINALG_NAMES
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                      if a.name in names]
            if node.module == "numpy":
                linalg.update(a.asname or a.name for a in node.names if a.name == "linalg")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in roots and node.attr in NUMPY2_NAMES:
            found.append((node.lineno, f"numpy.{node.attr}"))
        elif node.attr in NUMPY2_LINALG_NAMES and (
                (isinstance(base, ast.Name) and base.id in linalg)
                or (isinstance(base, ast.Attribute) and base.attr == "linalg"
                    and isinstance(base.value, ast.Name) and base.value.id in roots)):
            found.append((node.lineno, f"numpy.linalg.{node.attr}"))
    return sorted(found)


def test_package_keeps_the_numpy_floor():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    uses = [(path.name, line, name) for path in modules
            for line, name in numpy2_uses(path.read_text())]
    assert not uses, f"numpy-2-only names (pyproject.toml allows numpy >= 1.24): {uses}"


@pytest.mark.parametrize("source,want", [
    ("import numpy as np\nnp.bitwise_count(w)", [(2, "numpy.bitwise_count")]),
    ("import numpy\nx = numpy.concat([a, b])", [(2, "numpy.concat")]),
    ("import numpy as xp\nxp.cumulative_sum(a); xp.pow(a, 2)",
     [(2, "numpy.cumulative_sum"), (2, "numpy.pow")]),
    ("from numpy import unstack, isdtype, sum", [(1, "numpy.isdtype"), (1, "numpy.unstack")]),
    ("import numpy as np\nf = np.vecdot", [(2, "numpy.vecdot")]),
    ("import numpy as np\nnp.linalg.vector_norm(a)", [(2, "numpy.linalg.vector_norm")]),
    ("from numpy import linalg as la\nla.matrix_norm(a)", [(2, "numpy.linalg.matrix_norm")]),
    ("from numpy.linalg import svdvals", [(1, "numpy.linalg.svdvals")]),
    # numpy 1.24 has these; a name of another module is not numpy's
    ("import numpy as np\nnp.cross(a, b); np.power(a, 2); np.linalg.norm(a)", []),
    ("import math\nmath.pow(2, 3); np.bitwise_count(w)", []),
])
def test_scan_flags_numpy2_names(source, want):
    assert numpy2_uses(source) == want
