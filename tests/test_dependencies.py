"""The library runs on numpy alone, without numpy's masked arrays.

The main paths run in a fresh interpreter, so that modules imported by other
tests cannot hide an import: SciPy is not a dependency, and ``numpy.ma``
(pulled in by, e.g., ``np.unique``) costs every process its import time.
"""

import subprocess
import sys

SCRIPT = """
import io, math, sys
from contextlib import redirect_stdout

from ultracalc import (
    Grid, Ladder, Space, basis_pair, cli, derivative_operator, project, refine,
)

space = Space(Grid.with_tags(1.0, [-0.3, 0.2, 0.2], 0.25), 2)
u = project(space, math.sin)
derivative_operator(space, "D").apply(u).sample([-0.5, 0.0, 0.2, 0.7])
basis_pair(space)
ladder = Ladder.from_base(space, 3, "beta-growth", factor=1.5)
ladder.observe(lambda sp: project(sp, math.cos)(0.1))
refine(space, "degree-raise")
with redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--trials", "3", "--seed", "1"])
assert code == 0, code
print(sorted(m for m in ("scipy", "numpy.ma") if m in sys.modules))
"""


def test_main_paths_import_neither_scipy_nor_masked_arrays():
    cp = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\n"
