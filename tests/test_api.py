"""The package's public names, read in a fresh interpreter.

A fresh process sees only what ``import ultracalc`` binds, not the modules
and attributes that other tests have imported.
"""

import json
import subprocess
import sys

SCRIPT = """
import json

import ultracalc
from ultracalc import projection

names = ultracalc.__all__
scope = {}
exec("from ultracalc import *", scope)
del scope["__builtins__"]
removed = ("compare_ae", "locality_residual", "AE_COEFF_TOL")
print(json.dumps({
    "unresolved": [n for n in names if not hasattr(ultracalc, n)],
    "duplicates": sorted({n for n in names if names.count(n) > 1}),
    "star_not_all": sorted(set(scope) ^ set(names)),
    "removed_present": [
        f"{m.__name__}.{n}" for m in (ultracalc, projection) for n in removed if hasattr(m, n)
    ],
}))
"""


def test_public_names_resolve_and_star_import_binds_exactly_all():
    cp = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout) == {
        "unresolved": [],
        "duplicates": [],
        "star_not_all": [],
        "removed_present": [],
    }
