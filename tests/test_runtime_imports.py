"""The runtime needs only the standard library and numpy.

The test environment also has scipy, scikit-learn, Hypothesis and pytest
(for oracles and properties), so a stray runtime import of one of them
would pass every other test. Importing every radclust module in a fresh
interpreter shows it. The check is a denylist, not an allowlist: site
hooks may load unrelated modules at start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import radclust

TEST_ONLY = ("scipy", "sklearn", "hypothesis", "pytest")

PROBE = """
import importlib, json, pkgutil, sys
import radclust
names = [m.name for m in pkgutil.walk_packages(radclust.__path__, "radclust.")]
for name in names:
    importlib.import_module(name)
loaded = sorted({m.split(".")[0] for m in sys.modules} & set(sys.argv[1:]))
print(json.dumps({"modules": names, "test_only": loaded}))
"""


def test_radclust_imports_no_test_only_package():
    src = str(Path(radclust.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *TEST_ONLY],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert "radclust.clustering.birch" in result["modules"]
    assert "radclust.cli" in result["modules"]
    assert result["test_only"] == []
