"""Import hygiene: numpy is the only third-party module the package loads."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ALLOWED = {"numpy", "repro"}

# Runs in a fresh interpreter: modules ``site`` loads at startup are in
# ``before`` and do not count against the package, and neither do
# aliases of ``__main__`` (``multiprocessing.spawn`` adds ``__mp_main__``).
PROBE = """
import importlib, json, sys
new = {}
for name in ("repro", "repro.cli"):
    before = set(sys.modules)
    importlib.import_module(name)
    new[name] = sorted({
        m.split(".")[0] for m in set(sys.modules) - before
        if sys.modules[m] is not sys.modules["__main__"]
    })
print(json.dumps(new))
"""


def test_import_loads_no_third_party_module_but_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    new = json.loads(out)
    assert "repro" in new["repro"]
    for name, modules in new.items():
        foreign = sorted(
            m for m in modules
            if m not in sys.stdlib_module_names and m not in ALLOWED
        )
        assert foreign == [], f"import {name} loaded {foreign}"
