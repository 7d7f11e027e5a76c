import os
import subprocess
import sys

import rulemix

# Prints the top-level names of every module that ``import rulemix`` loads.
PROBE = """
import sys
before = set(sys.modules)
import rulemix
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_no_third_party_module_but_numpy():
    src = os.path.dirname(os.path.dirname(rulemix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(result.stdout.split())
    assert "rulemix" in loaded
    third_party = loaded - set(sys.stdlib_module_names) - set(sys.builtin_module_names) - {"rulemix"}
    assert third_party == {"numpy"}
