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


def fresh_import(probe: str) -> str:
    """Standard output of ``probe`` run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(rulemix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout


def test_import_loads_no_third_party_module_but_numpy():
    loaded = set(fresh_import(PROBE).split())
    assert "rulemix" in loaded
    third_party = loaded - set(sys.stdlib_module_names) - set(sys.builtin_module_names) - {"rulemix"}
    assert third_party == {"numpy"}


# Prints each name of ``rulemix.__all__`` that a fresh import does not define,
# then each name listed twice.
EXPORTS_PROBE = """
import collections
import rulemix
names = rulemix.__all__
print(sorted(name for name in names if not hasattr(rulemix, name)))
print(sorted(name for name, count in collections.Counter(names).items() if count > 1))
"""


def test_every_exported_name_resolves_once():
    assert fresh_import(EXPORTS_PROBE).splitlines() == ["[]", "[]"]
