"""The README's library example must run against the current API, its
configuration table must list every config key with its default, and its
module map must list every public name."""

import re
from pathlib import Path

import rulemix
from rulemix import TrainingConfig, config_from_flat, config_to_flat

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)


def test_every_python_block_runs(capsys):
    blocks = python_blocks()
    assert blocks, "README has no ```python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def configuration_rows():
    """The ``(key, default)`` cells of README's Configuration table, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, re.MULTILINE)


def test_configuration_table_lists_every_key_with_its_default():
    rows = configuration_rows()
    assert [key for key, _ in rows] == list(config_to_flat(TrainingConfig()))
    assert config_from_flat(dict(rows)) == TrainingConfig()


def module_map_names():
    """The public names README's module map lists after each module, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- `[\w.]+`, [^:`]*: (.*)$", section, re.MULTILINE)
    return re.findall(r"`(\w+)`", " ".join(items))


def test_module_map_lists_each_public_name_once():
    names = module_map_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(rulemix.__all__)
