"""The README's library example must run against the current API, and its
configuration table must list every config key with its default."""

import re
from pathlib import Path

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
