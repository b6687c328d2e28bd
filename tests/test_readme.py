"""Every ``gesturec.…`` name that ``README.md`` gives in backticks exists:
its longest prefix that is a module imports, and each name after that is
an attribute of what comes before it."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
NAMES = sorted(set(re.findall(r"`(gesturec(?:\.\w+)+)", README.read_text(encoding="utf-8"))))


def test_the_readme_names_the_package():
    assert "gesturec.emitter.read_script" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_every_name_in_the_readme_exists(name):
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        break
    for attribute in parts[split:]:
        assert hasattr(value, attribute), f"{name}: no {attribute!r}"
        value = getattr(value, attribute)
