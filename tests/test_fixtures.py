"""The shipped data fixtures are exactly what ``tools/make_fixtures.py``
builds: the generator is imported, run in memory, and compared byte for
byte with ``src/gesturec/data/``.  Nothing is written."""

from __future__ import annotations

import importlib.util

from conftest import DATA_DIR

GENERATOR = DATA_DIR.parents[2] / "tools" / "make_fixtures.py"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_fixtures", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_rebuilds_the_shipped_fixtures_byte_for_byte():
    built = _load_generator().build_fixtures()  # runs verify()
    shipped = {
        path.relative_to(DATA_DIR).as_posix(): path.read_bytes() for path in DATA_DIR.rglob("*") if path.is_file()
    }
    assert sorted(shipped) == sorted(built)
    for name, text in built.items():
        assert shipped[name] == text.encode("utf-8"), name
