"""gesturec: compile gesture-annotated dialog scripts for two virtual
storytelling agents into deterministic, timed gesture-performance scripts,
and reproduce the accompanying experiment statistics."""

__version__ = "0.1.0"
