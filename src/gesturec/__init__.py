"""gesturec: compile gesture-annotated dialog scripts for two virtual
storytelling agents into deterministic, timed gesture-performance scripts,
and reproduce the accompanying experiment statistics."""

import functools
import gc

__version__ = "0.1.0"


def pauses_gc(func):
    """Run ``func`` with automatic cyclic garbage collection paused.

    For the entry points that build large record sets that stay alive: the
    records are tuples, dicts and lists with no reference cycles, so the
    young collections their allocations would start find nothing, and
    reference counting frees them as before.  The collector is turned back
    on when the call returns or raises, only if it was on when the call
    started; a nested call changes nothing.  ``gc.disable`` is process-wide:
    while a call runs, automatic collection is paused for every thread."""
    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused
