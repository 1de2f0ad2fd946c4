"""Every entry point the traced benchmark wraps still exists.

perfbench/tracer.py names its entries as strings and looks each one up with
getattr when it installs, so renaming or deleting one of them breaks only the
traced run.  This test resolves the same names without installing anything.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_entry_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, entries in tracer.ENTRIES.items():
        home = importlib.import_module("nclab." + mod_name)
        for entry in entries:
            owner_name, _, attr = entry.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{mod_name}.{entry}")
    assert not missing, missing
