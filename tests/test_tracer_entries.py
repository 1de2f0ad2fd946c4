"""Every entry point the traced benchmark wraps still exists.

perfbench/tracer.py names its entries as strings and looks each one up with
getattr when it installs, so renaming or deleting one of them breaks only the
traced run.  These tests resolve the same names without installing anything.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

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


def test_cli_registers_every_entry_module():
    # The recorder imports nclab.cli and then reads each entry's module out
    # of sys.modules: cli must register them all, unexecuted, and reading
    # an entry must execute its module and give the function defined there.
    script = (
        "import importlib.util, sys, types\n"
        "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "import nclab, nclab.cli\n"
        "for mod_name, entries in tracer.ENTRIES.items():\n"
        "    home = sys.modules['nclab.' + mod_name]\n"
        "    assert getattr(nclab, mod_name) is home, mod_name\n"
        "    for entry in entries:\n"
        "        owner_name, _, attr = entry.rpartition('.')\n"
        "        owner = getattr(home, owner_name) if owner_name else home\n"
        "        fn = getattr(owner, attr)\n"
        "        assert isinstance(fn, types.FunctionType), entry\n"
        "        assert fn.__module__ == home.__name__, entry\n"
        "    assert type(home) is types.ModuleType, mod_name\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, os.path.join(ROOT, "perfbench", "tracer.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
