"""The scripts in ``scripts/`` load against the current package."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_regenerate_golden_imports():
    # loaded under a name other than __main__, the script imports the
    # package and defines main() without running the 10^7-path reference;
    # a subprocess keeps its thread settings and sys.path out of this one
    code = (
        "import runpy, sys; "
        "ns = runpy.run_path(sys.argv[1], run_name='check'); "
        "print(callable(ns['main']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "scripts" / "regenerate_golden.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")
