"""Repository paths and script loading for the tests, importable without pytest."""

from __future__ import annotations

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"
SCRIPTS = REPO_ROOT / "scripts"


def load_script(name: str, directory: pathlib.Path = SCRIPTS):
    """Import ``<directory>/<name>.py`` as a module without running its ``main``."""
    spec = importlib.util.spec_from_file_location(name, directory / (name + ".py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script
