from __future__ import annotations

import importlib.util
import subprocess
import sys

from .conftest import FIXTURES, REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"


def test_make_fixtures_reproduces_the_shipped_fixtures(tmp_path):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPTS / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.FIXTURES = tmp_path
    script.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_proposition_sweep_runs_clean():
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "proposition_sweep.py"), "20"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "ok" in result.stdout
