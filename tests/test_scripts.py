from __future__ import annotations

import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from .paths import FIXTURES, REPO_ROOT, SCRIPTS, load_script

# CPython versions the pytest-free checks also run under, each in its own process.
OTHER_VERSIONS = ("3.10", "3.12", "3.13")


def test_make_fixtures_reproduces_the_shipped_fixtures(tmp_path):
    script = load_script("make_fixtures")
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


def _run(python: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """``python -m <args>`` from the repository root, with ``env`` added to the environment."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **env)
    return subprocess.run([python, "-m", *args], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


PYENV_VERSIONS = pathlib.Path(
    os.environ.get("PYENV_ROOT", pathlib.Path.home() / ".pyenv")) / "versions"


def _run_under(version: str, *args: str) -> subprocess.CompletedProcess:
    """``python -m <args>`` from the repository root under pyenv's CPython ``version``."""
    found = sorted(PYENV_VERSIONS.glob("%s.*/bin/python%s" % (version, version)))
    if not found:
        pytest.skip("no CPython %s under %s" % (version, PYENV_VERSIONS))
    return _run(str(found[-1]), *args)


def _assert_golden_check(result: subprocess.CompletedProcess) -> None:
    assert result.returncode == 0, result.stdout + result.stderr
    assert re.search(r"^0 of [1-9]\d* calls differ$", result.stdout, re.M), result.stdout


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_the_golden_corpus_holds_under_other_interpreters(version):
    """``python -m tests.test_golden_cli --check`` under pyenv's CPython ``version``."""
    _assert_golden_check(_run_under(version, "tests.test_golden_cli", "--check"))


def test_the_golden_corpus_holds_under_the_python3_13_on_path():
    """The same check under the ``python3.13`` found on PATH, when it is another
    patch release than pyenv's: argparse's reading of dash arguments changed
    within 3.13."""
    found = shutil.which("python3.13")
    if found is None:
        pytest.skip("no python3.13 on PATH")
    release = subprocess.run([found, "-c", "import platform; print(platform.python_version())"],
                             capture_output=True, text=True, timeout=60).stdout.strip()
    if (PYENV_VERSIONS / release).is_dir():
        pytest.skip("the python3.13 on PATH, %s, is pyenv's own %s" % (found, release))
    _assert_golden_check(_run(found, "tests.test_golden_cli", "--check"))


@pytest.mark.parametrize("seed", ["0", "1"])
def test_the_golden_corpus_holds_under_fixed_hash_seeds(seed):
    """``python -m tests.test_golden_cli --check`` in a child of this interpreter
    under ``PYTHONHASHSEED=seed``, so that no output follows set or dict order."""
    _assert_golden_check(_run(sys.executable, "tests.test_golden_cli", "--check",
                              PYTHONHASHSEED=seed))


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_the_member_reader_decodes_as_json_under_other_interpreters(version):
    """``python -m tests.reader_differential`` under pyenv's CPython ``version``:
    json's messages differ between versions, and the reader must give each one's."""
    result = _run_under(version, "tests.reader_differential")
    assert result.returncode == 0, result.stdout + result.stderr
    assert re.search(r"^0 of [1-9]\d* texts differ$", result.stdout, re.M), result.stdout
    assert "\n0 untaken texts decode to a non-empty object\n" in result.stdout
    assert re.search(r"^[1-9]\d* texts name a member twice in one object$", result.stdout, re.M)


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_digests_load_no_openssl_under_other_interpreters(version):
    """``python -m tests.digest_check`` under pyenv's CPython ``version``: the
    built-in SHA-256 module has another name from 3.12, and a wrong one would
    silently load OpenSSL through ``hashlib``."""
    result = _run_under(version, "tests.digest_check")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "hash libraries loaded: none\n" in result.stdout
    assert re.search(r"^0 of [1-9]\d* digests differ$", result.stdout, re.M), result.stdout


def test_every_traced_name_is_a_callable_of_oit(monkeypatch):
    """The benchmark's tracer swaps each of these module attributes for a timing
    wrapper, so each must stay a function of its module."""
    import oit

    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    tracing = load_script("tracing", REPO_ROOT / "bench")
    names = [(module, name) for module, names in tracing.TRACED.items() for name in names]
    for module, name in names + [("model", "combine"), ("flow", "coverage")]:
        assert callable(getattr(getattr(oit, module), name, None)), "%s.%s" % (module, name)
