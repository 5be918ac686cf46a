"""Every demos/ script and the README quick start run in process, warnings as errors."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # demos may write their outputs to the working directory
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(path, tmp_path, monkeypatch):
    # stdout is tests/golden/demo-<script>.txt, each written file tests/golden/demo-<file>
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue() == (GOLDEN / f"demo-{path.stem}.txt").read_text(encoding="utf-8")
    for written in sorted(tmp_path.iterdir()):
        assert written.read_bytes() == (GOLDEN / f"demo-{written.name}").read_bytes(), written.name


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert re.fullmatch(r"0\.944\d* >= 0\.306\d*\n", out.getvalue())
