"""Every demos/ script and the README quick start run in process, warnings as errors;
demo 04 runs once more in a subprocess under AVX2 SIMD dispatch."""

import contextlib
import io
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import infobounds

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


# demo 04 runs under NumPy's SIMD dispatch capped at AVX2; it reports whether that
# switched AVX-512 off, which it cannot on a CPU that never had it
AVX2_DEMO_SCRIPT = """
import runpy, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
print("AVX512_SKX switched off:", not __cpu_features__.get("AVX512_SKX", False))
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def test_demo_04_csv_is_the_golden_under_avx2_dispatch(tmp_path):
    # the sweep's log1p is the scalar math.log1p, so no SIMD path moves its last bits
    demo = next(path for path in DEMOS if path.stem == "04_noisy_phase_transition")
    src = str(Path(infobounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src,
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    proc = subprocess.run([sys.executable, "-c", AVX2_DEMO_SCRIPT, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout.splitlines()[0]
    written = (tmp_path / "noisy_phase_transition.csv").read_bytes()
    assert written == (GOLDEN / "demo-noisy_phase_transition.csv").read_bytes(), report


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert re.fullmatch(r"0\.944\d* >= 0\.306\d*\n", out.getvalue())
