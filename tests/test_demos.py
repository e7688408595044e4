"""Every narrative script under demos/, and the README's library quick
start, runs to completion with every warning raised as an error; the
demos import only public names."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    result = _run([str(demo)])
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_only_public_names(demo):
    for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                parts = f"{module}.{alias.name}".strip(".").split(".")
                if parts[0] == "handeye":
                    assert not any(p.startswith("_") for p in parts), ast.unparse(node)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "[...]" not in code
    result = _run(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
