"""The package's top level: what `import strongpow` loads, and the README's
Library example run as written."""

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_does_not_load_the_cli():
    # a fresh interpreter, so no other test has imported strongpow.cli already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code = "import sys, strongpow; print(sorted(m for m in sys.modules if m.startswith('strongpow')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "strongpow.cli" not in proc.stdout
    assert "'strongpow.verify'" in proc.stdout


def test_readme_library_block_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    lines = block.splitlines()
    namespace = {}
    values = []
    for stmt in ast.parse(block).body:
        code = ast.Module([stmt], type_ignores=[])
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        # each expression's comment starts with the value it evaluates to
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        assert comment.strip().startswith(repr(value)), (comment, value)
        values.append(value)
    assert values.count(540) == 2
    assert values.count(9288) == 2
    assert Fraction(34, 3) in values
    assert ((0, 1), (2, 3), (2, 4), (2, 5), (2, 6)) in values
