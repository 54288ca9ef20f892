"""Every demo script, and the README's library tour, runs to completion
against the library in `src`, with every warning an error (pytest's own
`-W error` does not reach the subprocess)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def readme_tour() -> str:
    """The README's one `python` code block, its library tour."""
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    return tour


@pytest.mark.parametrize("demo", [*DEMOS, README], ids=[d.name for d in [*DEMOS, README]])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ["-c", readme_tour()] if demo == README else [str(demo)]
    command = [sys.executable, "-W", "error", *script]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
