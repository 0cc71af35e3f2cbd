"""The python examples of README.md run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import uiokit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_a_fresh_interpreter():
    # The blocks build on each other (the data route reuses the model of
    # the model route), so they run in order, as one script.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(
        encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 2
    src = str(Path(uiokit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", "\n".join(blocks)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "observer exists: yes" in done.stdout
    # print(ok, residual): the error recursion held.
    assert re.search(r"^True \S+$", done.stdout, re.M), done.stdout
