"""README's library examples run as written, against the package's exports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ahpatron

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # The second block reuses the first one's names, so they run as one script.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    src = str(Path(ahpatron.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", "\n".join(blocks)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    reports = [line for line in done.stdout.splitlines() if line.startswith("BoundReport(")]
    assert len(reports) == 2 and all("holds=True" in line for line in reports), done.stdout
