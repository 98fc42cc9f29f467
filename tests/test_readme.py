"""README's library examples run as written, against the package's exports,
and its command lines parse against the CLI."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import ahpatron
import ahpatron.cli as cli

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


def _readme_commands() -> list[list[str]]:
    """argv of every ``ahpatron ...`` line in README's plain fenced blocks,
    continuation lines joined and the block's shell variables expanded."""
    commands = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S):
        variables = {}
        for line in block.replace("\\\n", " ").splitlines():
            name, eq, value = line.partition("=")
            if line.startswith("ahpatron "):
                line = re.sub(r"\$(\w+)", lambda m: variables[m.group(1)], line)
                commands.append(shlex.split(line))
            elif eq and name.isidentifier():
                variables[name] = shlex.split(value)[0]
    return commands


def test_readme_commands_parse():
    # Each documented command is parsed, not run, so a flag change that
    # breaks one fails here.
    commands = _readme_commands()
    assert len(commands) == 7
    failures = []
    for argv in commands:
        try:
            cli._build_parser().parse_args(argv[1:])
        except cli.CliError as e:
            failures.append(f"{shlex.join(argv)}: {e}")
    assert failures == []
