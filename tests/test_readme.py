"""The `pia` commands of README.md give the output pinned in
`readme_golden.json`, byte for byte.

The commands are read from the README's "Command line" block, so editing
one there without regenerating the golden file fails here too.  To
regenerate it after a deliberate change of output:

    PYTHONPATH=src python tests/test_readme.py
"""

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from phaseintegral.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("readme_golden.json")


def readme_commands() -> list:
    """argv of each `pia` line in the README's "Command line" block, with
    continuation lines joined and any shell redirection dropped."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    block = block.replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        words = shlex.split(line)
        if words[:1] == ["pia"]:
            commands.append(words[1:words.index(">")] if ">" in words
                            else words[1:])
    return commands


def run(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_readme_lists_the_pinned_commands():
    got = [" ".join(argv) for argv in readme_commands()]
    assert len(got) == 5
    assert got == list(_golden())


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda a: a[0]
                         if a[0] != "verify" else "verify-" + a[-1])
def test_readme_command_output_is_pinned(argv):
    want = _golden()[" ".join(argv)]
    code, out = run(argv)
    assert code == 0
    assert out == want


if __name__ == "__main__":
    golden = {}
    for argv in readme_commands():
        code, out = run(argv)
        if code != 0:
            sys.exit(f"pia {' '.join(argv)} exited with {code}")
        golden[" ".join(argv)] = out
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
