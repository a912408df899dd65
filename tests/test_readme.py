"""The `pia` commands of README.md give the output pinned in
`readme_golden.json`, byte for byte.

The commands are read from the README's "Command line" block, so editing
one there without regenerating the golden file fails here too.  To
regenerate it after a deliberate change of output:

    PYTHONPATH=src python tests/test_readme.py

which first prints, for each command, the largest change against the
golden output it replaces (see `changes`).
"""

import contextlib
import csv
import io
import json
import math
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


def _json_changes(old, new, where=""):
    """(place, relative change) of each number of a JSON output; a change
    of layout, text or flag counts as infinite."""
    if isinstance(old, dict) and isinstance(new, dict) \
            and old.keys() == new.keys():
        for key in old:
            yield from _json_changes(old[key], new[key], f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_changes(a, b, f"{where}[{i}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
             for v in (old, new)):
        yield where, abs(new - old) / abs(old) if old else abs(new)
    elif old != new:
        yield where, math.inf


def _csv_changes(old: str, new: str):
    """(column, largest change) of each column of a CSV output, as a share
    of the column's largest |value|; an im_ column is measured against the
    scale of its re_ column too, so round-off on a zero imaginary part is
    judged against the number it belongs to."""
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        yield "layout", math.inf
        return
    cols = {}
    for j, name in enumerate(old_rows[0]):
        pair = [[r[j] for r in old_rows[1:]], [r[j] for r in new_rows[1:]]]
        try:
            cols[name] = [[float(v) for v in col] for col in pair]
        except ValueError:          # a text column
            yield name, 0.0 if pair[0] == pair[1] else math.inf
    for name, (a, b) in cols.items():
        partner = cols.get("re_" + name[3:], [a])[0] \
            if name.startswith("im_") else a
        scale = max(map(abs, a + partner))
        diff = max(abs(u - v) for u, v in zip(a, b))
        yield name, diff / scale if scale else diff


def changes(old: str, new: str) -> list:
    """(place, change) of every number of a command's output against the
    golden `old`: per CSV column, or per number of a JSON output."""
    try:
        old_json = json.loads(old)
    except ValueError:
        return list(_csv_changes(old, new))
    try:
        return list(_json_changes(old_json, json.loads(new)))
    except ValueError:
        return [("layout", math.inf)]


def test_changes_against_the_golden_output():
    old = "x,re_a,im_a,note\n1,100,0,\n2,-50,1e-17,\n"
    got = dict(changes(old, old.replace("-50,1e-17", "-50.0001,2e-17")))
    assert got["x"] == got["note"] == 0.0
    assert got["re_a"] == pytest.approx(1e-6)
    assert got["im_a"] == pytest.approx(1e-19)      # on re_a's scale
    assert dict(changes('{"s": [2.0, true]}', '{"s": [2.5, true]}')) \
        == {".s[0]": 0.25}
    assert dict(changes('{"pass": true}', '{"pass": false}')) \
        == {".pass": math.inf}
    assert dict(changes(old, "x,a\n")) == {"layout": math.inf}


if __name__ == "__main__":
    before = _golden() if GOLDEN.exists() else {}
    golden = {}
    for argv in readme_commands():
        code, out = run(argv)
        if code != 0:
            sys.exit(f"pia {' '.join(argv)} exited with {code}")
        cmd = " ".join(argv)
        golden[cmd] = out
        if cmd not in before:
            print(f"{cmd}: new")
        elif before[cmd] == out:
            print(f"{cmd}: identical")
        else:
            place, worst = max(changes(before[cmd], out),
                               key=lambda c: c[1], default=("-", 0.0))
            print(f"{cmd}: largest change {worst:.3g} ({place})")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
