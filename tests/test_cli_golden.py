"""Golden transcript of the command line.

Runs a fixed list of commands on fixed records and compares each one's
stdout, stderr and exit code, byte for byte, with
tests/data/cli_transcript.txt.  To re-record it after an intended output
change:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_transcript.txt

Classification stops at n = 1: from n = 2 on, every built-in prints
classes that share an invariant key, a split the letter budget alone can
cause, so those outputs are not pinned.
"""

import contextlib
import io
import pathlib
import sys
import tempfile

from nanowords import BUILTIN_NAMES
from nanowords.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_transcript.txt"

RECORDS = {
    "square.txt": "proj: A=a B=a\nphrase: A B A B\n",
    "empty.txt": "phrase:\n",
    "pair.txt": "proj: A=a+ B=b-\nphrase: A B B A\n",
    "two.txt": "proj: A=a B=a\nphrase: A B | A B\n",
    "lifted.txt": "proj: A=a_1_2 B=a_1_2\nphrase: A B A B\n",
    "remark.txt": "proj: A=a_1_2\nphrase: A A\n",
    "ornament.txt": "proj: A=a_1_2 B=a_1_1\nphrase: A B B A\n",
    "violation.txt": "proj: A=a_1_1 B=a_2_2\nphrase: A B A B\n",
    "own.txt": "alpha: x y\ntau: x=y\nproj: A=x B=y\nphrase: A B | B A\n",
    "own_doubled.txt": "alpha: x y\ntau: x=y\nproj: A=x\nphrase: A A\n",
    "own_empty.txt": "alpha: x y\ntau: x=y\nphrase:\n",
    "relabelled.txt": "proj: X=a Y=a\nphrase: X Y X Y\n",
    "noq_square.txt": "alpha: a\nQ:\nproj: A=a B=a\nphrase: A B A B\n",
    "noq_doubled.txt": "alpha: a\nQ:\nproj: A=a\nphrase: A A\n",
    "rigid_square.txt": "alpha: a\nQ:\nR:\nproj: A=a B=a\nphrase: A B A B\n",
    "rigid_pair.txt": "alpha: a\nQ:\nR:\nproj: A=a B=a\nphrase: A B B A\n",
}

COMMANDS = [
    *(["enumerate", "--builtin", name, "--k", k, "--n", n, "--format", fmt]
      for name in BUILTIN_NAMES for k in "12" for n in "012" for fmt in ("report", "tsv")),
    *(["classify", "--builtin", name, "--k", k, "--n", n, "--format", fmt]
      for name in BUILTIN_NAMES for k in "12" for n in "01" for fmt in ("report", "tsv")),
    ["enumerate", "own.txt", "--n", "2"],
    ["classify", "own.txt", "--n", "1"],
    *([command, *argv] for command in ("validate", "canon") for argv in (
        ["square.txt", "--builtin", "curves"],
        ["lifted.txt", "--builtin", "curves", "--k", "2"],
        ["ornament.txt", "--builtin", "ornaments", "--k", "2"],
        ["own.txt"])),
    ["invariants", "square.txt", "--builtin", "curves"],
    ["invariants", "square.txt", "--builtin", "diagonal", "--format", "tsv"],
    ["invariants", "pair.txt", "--builtin", "links"],
    ["invariants", "lifted.txt", "--builtin", "curves", "--k", "2"],
    ["invariants", "remark.txt", "--builtin", "diagonal", "--k", "2"],
    ["invariants", "ornament.txt", "--builtin", "ornaments", "--k", "2"],
    ["invariants", "violation.txt", "--builtin", "curves", "--k", "2"],
    ["invariants", "own.txt"],
    ["lift", "two.txt", "--builtin", "curves"],
    ["lift", "own.txt"],
    ["project", "lifted.txt", "--builtin", "curves", "--k", "2"],
    ["project", "ornament.txt", "--builtin", "ornaments", "--k", "2"],
    ["project", "violation.txt", "--builtin", "curves", "--k", "2"],
    ["equiv", "own_doubled.txt", "own_empty.txt"],
    ["equiv", "pair.txt", "empty.txt", "--builtin", "links"],
    ["equiv", "remark.txt", "empty.txt", "--builtin", "diagonal", "--k", "2",
     "--max-states", "50"],
    ["equiv", "square.txt", "empty.txt", "--builtin", "curves", "--max-states", "50"],
    ["equiv", "square.txt", "empty.txt", "--builtin", "diagonal", "--max-letters", "8",
     "--max-states", "40"],
    ["equiv", "square.txt", "two.txt", "--builtin", "curves"],
    ["equiv", "square.txt", "relabelled.txt", "--builtin", "curves"],
    ["equiv", "noq_square.txt", "noq_doubled.txt"],
    ["equiv", "rigid_square.txt", "rigid_pair.txt"],
]


def transcript(directory):
    """The transcript of COMMANDS, with the records written to directory."""
    directory = pathlib.Path(directory)
    for name, text in RECORDS.items():
        (directory / name).write_text(text, encoding="utf-8")
    out = []
    for argv in COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(directory / a) if a in RECORDS else a for a in argv])
        out.append(f"$ nanowords {' '.join(argv)}\nexit: {code}\n"
                   f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
    return "".join(out)


def test_cli_transcript_is_unchanged(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").split("$ nanowords ")
    actual = transcript(tmp_path).split("$ nanowords ")
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        sys.stdout.write(transcript(scratch))
