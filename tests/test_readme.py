"""Every ``afkit`` command in README's shell examples parses with the CLI's
parser, and ``main``'s lean reader reads each to the same namespace; the
examples show every subcommand and every action, and the CLI section's
example block runs as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from afkit.cli import _read_args, build_parser
from helpers import subparsers

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["afkit"]:
                # the shell, not afkit, reads a redirection or a pipe
                cut = [i for i, w in enumerate(words) if w in (">", ">>", "|")]
                commands.append(words[1:cut[0] if cut else None])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands
    parser = build_parser()
    names = set()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: afkit {' '.join(argv)}")
        assert _read_args(argv) == args, f"the reader does not take: afkit {' '.join(argv)}"
        names.add((args.command, getattr(args, "action", None)))
    # the examples show every subcommand, and every action of one that has actions
    assert names == {(name, action) for name, p in subparsers(parser).items() for action in subparsers(p) or [None]}


def test_readme_cli_block_runs_as_written(tmp_path):
    # the first sh block under "## CLI", run by bash -e in an empty directory,
    # with afkit standing for python -m afkit on the source tree
    cli_section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", cli_section, re.S).group(1)
    script = f'afkit() {{ "{sys.executable}" -m afkit "$@"; }}\n{block}'
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    done = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
