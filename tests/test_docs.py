"""The README's examples run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC
from ringcache.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")

# every `ringcache ...` line of the README's sh blocks, as an argv
CLI_EXAMPLES = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S)
    for line in block.splitlines()
    if line.startswith("ringcache ")
]


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) == 13


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=" ".join)
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch):
    # examples that write with -o write into a scratch directory
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def test_cli_import_starts_no_worker_machinery():
    probe = (
        "import sys, ringcache.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out == "[]\n"
