"""Package-level tests: the public export lists, the README's library
quick start and its command-line examples."""

import pathlib
import re
import shlex

import pytest

import evfam
from evfam import cli, intseq

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [evfam, intseq], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_evfam_commands_run(tmp_path, monkeypatch):
    # every `evfam ...` line of the sh blocks, in order, from one directory,
    # so later examples read what earlier ones wrote
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["evfam"]]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
