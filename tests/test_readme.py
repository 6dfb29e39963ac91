"""The README's examples run as written.

The Python blocks are executed in order in one namespace, as a reader
pasting them into one session would, so the documented API stays
importable and callable; the quick `quad` lines of the CLI section run
through the command's entry point.
"""

import pathlib
import re
import shlex

import numpy as np

import chebquad.cli as cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].passed
    assert max(namespace["errors"]) < 1e-13
    assert isinstance(namespace["x"], np.ndarray) and np.all(np.diff(namespace["x"]) < 0)
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_readme_quick_cli_lines_exit_zero(capsys):
    cli_section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", cli_section, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert [argv[0] for argv in lines] == ["quad"] * 5
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().out.startswith("#")
