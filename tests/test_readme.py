"""The README's Python examples run as written.

The blocks are executed in order in one namespace, as a reader pasting
them into one session would, so the documented API stays importable and
callable.
"""

import pathlib
import re

import numpy as np

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
