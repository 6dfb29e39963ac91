"""The byte-identity check set (tests/check_set.py) against its golden file."""

import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def _golden() -> tuple[str, list[str]]:
    [versions, *lines] = (HERE / "check_set.golden").read_text(encoding="utf-8").splitlines()
    return versions, lines


def test_check_set_prints_its_golden_file():
    # a subprocess, so the set's caches stay out of the other tests
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(HERE / "check_set.py")], capture_output=True,
                         text=True, timeout=600, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr[-4000:]
    [versions, *lines] = run.stdout.splitlines()
    golden_versions, golden = _golden()
    assert versions == golden_versions, (
        f"tests/check_set.golden was made under other versions ({golden_versions[2:]}) "
        f"than this run ({versions[2:]}), so its lines need not match")
    changed = sorted({line.rsplit("  exit=", 1)[0] for line in set(lines) ^ set(golden)})
    assert lines == golden, (
        f"{len(lines)} commands ran against {len(golden)} in tests/check_set.golden; "
        "these print other lines:\n" + "\n".join(changed))


def test_the_docs_count_the_commands_of_the_golden_file():
    # the check_set.py docstring and the README's Tests section state the size of the set
    count = len(_golden()[1])
    docstring = (HERE / "check_set.py").read_text(encoding="utf-8")
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    assert re.search(r"^The (\d+) commands:$", docstring, re.M).group(1) == str(count)
    assert re.search(r"runs a fixed set of `quad` commands in-process\s+\((\d+):",
                     readme).group(1) == str(count)
