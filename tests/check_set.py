"""Byte-identity check set for the `quad` command.

Runs a fixed list of `quad` commands in-process through chebquad.cli.main
and prints one line per command: its argv, its exit code and a sha256 of
its stdout, stderr and --out bytes, after a first line that names the
versions of Python, numpy, scipy and mpmath.  Two trees that give the same
lines give the same bytes on every command of the set.  Run it against
each tree's sources and compare:

    PYTHONPATH=<parent>/src python tests/check_set.py > parent.txt
    PYTHONPATH=<change>/src python tests/check_set.py > change.txt
    diff parent.txt change.txt

tests/check_set.golden holds the lines of the current tree, and
tests/test_check_set.py compares a fresh run with it.  A change that
moves bytes rewrites it (PYTHONPATH=src python tests/check_set.py >
tests/check_set.golden); its diff lists the moved commands.

The 382 commands:

* every `quad` line of README.md (13), the `for fam` loop expanded;
* one command per usage or numerical error message of cli.py, and the
  fit-window message a second time at a weight exponent near -1, where
  the oracle once refused the reference (20), except two messages that
  tests/test_cli.py checks instead: the one for an --out path that
  cannot be written (the set writes every --out into a temporary
  directory) and the one for a request too large for memory (it needs
  a child process under an address-space limit);
* `alias-table` on every family, n in {1, 2, 3, 5, 8, 17, 64, 200}, for
  four weights (Gauss-Legendre takes the unit weight only, and
  Clenshaw-Curtis starts at n = 2) (100);
* `weight-sums` on the three Chebyshev families with n = 6000..6003 (two
  rules per chunk) and n = 16383..16386 (rules at and above one chunk of
  2^14 points), chunk boundaries the workloads do not reach (6);
* `weight-sums` on Fejer-1 at an extended-route Jacobi weight with
  n = 100..500, then n = 100..1000: the sweeps take moment tables of
  different buckets, and the second takes the chunks it shares with the
  first from the store, and prints the bytes of a fresh build (2);
* every command of one seed-1 pass of the three perfbench workloads (228);
* `--format table` on every command but `gauss-open-problem`: `nodes`
  (once to stdout, once to --out), `weights`, `moments`, `integrate`,
  `alias-table` on Gauss-Legendre and on Fejer-2, one short
  `convergence` and one `weight-sums` (9);
* `moments` on three weights near float64's limit: one whose
  2^(alpha+beta+1) overflows although its table does not, and two whose
  recurrence overflows at k = 2 (3);
* last, `moments` on a weight with a -0 parameter, which must print the
  table of +0 whatever ran before (1).

An --out file is written to a temporary directory and read back; the
printed argv keeps the name the command gave.  One run takes about 6 s on
two cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import platform
import re
import shlex
import sys
import tempfile
from importlib.metadata import version

from chebquad import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """The `quad` lines of the README's sh blocks, joined across
    backslash continuations, with `for VAR in A B; do ... done` expanded."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        block = block.replace("\\\n", " ")
        loop = None  # (variable, values) inside a for loop
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if not words:
                continue
            if words[0] == "for":
                loop = (words[1], [w.rstrip(";") for w in words[3:words.index("do")]])
            elif words[0] == "done":
                loop = None
            elif words[0] == "quad":
                if loop is None:
                    commands.append(words[1:])
                else:
                    var, values = loop
                    commands += [[re.sub(r"\$\{?%s\}?" % var, value, w) for w in words[1:]]
                                 for value in values]
    return commands


# One command per message of cli.py that ends a run with exit 1 or 2, the
# fit-window message again near alpha = -1, and one study that misses its
# rate (exit 3).
ERROR_COMMANDS = [
    [],                                                                  # argparse usage
    ["nodes", "--family", "f1", "--n", "four"],                          # argparse type
    ["nodes", "--family", "hermite", "--n", "4"],                        # unknown family
    ["nodes", "--family", "f1", "--n", "4", "--weight", "beta:1:2"],     # weight grammar
    ["nodes", "--family", "f1", "--n", "4", "--weight", "jacobi:a:2"],   # non-numeric weight
    ["integrate", "--family", "f1", "--n", "4", "--f", "sin:1:2"],       # function grammar
    ["integrate", "--family", "f1", "--n", "4", "--f", "abspow:x:2"],    # non-numeric function
    ["weight-sums", "--family", "f1", "--n", "4:9:lin3"],                # n-range grammar
    ["weight-sums", "--family", "f1", "--n", "9:4"],                     # empty n-range
    ["weight-sums", "--family", "cc", "--n", "10:5:geom3"],              # empty n-range
    ["convergence", "--family", "f1", "--f", "abspow:0.5:0.6", "--n", "10:40",
     "--window", "10"],                                                  # window grammar
    ["alias-table", "--family", "f1", "--n", "4", "--m-max", "-1"],      # negative m-max
    ["nodes", "--family", "gauss", "--n", "4", "--weight", "jacobi:0.5:0"],  # ValueError
    ["nodes", "--family", "cc", "--n", "1"],                             # ValueError
    ["moments", "--weight", "jacobi:-1:0", "--K", "4"],                  # argparse type
    ["convergence", "--family", "f1", "--f", "abspow:0.5:0.6", "--n", "10:40",
     "--tolerance", "-1"],                                               # ValueError
    ["moments", "--weight", "jacobi:1030:0", "--K", "4"],                # NumericalFailure
    ["convergence", "--family", "f1", "--weight", "jacobi:-0.98:0", "--f",
     "abspow:0.5:0.6", "--n", "10:40"],                                  # fit window, near -1
    ["convergence", "--family", "f1", "--f", "abspow:0.5:0.6", "--n", "10:40"],  # ValueError
    ["convergence", "--family", "f1", "--f", "abspow:0.5:0.6", "--n", "10:40",
     "--window", "10:40", "--tolerance", "0"],                           # rate missed
]

ALIAS_WEIGHTS = ["jacobi:0:0", "jacobi:-0.3:0.2", "logjacobi:-0.6:-0.5", "logjacobi:2.062:1.478"]
ALIAS_NS = [1, 2, 3, 5, 8, 17, 64, 200]


CHUNK_COMMANDS = [["weight-sums", "--family", family, "--weight", "logjacobi:-0.6:-0.5",
                   "--n", ns]
                  for family in ("f1", "f2", "cc") for ns in ("6000:6003", "16383:16386")]


BUCKET_COMMANDS = [["weight-sums", "--family", "f1", "--weight", "jacobi:2.062:1.478",
                    "--n", ns]
                   for ns in ("100:500", "100:1000")]


# Moment tables near float64's limit: seeds whose 2^(alpha+beta+1) overflows
# (M_0 = 0.0723), and finite seeds whose recurrence overflows at k = 2.
LIMIT_COMMANDS = [["moments", "--weight", weight, "--K", "3"]
                  for weight in ("jacobi:600:600", "jacobi:1022.9:0", "logjacobi:1021:0")]


SIGNED_ZERO_COMMANDS = [["moments", "--weight", "jacobi:0:-0", "--K", "2"]]


# --format table, whose column widths come from every cell: the Gauss-Legendre
# alias table's r column mixes empty cells and ints, the Fejer-2 one is empty.
TABLE_COMMANDS = [[*argv, "--format", "table"] for argv in (
    ["nodes", "--family", "gauss", "--n", "7"],
    ["nodes", "--family", "cc", "--weight", "jacobi:-0.5:0.5", "--n", "9", "--out", "x.txt"],
    ["weights", "--family", "f1", "--weight", "logjacobi:-0.3:0.2", "--n", "9"],
    ["moments", "--weight", "jacobi:0.2:-0.3", "--K", "12"],
    ["integrate", "--family", "f2", "--weight", "jacobi:-0.5:-0.5", "--f", "abspow:0:1",
     "--n", "200"],
    ["alias-table", "--family", "gauss", "--n", "5"],
    ["alias-table", "--family", "fejer2", "--weight", "jacobi:-0.3:0.2", "--n", "5"],
    ["convergence", "--family", "cc", "--weight", "jacobi:-0.3:0.2", "--f", "abspow:0.5:0.6",
     "--n", "100:110"],
    ["weight-sums", "--family", "cc", "--weight", "jacobi:-0.6:-0.5", "--n", "25:400:geom5"],
)]


def alias_commands() -> list[list[str]]:
    commands = []
    for family in ("fejer1", "fejer2", "cc", "gauss"):
        for weight in ALIAS_WEIGHTS[:1] if family == "gauss" else ALIAS_WEIGHTS:
            for n in ALIAS_NS:
                if not (family == "cc" and n == 1):
                    commands.append(["alias-table", "--family", family, "--weight", weight,
                                     "--n", str(n)])
    return commands


def workload_commands() -> list[list[str]]:
    """The commands of one seed-1 pass of each workload; workloads.py is
    imported without writing its bytecode next to it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode, writes = True, sys.dont_write_bytecode
    try:
        import workloads
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = writes
    return [list(command)
            for name in ("gauss-sweep", "cheb-sweep", "weight-scan")
            for op in workloads.build(name, 1)
            for command in op["commands"]]


def run(argv: list[str], scratch: str) -> tuple[int, str]:
    """Exit code and sha256 of stdout, stderr and --out bytes of one command."""
    argv = list(argv)
    out_path = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        out_path = argv[i] = os.path.join(scratch, os.path.basename(argv[i]))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out = b""
    if out_path is not None and os.path.exists(out_path):
        out = pathlib.Path(out_path).read_bytes()
        os.remove(out_path)
    digest = hashlib.sha256()
    for part in (stdout.getvalue().encode(), stderr.getvalue().encode(), out):
        digest.update(len(part).to_bytes(8, "little") + part)
    return code, digest.hexdigest()


def main() -> None:
    commands = (readme_commands() + ERROR_COMMANDS + alias_commands() + CHUNK_COMMANDS
                + BUCKET_COMMANDS + workload_commands() + TABLE_COMMANDS + LIMIT_COMMANDS
                + SIGNED_ZERO_COMMANDS)
    print("  ".join([f"# python {platform.python_version()}",
                     *(f"{name} {version(name)}" for name in ("numpy", "scipy", "mpmath"))]))
    with tempfile.TemporaryDirectory() as scratch:
        for argv in commands:
            code, digest = run(argv, scratch)
            print(f"{shlex.join(['quad', *argv])}  exit={code}  sha256={digest}", flush=True)


if __name__ == "__main__":
    main()
