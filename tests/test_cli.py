import math
import os
import subprocess
import sys

import pytest

import chebquad
import chebquad.cli as cli
from chebquad import Family
from chebquad.errors import NumericalFailure


def run_fresh(*argv, check=True, **kwargs):
    """Run the interpreter in a new process with the package importable."""
    src = os.path.dirname(os.path.dirname(chebquad.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=check,
                          **kwargs)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    return lines[0], lines[1:]  # header, rows


def test_moments_known_table(capsys):
    code, out, _ = run(capsys, "moments", "--weight", "jacobi:0:0", "--K", "4")
    assert code == 0
    header, rows = data_rows(out)
    assert header == "k,value"
    values = [row.split(",")[1] for row in rows]
    assert values == ["2", "0", "-0.66666666666666663", "0", "-0.13333333333333333"]


def test_nodes_gauss_two(capsys):
    code, out, _ = run(capsys, "nodes", "--family", "gauss", "--n", "2")
    assert code == 0
    header, rows = data_rows(out)
    assert header == "j,x,w"
    xs = [float(r.split(",")[1]) for r in rows]
    ws = [float(r.split(",")[2]) for r in rows]
    assert xs == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert ws == pytest.approx([1.0, 1.0], abs=2e-15)


def test_convergence_benign_cell_passes(capsys):
    code, out, _ = run(
        capsys, "convergence", "--family", "cc", "--weight", "jacobi:-0.3:0.2",
        "--f", "abspow:0.5:0.6", "--n", "10:1000",
    )
    assert code == 0
    fitted = next(
        float(ln.split("fitted_slope=")[1].split()[0])
        for ln in out.splitlines() if "fitted_slope=" in ln
    )
    assert fitted == pytest.approx(-1.6, abs=0.2)
    assert "passed=True" in out
    _, rows = data_rows(out)
    assert len(rows) == 991  # every integer in 10..1000


def test_convergence_exit_three_when_slope_misses(capsys):
    # a sound fit deliberately squeezed through a 0.001 margin
    code, out, _ = run(
        capsys, "convergence", "--family", "f1", "--weight", "jacobi:-0.3:0.2",
        "--f", "abspow:0.5:1.6", "--n", "100:300", "--tolerance", "0.001",
    )
    assert code == 3
    assert "passed=False" in out


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "nodes", "--family", "hexagon", "--n", "4")[0] == 1
    assert run(capsys, "nodes", "--family", "cc", "--weight", "jacobi:0", "--n", "4")[0] == 1
    assert run(capsys, "moments", "--weight", "jacobi:0:0", "--K", "-3")[0] == 1
    assert run(capsys, "convergence", "--family", "cc", "--weight", "jacobi:0:0",
               "--f", "abspow:0.5:0.6", "--n", "5:80")[0] == 1  # n below domain
    assert run(capsys, "alias-table", "--family", "gauss",
               "--weight", "jacobi:0.2:0", "--n", "8")[0] == 1
    code, out, err = run(capsys, "weight-sums", "--family", "gauss",
                         "--weight", "jacobi:0.5:0.5", "--n", "10:12")
    assert code == 1 and out == "" and "unit weight" in err
    code, out, _ = run(capsys, "moments", "--weight", "jacobi:inf:0", "--K", "4")
    assert code == 1 and out == ""
    code, _, err = run(capsys, "integrate", "--family", "cc",
                       "--weight", "jacobi:0:0", "--f", "sin:0:1", "--n", "8")
    assert code == 1 and "grammar" in err
    for bad in ("abspow:0.5:nan", "abspow:0.5:inf"):  # nan was a math domain error
        code, out, err = run(capsys, "convergence", "--family", "cc", "--f", bad,
                             "--n", "10:40")
        assert code == 1 and out == "" and err.startswith("usage:")
        assert f"invalid _parse_function value: '{bad}'" in err
    for argv in (("gauss-open-problem", "--f", "abspow:0.4:1.45", "--n", "10:3"),  # IndexError
                 ("weight-sums", "--family", "cc", "--n", "5:3"),  # an empty table, exit 0
                 ("weight-sums", "--family", "cc", "--n", "10:1:geom0"),
                 ("weight-sums", "--family", "cc", "--n", "10:5:geom3")):  # rows for 5, 7, 10
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err == f"quad: error: empty n-range {argv[-1]!r}\n"
    for tolerance in ("nan", "-1", "inf"):  # nan and -1 exited 3, inf passed every fit
        code, out, err = run(capsys, "convergence", "--family", "cc", "--f", "abspow:0.5:0.6",
                             "--n", "10:200", "--tolerance", tolerance)
        assert code == 1 and out == "" and "tolerance" in err


@pytest.mark.parametrize("name, family", [
    ("fejer1", Family.FEJER1), ("f1", Family.FEJER1),
    ("fejer2", Family.FEJER2), ("f2", Family.FEJER2),
    ("cc", Family.CLENSHAW_CURTIS), ("clenshaw-curtis", Family.CLENSHAW_CURTIS),
    ("gauss", Family.GAUSS_LEGENDRE), ("gl", Family.GAUSS_LEGENDRE),
    ("gauss-legendre", Family.GAUSS_LEGENDRE),
])
def test_every_family_name_parses_in_either_case(capsys, name, family):
    for text in (name, name.upper()):
        assert cli._parse_family(text) is family
        code, out, _ = run(capsys, "nodes", "--family", text, "--n", "3")
        assert code == 0 and out.startswith(f"# family={family.value} n=3 ")


@pytest.mark.parametrize("name", ["hexagon", "", "fejer", "clenshaw_curtis", "GAUSS_LEGENDRE",
                                  "legendre", " cc"])
def test_unknown_family_names_the_accepted_ones(capsys, name):
    code, out, err = run(capsys, "nodes", "--family", name, "--n", "3")
    assert code == 1 and out == ""
    assert err == f"quad: error: unknown family {name!r} (use fejer1, fejer2, cc or gauss)\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's RLIMIT_AS")
@pytest.mark.parametrize("argv", [
    ("convergence", "--family", "cc", "--f", "abspow:0.5:0.6", "--n", "10:100000000000"),
    ("weight-sums", "--family", "cc", "--n", "2:20:geom100000000000"),
])
def test_a_request_too_large_for_memory_is_a_one_line_error(monkeypatch, argv):
    # each asks for 10^11 n values: under a 3 GiB address space the first ends in
    # a bare MemoryError, which has no message, and the second in numpy's
    import resource  # Unix only

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    proc = run_fresh("-m", "chebquad.cli", *argv, check=False,
                     preexec_fn=limit_address_space, timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode == 1 and proc.stdout == b""
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("quad: error: ") and err.strip() != "quad: error:"


@pytest.mark.parametrize("family", ["f1", "f2"])
def test_fejer_one_point_rule(capsys, family):
    code, out, _ = run(capsys, "nodes", "--family", family, "--n", "1")
    assert code == 0
    assert data_rows(out)[1] == ["0,6.123233995736766e-17,2"]


def test_provenance_tags_keep_every_digit(capsys):
    _, out, _ = run(capsys, "moments", "--weight", "jacobi:-0.999999999:0", "--K", "2")
    assert out.startswith("# weight=jacobi:-0.999999999:0 K=2\n")  # was jacobi:-1:0
    _, out, _ = run(capsys, "integrate", "--family", "cc", "--f", "abspow:0.123456789:0.6",
                    "--weight", "logjacobi:-0.3:0.25", "--n", "8")
    assert out.startswith("# weight=logjacobi:-0.3:0.25 f=|x-0.123456789|^0.6\n")


def test_numerical_failure_exits_two(monkeypatch, capsys):
    def explode(*a, **k):
        raise NumericalFailure("synthetic oracle disagreement")

    monkeypatch.setattr(cli, "convergence_study", explode)
    code, _, err = run(
        capsys, "convergence", "--family", "cc", "--weight", "jacobi:0:0",
        "--f", "abspow:0.5:0.6", "--n", "100:200",
    )
    assert code == 2
    assert "numerical failure" in err
    # an overflowing moment seed used to end in an OverflowError traceback, exit 1
    code, out, err = run(capsys, "nodes", "--family", "cc", "--weight", "jacobi:1030:0",
                         "--n", "4")
    assert code == 2 and out == ""
    assert err.startswith("quad: numerical failure: moments of weight=")


def test_oracle_outside_its_domain_exits_two(capsys):
    # jacobi:0:-0.99 lies inside the oracle's domain: the closed form gives the
    # reference, and the study ends in its verdict (exit 3), not in a failure
    code, out, err = run(capsys, "convergence", "--family", "cc", "--weight", "jacobi:0:-0.99",
                         "--f", "abspow:0.5:1.6", "--n", "100:200")
    assert code == 3 and err == ""
    assert "reference=189.60185562897428 " in out
    assert "fitted_slope=-2.62" in out and "theoretical_slope=-1.62" in out


def test_identical_invocations_are_byte_identical(capsys):
    args = ("nodes", "--family", "cc", "--weight", "logjacobi:-0.3:0.2", "--n", "17")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.startswith("#")


def test_usage_error_leaves_the_parser_reusable(capsys):
    args = ("nodes", "--family", "cc", "--weight", "logjacobi:-0.3:0.2", "--n", "9")
    clean = run_fresh("-m", "chebquad.cli", *args).stdout.decode()
    assert run(capsys, "nodes", "--family", "cc", "--n", "nine")[0] == 1
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == clean


def test_import_leaves_out_scipy_signal_and_stats():
    probe = ("import sys, chebquad.cli; print(sorted(m for m in sys.modules"
             " if m.startswith(('scipy.signal', 'scipy.stats', 'scipy.linalg'))))")
    assert run_fresh("-c", probe).stdout.decode().strip() == "[]"


def test_import_loads_no_scipy():
    probe = ("import sys, chebquad, chebquad.cli; print(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')))")
    assert run_fresh("-c", probe).stdout.decode().strip() == "[]"


def test_import_loads_no_numpy_polynomial():
    probe = "import sys, chebquad.cli; print('numpy.polynomial' in sys.modules)"
    assert run_fresh("-c", probe).stdout.decode().strip() == "False"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "moments.csv"
    code, out, _ = run(capsys, "moments", "--weight", "jacobi:0.2:-0.3",
                       "--K", "6", "--out", str(target))
    assert code == 0
    assert out == ""
    _, inline, _ = run(capsys, "moments", "--weight", "jacobi:0.2:-0.3", "--K", "6")
    assert target.read_text(encoding="utf-8") == inline


def test_out_flag_unwritable_path_is_a_usage_error(tmp_path, capsys):
    # a missing directory and a directory as the target raised a traceback
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run(capsys, "nodes", "--family", "cc", "--n", "3", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("quad: error: ") and err.endswith(f"{str(target)!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_million_node_rule_streams_its_output(tmp_path):
    # the child's own VmHWM: ru_maxrss would carry this process's high-water mark
    # across exec.  Formatting the whole text before writing it peaked at 559 MB.
    target = tmp_path / "nodes.csv"
    probe = ("import sys, chebquad.cli; code = chebquad.cli.main(sys.argv[1:]);"
             " status = open('/proc/self/status').read().split('VmHWM:')[1];"
             " print(code, int(status.split()[0]) // 1024)")
    proc = run_fresh("-c", probe, "nodes", "--family", "f1", "--n", "1000000",
                     "--out", str(target), timeout=120)
    code, peak_mb = map(int, proc.stdout.split())
    assert code == 0 and peak_mb < 250, peak_mb
    with open(target, encoding="utf-8") as handle:
        first = next(handle)
        for last in handle:
            pass
    assert first == "# family=fejer1 n=1000000 weight=jacobi:0:0\n"
    assert last == "999999,-0.99999999999876632,4.3063763572881442e-12\n"


def test_table_format(capsys):
    code, out, _ = run(capsys, "weights", "--family", "f1", "--weight",
                       "jacobi:0:0", "--n", "3", "--format", "table")
    assert code == 0
    header, rows = data_rows(out)
    assert header.split() == ["j", "w"]
    assert len(rows) == 3
    assert "," not in rows[0]


def test_alias_table_rows(capsys):
    code, out, _ = run(capsys, "alias-table", "--family", "f1",
                       "--weight", "jacobi:-0.3:0.2", "--n", "4")
    assert code == 0
    header, rows = data_rows(out)
    assert header.startswith("m,form,p,j,r,sign,")
    assert len(rows) == 13  # default m-max = 3n
    residuals = [float(r.split(",")[8]) for r in rows]
    assert max(residuals) <= 1e-11


def test_weight_sums_geometric_grid(capsys):
    code, out, _ = run(capsys, "weight-sums", "--family", "gauss",
                       "--weight", "jacobi:0:0", "--n", "10:160:geom5")
    assert code == 0
    _, rows = data_rows(out)
    assert [r.split(",")[0] for r in rows] == ["10", "20", "40", "80", "160"]
    assert all(abs(float(r.split(",")[2])) <= 1e-13 for r in rows)


def test_gauss_open_problem_runs(capsys):
    code, out, _ = run(capsys, "gauss-open-problem", "--weight", "jacobi:0.2:-0.3",
                       "--f", "abspow:0.4:1.45", "--n", "100:250:geom16")
    assert code == 0
    assert "slope[gauss-jacobi]=" in out
    assert "slope[clenshaw-curtis]=" in out
    header, rows = data_rows(out)
    assert header == "n,gauss_jacobi,gauss_legendre_times_w,clenshaw_curtis"
    assert len(rows) == 16


def test_integrate_command(capsys):
    code, out, _ = run(capsys, "integrate", "--family", "f2",
                       "--weight", "jacobi:-0.5:-0.5", "--f", "abspow:0:1",
                       "--n", "200")
    assert code == 0
    _, rows = data_rows(out)
    family, n, value = rows[0].split(",")
    assert (family, n) == ("fejer2", "200")
    # integral of |x| against the Chebyshev weight is exactly 2; a kink
    # integrand converges like n^-2, so n=200 is good to ~1e-4
    assert float(value) == pytest.approx(2.0, abs=1e-3)
