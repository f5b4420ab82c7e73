"""Command line surface: formats, exit codes, batch files, the inert --workers."""

import argparse
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

import vicalc
from vicalc import cli
from vicalc.cli import _execute, build_parser, main
from vicalc.engine import InadmissibleQueryError


def run(*argv):
    return _execute(list(argv))


def test_vi_json_example():
    code, out, err = run("vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert out == '{"value":"6","integral":true}\n'


def test_vi_text_block():
    code, out, err = run("vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["value"] == "6"
    assert lines["integral"] == "true"
    assert lines["terms"] == "6"
    assert lines["monomial"] == "-"


def test_vi_csv_schema():
    code, out, err = run("vi", "--n", "4", "--k", "2", "--g", "0", "--e", "0",
                         "--monomial", "1,1,1,1", "--convention", "dual",
                         "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "n,k,g,e,d,monomial,convention,value,integral,terms"
    assert row == '4,2,0,0,0,"1,1,1,1",dual,2,true,6'


def test_count_max_example():
    code, out, err = run("count-max", "--n", "2", "--d", "1", "--k", "1",
                         "--g", "2", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"value": "4", "integral": True}


def test_count_max_csv_shares_query_schema():
    code, out, err = run("count-max", "--n", "4", "--d", "0", "--k", "2",
                         "--g", "1", "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "n,k,g,e,d,monomial,convention,value,integral,terms"
    assert row == "4,2,1,,0,,dual,6,true,6"


_QUERY_HEADER = "n,k,g,e,d,monomial,convention,value,integral,terms\n"

# Exact stdout of every record-shaped subcommand in each format: the text
# alignment and labels, the "-" placeholders, the fields count-max leaves
# out of its text, and the CSV headers.
PINNED = [
    (("vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0"), {
        "text": "n           4\nk           2\ng           1\ne           0\nd           0\n"
                "monomial    -\nconvention  paper\nvalue       6\nintegral    true\n"
                "terms       6\n",
        "csv": _QUERY_HEADER + "4,2,1,0,0,,paper,6,true,6\n",
        "json": '{"value":"6","integral":true}\n',
    }),
    (("vi", "--n", "4", "--k", "2", "--g", "0", "--e", "0", "--monomial", "1,1,1,1",
      "--convention", "dual"), {
        "text": "n           4\nk           2\ng           0\ne           0\nd           0\n"
                "monomial    1,1,1,1\nconvention  dual\nvalue       2\nintegral    true\n"
                "terms       6\n",
        "csv": _QUERY_HEADER + '4,2,0,0,0,"1,1,1,1",dual,2,true,6\n',
        "json": '{"value":"2","integral":true}\n',
    }),
    (("count-max", "--n", "4", "--d", "0", "--k", "2", "--g", "1"), {
        "text": "n           4\nk           2\ng           1\nd           0\n"
                "convention  dual\nvalue       6\nintegral    true\nterms       6\n",
        "csv": _QUERY_HEADER + "4,2,1,,0,,dual,6,true,6\n",
        "json": '{"value":"6","integral":true}\n',
    }),
    (("parabolic-degree", "--rank", "2", "--degree", "0", "--point", "1/4:1,3/4:1"), {
        "text": "rank    2\ndegree  0\npoints  1/4:1;3/4:1\nvalue   1\n",
        "csv": "rank,degree,points,value\n2,0,1/4:1;3/4:1,1\n",
        "json": '{"value":"1"}\n',
    }),
    (("parabolic-degree", "--rank", "2", "--degree", "3"), {
        "text": "rank    2\ndegree  3\npoints  -\nvalue   3\n",
        "csv": "rank,degree,points,value\n2,3,,3\n",
        "json": '{"value":"3"}\n',
    }),
    (("s-invariant", "--n", "4", "--k", "2", "--g", "1", "--eps", "2",
      "--group-order", "2", "--weights", "1/4"), {
        "text": "n            4\nk            2\ng            1\neps          2\n"
                "group order  2\nweights      1/4\nvalue        5/2\n",
        "csv": "n,k,g,eps,group_order,weights,value\n4,2,1,2,2,1/4,5/2\n",
        "json": '{"value":"5/2"}\n',
    }),
    (("s-invariant", "--n", "4", "--k", "2", "--g", "1", "--eps", "2"), {
        "text": "n            4\nk            2\ng            1\neps          2\n"
                "group order  0\nweights      -\nvalue        2\n",
        "csv": "n,k,g,eps,group_order,weights,value\n4,2,1,2,0,,2\n",
        "json": '{"value":"2"}\n',
    }),
    (("corollary-report", "--n", "3", "--g", "2"), {
        "text": "claimed  m(n,d,1,g) = n^(n*g) = 729 (published corollary)\n"
                "derived  n^(g-1) * sum_rho rho^(b-g+1) = 0 (root-of-unity sum, b = 2)\n"
                "status   values differ; recorded as a documented discrepancy, "
                "not adjudicated\n",
        "csv": "n,d,g,claimed,derived,differ\n3,1,2,729,0,true\n",
        "json": '{"n":3,"d":1,"g":2,"claimed":"729","derived":"0","differ":true}\n',
    }),
]


@pytest.mark.parametrize("argv,fmt,expected", [
    (argv, fmt, expected)
    for argv, by_format in PINNED
    for fmt, expected in by_format.items()
])
def test_rendered_bytes_are_pinned(argv, fmt, expected):
    assert run(*argv, "--format", fmt) == (0, expected, "")


def test_inadmissible_query_exits_3():
    code, out, err = run("vi", "--n", "4", "--k", "2", "--g", "0", "--e", "0",
                         "--monomial", "1")
    assert code == 3
    assert out == ""
    assert "inadmissible query" in err
    assert "degree condition violated" in err


def test_count_max_sign_settled_by_oracle():
    # the fusion oracle gives 9 and 224 on the dual (k,)*b queries
    for n, d, k, g, value in ((3, 1, 2, 2, "9"), (4, 2, 2, 3, "224")):
        code, out, err = run("count-max", "--n", str(n), "--d", str(d), "--k", str(k),
                             "--g", str(g), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"value": value, "integral": True}


def test_s_invariant_rational_round_trip():
    code, out, err = run("s-invariant", "--n", "4", "--k", "2", "--g", "1",
                         "--eps", "2", "--group-order", "2",
                         "--weights", "1/4", "--format", "json")
    assert code == 0
    assert Fraction(json.loads(out)["value"]) == Fraction(5, 2)


def test_s_invariant_exponent_form():
    code, out, err = run("s-invariant", "--n", "2", "--k", "1", "--g", "1",
                         "--eps", "1", "--group-order", "2",
                         "--exponents", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "2"
    code, _, err = run("s-invariant", "--n", "2", "--k", "1", "--g", "1",
                       "--eps", "1", "--weights", "0", "--exponents", "1",
                       "--group-order", "2")
    assert code == 2
    assert "not both" in err


def test_qh_table_single_product():
    code, out, err = run("qh-table", "--k", "2", "--n", "4",
                         "--lhs", "1", "--rhs", "1")
    assert (code, err) == (0, "")
    assert out == "s[1] * s[1] = s[1,1] + s[2]\n"


def test_qh_table_quantum_term():
    code, out, err = run("qh-table", "--k", "2", "--n", "4",
                         "--lhs", "2", "--rhs", "1,1")
    assert code == 0
    assert out == "s[2] * s[1,1] = q*s[]\n"


def test_qh_table_full_box():
    code, out, err = run("qh-table", "--k", "2", "--n", "4")
    assert code == 0
    assert len(out.splitlines()) == 6 * 7 // 2
    code, out, err = run("qh-table", "--k", "2", "--n", "4", "--format", "csv")
    assert out.splitlines()[0] == "left,right,partition,q,coeff"


def test_qh_table_needs_both_sides():
    code, _, err = run("qh-table", "--k", "2", "--n", "4", "--lhs", "1")
    assert code == 2
    assert "together" in err


def test_qh_table_refuses_shapes_outside_the_grassmannians():
    # Gr(k, n) exists only for 0 < k < n
    for k in ("0", "3", "5"):
        for fmt in ("text", "json", "csv"):
            code, out, err = run("qh-table", "--k", k, "--n", "3", "--format", fmt)
            assert (code, out) == (2, ""), (k, fmt)
            assert "need 0 < k < n" in err


def test_qh_table_malformed_partition_is_usage_error():
    code, out, err = run("qh-table", "--k", "2", "--n", "4", "--lhs", "2,3", "--rhs", "1")
    assert (code, out) == (2, "")
    assert "weakly decreasing" in err
    code, out, err = run("qh-table", "--k", "2", "--n", "4", "--lhs", "3", "--rhs", "1")
    assert (code, out) == (2, "")
    assert "outside box" in err


def test_qh_table_bytes_are_pinned():
    # every table with n <= 7 in every format, hashed in one stream
    digest = hashlib.sha256()
    for n in range(2, 8):
        for k in range(1, n):
            for fmt in ("text", "json", "csv"):
                code, out, err = run("qh-table", "--k", str(k), "--n", str(n),
                                     "--format", fmt)
                assert (code, err) == (0, ""), (k, n, fmt)
                digest.update(out.encode())
    assert digest.hexdigest() == \
        "a7278479de546523990bdbc403fa18d6c6b56fe8a21de789c5fcc3e2df7e174b"


def test_parabolic_degree_cli():
    code, out, err = run("parabolic-degree", "--rank", "2", "--degree", "0",
                         "--point", "1/4:1,3/4:1", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"value": "1"}
    code, out, err = run("parabolic-degree", "--rank", "2", "--degree", "0",
                         "--point", "1/4:1,3/4:1", "--format", "csv")
    assert out.splitlines() == [
        "rank,degree,points,value",
        "2,0,1/4:1;3/4:1,1",
    ]
    code, _, err = run("parabolic-degree", "--rank", "2", "--degree", "0",
                       "--point", "nope")
    assert code == 2
    # a point with no flag is refused input, exit 2, not an internal invariant violation
    assert run("parabolic-degree", "--rank", "2", "--degree", "0", "--point", "") == (
        2, "", "vicalc: error: marked point multiplicities sum to 0, rank is 2\n")


def test_corollary_report_differs():
    code, out, err = run("corollary-report", "--n", "2", "--g", "1",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "n": 2, "d": 1, "g": 1, "claimed": "4", "derived": "0", "differ": True,
    }


def test_corollary_report_text_states_both():
    code, out, err = run("corollary-report", "--n", "3", "--g", "2")
    assert code == 0
    assert "published corollary" in out
    assert "root-of-unity sum" in out
    assert "values differ" in out
    assert "not adjudicated" in out


def test_corollary_report_can_agree():
    code, out, err = run("corollary-report", "--n", "3", "--g", "0", "--d", "1")
    assert code == 0
    assert "values agree" in out


def test_corollary_report_refuses_what_count_maximal_refuses():
    # the report's guards are count_maximal's: its ValueError is a usage error
    code, out, err = run("corollary-report", "--n", "1", "--g", "1")
    assert (code, out) == (2, "")
    assert "need 0 < k < n with n >= 2" in err
    code, out, err = run("corollary-report", "--n", "3", "--g", "-1")
    assert (code, out, err) == (2, "", "vicalc: error: genus must be nonnegative\n")


def test_corollary_report_refuses_a_claim_over_its_digit_budget(monkeypatch):
    # the claim's digit estimate n*g*log10(n) is checked against CLAIM_DIGITS
    # before anything is computed; at the budget the report still prints
    assert cli.CLAIM_DIGITS == 100_000
    code, out, err = run("corollary-report", "--n", "10", "--g", "10000", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "10,1,10000,1%s,1%s,true" % ("0" * 100_000, "0" * 10_000)

    def fail(*args):
        raise AssertionError("count_maximal ran")

    monkeypatch.setattr(cli, "count_maximal", fail)
    assert run("corollary-report", "--n", "10", "--g", "10001") == (
        2, "", "vicalc: error: the claim n^(n*g) would have about 100010 digits,"
        " over the budget of 100000\n")
    # n = 3, g = 3,000,000 ran past 100 s before the budget
    code, out, err = run("corollary-report", "--n", "3", "--g", "3000000", "--format", "json")
    assert (code, out) == (2, "")
    assert "about 4294092 digits" in err


def test_usage_errors_exit_2():
    assert run("frobnicate")[0] == 2
    # options a subcommand does not take are unrecognized arguments
    assert run("vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0",
               "--paper-literal")[:2] == (2, "")
    assert run("qh-table", "--k", "2", "--n", "4", "--convention", "dual")[:2] == (2, "")
    assert run("s-invariant", "--n", "2", "--k", "1", "--g", "1", "--eps", "1",
               "--workers", "2")[:2] == (2, "")
    # weights without a group order would be ignored; k must lie strictly inside (0, n)
    assert run("s-invariant", "--n", "3", "--k", "1", "--g", "0", "--eps", "1",
               "--weights", "1/2")[:2] == (2, "")
    # and weights outside [0, 1) would shift the value without meaning
    assert run("s-invariant", "--n", "4", "--k", "2", "--g", "0", "--eps", "1",
               "--group-order", "2", "--weights", "3/2")[:2] == (2, "")
    assert run("s-invariant", "--n", "3", "--k", "5", "--g", "0", "--eps", "1")[:2] == (2, "")
    code, out, err = run("s-invariant", "--n", "3", "--k", "1", "--g", "-1", "--eps", "1")
    assert (code, out, err) == (2, "", "vicalc: error: genus must be nonnegative\n")
    assert run("batch", "jobs.ndjson", "--format", "json")[:2] == (2, "")
    count_max = ("count-max", "--n", "3", "--d", "1", "--k", "2", "--g", "2")
    assert run(*count_max, "--convention", "dual")[:2] == (2, "")
    assert run(*count_max, "--workers", "2")[:2] == (2, "")
    assert run("vi", "--n", "4")[0] == 2
    assert run("vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0",
               "--monomial", "spam")[0] == 2
    # count-max shapes are checked before anything divides by n
    code, out, err = run("count-max", "--n", "0", "--d", "1", "--k", "1", "--g", "0")
    assert (code, out) == (2, "")
    assert "need 0 < k < n with n >= 2" in err
    code, out, err = run("count-max", "--n", "4", "--d", "1", "--k", "2", "--g", "-1")
    assert (code, out, err) == (2, "", "vicalc: error: genus must be nonnegative\n")


def test_internal_failure_exits_4(monkeypatch):
    def boom(query):
        raise RuntimeError("lost exactness")

    monkeypatch.setattr("vicalc.cli.evaluate", boom)
    code, out, err = run("vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0")
    assert code == 4
    assert "internal invariant violation" in err
    assert "lost exactness" in err


# each runner with the library call it makes, which a test may replace
RUNNER_CALLS = [
    (("vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0"), "vicalc.cli.evaluate"),
    (("count-max", "--n", "3", "--d", "1", "--k", "2", "--g", "2"), "vicalc.cli.count_maximal"),
    (("corollary-report", "--n", "3", "--g", "2"), "vicalc.cli.count_maximal"),
    (("qh-table", "--k", "2", "--n", "4", "--lhs", "1", "--rhs", "1"),
     "vicalc.symfunc.quantum_product"),
    (("parabolic-degree", "--rank", "2", "--degree", "0"), "vicalc.parabolic.parabolic_degree"),
    (("s-invariant", "--n", "4", "--k", "2", "--g", "1", "--eps", "2"),
     "vicalc.parabolic.s_invariant"),
]

EXIT_BY_EXCEPTION = {
    ValueError: (2, "vicalc: error: "),
    InadmissibleQueryError: (3, "vicalc: inadmissible query: "),
    ArithmeticError: (4, "vicalc: internal invariant violation: "),
}


@pytest.mark.parametrize("argv,call", [pytest.param(argv, call, id=argv[0])
                                       for argv, call in RUNNER_CALLS])
@pytest.mark.parametrize("exc", list(EXIT_BY_EXCEPTION), ids=lambda exc: exc.__name__)
def test_exit_code_follows_the_exception_type(monkeypatch, argv, call, exc):
    # the same exception exits the same way from every runner
    def raiser(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(call, raiser)
    code, prefix = EXIT_BY_EXCEPTION[exc]
    assert run(*argv) == (code, "", prefix + "injected\n")


def _exact_text(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_values_print_at_any_size():
    # 3^10000 has 4,772 digits, past the interpreter's default int-to-text limit
    limit = sys.get_int_max_str_digits()
    code, out, err = run("count-max", "--n", "3", "--d", "0", "--k", "1", "--g", "10000",
                         "--format", "json")
    assert (code, out, err) == \
        (0, '{"value":"%s","integral":true}\n' % _exact_text(3 ** 10000), "")
    code, out, err = run("corollary-report", "--n", "5", "--g", "2000", "--d", "1",
                         "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "5,1,2000,%s,%s,true" % (_exact_text(5 ** 10000),
                                                         _exact_text(5 ** 2000))
    # off the degree condition the count is 0 over C(20000, 10000) terms, 6,018 digits
    code, out, err = run("count-max", "--n", "20000", "--d", "1", "--k", "10000", "--g", "0",
                         "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "20000,10000,0,,1,,dual,0,true,%s" % _exact_text(
        comb(20000, 10000))
    # the limit is lifted only around the conversion: input keeps it
    assert sys.get_int_max_str_digits() == limit
    code, out, err = run("vi", "--n", "7" * 5000, "--k", "2", "--g", "1", "--e", "0")
    assert (code, out) == (2, "")
    assert "--n: invalid int value" in err


def test_batch_refuses_unreadable_files(tmp_path):
    path = tmp_path / "latin1.ndjson"
    path.write_bytes(b'{"subcommand": "vi", "parameters": {"n": "\xe9"}}\n')
    code, out, err = run("batch", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("vicalc: error: 'utf-8' codec can't decode byte 0xe9")
    code, out, err = run("batch", "jobs\0.ndjson")
    assert (code, out, err) == (2, "", "vicalc: error: embedded null byte\n")


def test_batch_lines_json_cannot_read_are_usage_errors(tmp_path):
    good = json.dumps({"subcommand": "vi", "output_format": "json",
                       "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}})
    huge = '{"subcommand": "vi", "parameters": {"n": %s}}' % ("9" * 4400)
    path = tmp_path / "jobs.ndjson"
    path.write_text("\n".join([good, huge, "[" * 200000, good]) + "\n")
    code, out, err = run("batch", str(path))
    assert code == 2
    assert out == '{"value":"6","integral":true}\n' * 2
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("vicalc: batch line 2: Exceeds the limit (4300 digits)")
    assert lines[1].startswith("vicalc: batch line 3: maximum recursion depth exceeded")


def test_workers_do_not_change_bytes():
    argv = ["vi", "--n", "8", "--k", "2", "--g", "1", "--e", "0",
            "--format", "json"]
    serial = run(*argv, "--workers", "1")
    quad = run(*argv, "--workers", "4")
    assert serial == quad
    assert serial[0] == 0


def test_bad_worker_counts_exit_2():
    argv = ["vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0"]
    code, out, err = run(*argv, "--workers", "-3")
    assert (code, out) == (2, "")
    assert "--workers" in err


def test_no_query_starts_a_process(monkeypatch, tmp_path):
    def no_process(*args, **kwargs):
        raise AssertionError("a query asked for a process pool")

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(multiprocessing, "get_context", no_process)
    monkeypatch.setattr(multiprocessing, "Pool", no_process)
    code, out, err = run("vi", "--n", "10", "--k", "3", "--g", "2", "--e=-3",
                         "--monomial", "3,3,3", "--convention", "dual",
                         "--format", "json", "--workers", "4")
    assert (code, err) == (0, "")
    code, out, err = run("count-max", "--n", "4", "--d", "2", "--k", "2", "--g", "3",
                         "--format", "json")
    assert (code, out, err) == (0, '{"value":"224","integral":true}\n', "")
    path = tmp_path / "jobs.ndjson"
    path.write_text(json.dumps({"subcommand": "vi", "output_format": "json",
                                "parameters": {"n": 8, "k": 2, "g": 1, "e": 0}}) + "\n")
    code, out, err = run("batch", str(path))
    assert (code, out, err) == (0, '{"value":"28","integral":true}\n', "")


def fresh_python(*args):
    """Run python with args in a fresh interpreter that imports this vicalc."""
    src = os.path.dirname(os.path.dirname(vicalc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_runs():
    proc = fresh_python("-m", "vicalc.cli", "vi", "--n", "4", "--k", "2", "--g", "0",
                        "--e", "0", "--monomial", "1,1,1,1", "--convention", "dual",
                        "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["value"] == "2"


def test_vi_and_count_max_import_only_the_engine():
    # vi and count-max need cli, engine and backend; the oracle and parabolic
    # modules, and dataclasses (with inspect), are left for the runs that use them
    script = (
        "import json, sys\n"
        "from vicalc.cli import main\n"
        "codes = [main(['vi', '--n', '4', '--k', '2', '--g', '1', '--e', '0',"
        " '--format', 'json']),\n"
        "         main(['count-max', '--n', '3', '--d', '1', '--k', '2', '--g', '2',"
        " '--format', 'json'])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    proc = fresh_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    vi_out, count_out, last = proc.stdout.splitlines()
    assert (vi_out, count_out) == ('{"value":"6","integral":true}',
                                   '{"value":"9","integral":true}')
    codes, modules = json.loads(last)
    assert codes == [0, 0]
    unwanted = {"dataclasses", "vicalc.cyclotomic", "vicalc.symfunc", "vicalc.parabolic",
                "vicalc.fusion"}
    assert unwanted.isdisjoint(modules), sorted(unwanted & set(modules))


def test_parabolic_runs_load_no_dataclasses():
    # MarkedPoint and ParabolicData are frozen records, not dataclasses:
    # dataclasses would load inspect, ast, dis and tokenize on every such line
    script = (
        "import json, sys\n"
        "from vicalc.cli import main\n"
        "codes = [main(['parabolic-degree', '--rank', '2', '--degree', '0',"
        " '--point', '1/4:1,3/4:1', '--format', 'json']),\n"
        "         main(['s-invariant', '--n', '4', '--k', '2', '--g', '1', '--eps', '2',"
        " '--group-order', '2', '--weights', '1/4', '--format', 'json'])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    proc = fresh_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    degree_out, invariant_out, last = proc.stdout.splitlines()
    assert (degree_out, invariant_out) == ('{"value":"1"}', '{"value":"5/2"}')
    codes, modules = json.loads(last)
    assert codes == [0, 0]
    assert "vicalc.parabolic" in modules
    unwanted = {"dataclasses", "inspect", "vicalc.cyclotomic", "vicalc.symfunc", "vicalc.fusion"}
    assert unwanted.isdisjoint(modules), sorted(unwanted & set(modules))


def test_qh_table_imports_symfunc_but_not_the_field():
    # qh-table is partition combinatorics: symfunc starts its sums from plain
    # 0 and 1, so it needs nothing from the cyclotomic field
    script = (
        "import json, sys\n"
        "from vicalc.cli import main\n"
        "code = main(['qh-table', '--k', '2', '--n', '4', '--lhs', '2', '--rhs', '1,1',"
        " '--format', 'json'])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = fresh_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    out, last = proc.stdout.splitlines()
    assert json.loads(out)["products"][0]["terms"] == [{"partition": [], "q": 1, "coeff": 1}]
    code, modules = json.loads(last)
    assert code == 0
    assert "vicalc.symfunc" in modules
    assert "vicalc.cyclotomic" not in modules


def test_only_the_spectral_route_loads_the_field():
    # the fusion oracle's LR route runs on ints and Fractions; the spectral
    # route evaluates at roots of unity, so it alone loads vicalc.cyclotomic
    script = (
        "import json, sys\n"
        "from vicalc.engine import InvariantQuery\n"
        "from vicalc.fusion import classes_for_query, correlator_via_spectrum, oracle_value\n"
        "q = InvariantQuery(n=4, k=2, g=0, e=0, monomial=(1, 1, 1, 1), convention='dual')\n"
        "lr = oracle_value(q)\n"
        "loaded = ['vicalc.cyclotomic' in sys.modules]\n"
        "spectral = correlator_via_spectrum(classes_for_query(q), q.g, q.k, q.n)\n"
        "loaded.append('vicalc.cyclotomic' in sys.modules)\n"
        "print(json.dumps([str(lr), str(spectral), loaded]))\n"
    )
    proc = fresh_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == ["2", "2", [False, True]]


def test_batch_runs_in_input_order(tmp_path):
    jobs = [
        {"subcommand": "vi", "output_format": "json",
         "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}},
        {"subcommand": "vi", "output_format": "json",
         "parameters": {"n": 4, "k": 2, "g": 0, "e": 0, "monomial": [1]},
         "convention": "dual"},
        {"subcommand": "count-max", "output_format": "json",
         "parameters": {"n": 2, "d": 1, "k": 1, "g": 2}},
    ]
    path = tmp_path / "jobs.ndjson"
    path.write_text("\n".join(json.dumps(j) for j in jobs) + "\n")
    code, out, err = run("batch", str(path))
    assert code == 3
    assert out.splitlines() == [
        '{"value":"6","integral":true}',
        '{"value":"4","integral":true}',
    ]
    assert "batch line 2:" in err
    assert "degree condition violated" in err


def test_batch_builds_one_parser(monkeypatch, tmp_path):
    calls = []

    def counted():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr("vicalc.cli.build_parser", counted)
    job = json.dumps({"subcommand": "vi", "output_format": "json",
                      "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}})
    path = tmp_path / "jobs.ndjson"
    path.write_text((job + "\n") * 3)
    assert run("batch", str(path)) == (0, '{"value":"6","integral":true}\n' * 3, "")
    assert len(calls) == 1


def test_batch_lines_are_not_parsed_by_argparse(monkeypatch, tmp_path):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(1)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    assert run("batch", str(empty)) == (0, "", "")
    per_file = len(calls)
    job = json.dumps({"subcommand": "vi", "output_format": "json",
                      "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}})
    path = tmp_path / "jobs.ndjson"
    path.write_text((job + "\n") * 3)
    assert run("batch", str(path)) == (0, '{"value":"6","integral":true}\n' * 3, "")
    assert len(calls) == 2 * per_file


def test_batch_rejects_bad_lines(tmp_path):
    path = tmp_path / "jobs.ndjson"
    path.write_text('{"subcommand": "nope"}\nnot json\n')
    code, out, err = run("batch", str(path))
    assert code == 2
    assert out == ""
    assert "vicalc: batch line 1:" in err
    assert "vicalc: batch line 2:" in err
    assert run("batch", str(tmp_path / "missing.ndjson"))[0] == 2


def test_batch_survives_malformed_fields(tmp_path):
    good = json.dumps({"subcommand": "vi", "output_format": "json",
                       "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}})
    bad = [
        {"subcommand": "vi", "parameters": [1, 2]},
        {"subcommand": "vi", "output_format": 5, "parameters": {"n": 4}},
        {"subcommand": "vi", "convention": 5, "parameters": {"n": 4}},
        {"subcommand": [1]},
        # a falsy convention is refused, not dropped
        {"subcommand": "count-max", "convention": "",
         "parameters": {"n": 3, "d": 1, "k": 2, "g": 2}},
        {"subcommand": "vi", "convention": None, "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}},
        {"subcommand": "vi", "convention": 0, "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}},
        {"subcommand": "vi", "convention": False, "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}},
        {"subcommand": "vi", "convention": "", "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}},
    ]
    path = tmp_path / "jobs.ndjson"
    path.write_text("\n".join([good] + [json.dumps(b) for b in bad] + [good]) + "\n")
    code, out, err = run("batch", str(path))
    assert code == 2
    assert out == '{"value":"6","integral":true}\n' * 2
    assert "Traceback" not in err
    for needle in ("vicalc: batch line 2: parameters must be a JSON object",
                   "vicalc: batch line 3: output_format must be a JSON string",
                   "vicalc: batch line 4: convention must be a JSON string",
                   "vicalc: batch line 5: unknown subcommand",
                   "vicalc: batch line 6: count-max takes no --convention\n",
                   "vicalc: batch line 7: convention must be a JSON string, got null",
                   "vicalc: batch line 8: convention must be a JSON string, got 0",
                   "vicalc: batch line 9: convention must be a JSON string, got false",
                   "vicalc: batch line 10: argument --convention: invalid choice: '' "
                   "(choose from 'paper', 'dual')\n"):
        assert needle in err
    assert len(err.splitlines()) == len(bad)


def test_batch_rejects_unknown_job_keys(tmp_path):
    params = {"n": 4, "k": 2, "g": 1, "e": 0}
    jobs = [
        {"subcommand": "vi", "output_format": "json", "parameters": params},
        {"subcommand": "vi", "output_fromat": "json", "convnetion": "dual",
         "parameters": params},
        {"subcommand": "vi", "output_format": "json", "parameters": params, "parallelism": 2},
    ]
    path = tmp_path / "jobs.ndjson"
    path.write_text("\n".join(json.dumps(j) for j in jobs) + "\n")
    code, out, err = run("batch", str(path))
    assert code == 2
    # "parallelism" was accepted and ignored; it is now an unknown key too
    assert out == '{"value":"6","integral":true}\n'
    assert err == ("vicalc: batch line 2: unknown job key 'convnetion', 'output_fromat'\n"
                   "vicalc: batch line 3: unknown job key 'parallelism'\n")


def test_batch_parameters_reach_only_query_options(tmp_path):
    params = {"n": 4, "k": 2, "g": 0, "e": 0, "monomial": [1, 1, 1, 1]}
    jobs = [
        {"subcommand": "vi", "output_format": "json",
         "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}},
        # --help would print vi's help into stdout and exit 0
        {"subcommand": "vi", "parameters": {"help": 1}},
        {"subcommand": "vi", "parameters": {"he": 1}},
        {"subcommand": "vi", "parameters": {"h": 1}},
        # and --convention or --format would override the job's own keys
        {"subcommand": "vi", "output_format": "json", "convention": "dual",
         "parameters": dict(params, convention="paper")},
        {"subcommand": "vi", "output_format": "json", "convention": "dual",
         "parameters": dict(params, format="text")},
        # abbreviations are not options
        {"subcommand": "vi", "output_format": "json", "convention": "dual",
         "parameters": {"n": 4, "k": 2, "g": 0, "e": 0, "mono": [1, 1, 1, 1]}},
        {"subcommand": "vi", "output_format": "json",
         "parameters": dict(params, conv="dual")},
        {"subcommand": "vi", "output_format": "json", "convention": "dual", "parameters": params},
        # nor can a value or a key with "=" stand for another option: the command line
        # these lines once became printed vi's help, and ran the query with n = 4, k = 2
        {"subcommand": "vi", "parameters": {"x": "-h"}},
        {"subcommand": "vi", "output_format": "json",
         "parameters": {"e": 0, "g": 1, "n=4": "--k=2"}},
    ]
    path = tmp_path / "jobs.ndjson"
    path.write_text("\n".join(json.dumps(j) for j in jobs) + "\n")
    code, out, err = run("batch", str(path))
    assert code == 2
    assert out == '{"value":"6","integral":true}\n{"value":"2","integral":true}\n'
    assert "vicalc: batch line 2: parameter 'help' refused: a job prints no help\n" in err
    assert "vicalc: batch line 5: parameter 'convention' refused" in err
    assert "vicalc: batch line 6: parameter 'format' refused" in err
    for lineno, option in ((3, "he"), (4, "h"), (7, "mono"), (8, "conv"), (10, "x"),
                           (11, "n=4")):
        assert "vicalc: batch line %d: vi takes no --%s\n" % (lineno, option) in err
    assert len(err.splitlines()) == 9


def test_the_option_table_decides_which_options_repeat(monkeypatch):
    params = {"n": 4, "k": 2, "g": 1, "e": 0}
    # a list given to an option that does not repeat is one option, its items joined
    assert cli._job_namespace({"subcommand": "vi",
                               "parameters": dict(params, monomial=[1, 1])}).monomial == "1,1"
    # no name repeats by itself: vi has no "point" row, so even an empty list is refused
    with pytest.raises(ValueError, match="^vi takes no --point$"):
        cli._job_namespace({"subcommand": "vi", "parameters": dict(params, point=[])})
    # a row with a list default repeats, whatever its name: one option per item
    runner, command_help, options = cli._OPTIONS["vi"]
    monkeypatch.setitem(cli._OPTIONS, "vi",
                        (runner, command_help, options + (("tag", str, [], None, None),)))
    ns = cli._job_namespace({"subcommand": "vi", "parameters": dict(params, tag=["a", "b"])})
    assert ns.tag == ["a", "b"]
    assert cli._job_namespace({"subcommand": "vi", "parameters": params}).tag == []


def test_rationals_in_exponent_notation_are_refused(tmp_path):
    # Fraction("1e-100000000") builds 10^100000000 before anything can refuse
    # it, and 1e-5000 failed late, when the record printed the weight
    s_inv = ("s-invariant", "--n", "4", "--k", "2", "--g", "1", "--eps", "2",
             "--group-order", "2", "--format", "json")
    point = ("parabolic-degree", "--rank", "1", "--degree", "0", "--point")
    for text in ("1e-100000000", "1e-5000", "1E-1", "2.5e-1", "0e0"):
        refusal = "vicalc: error: expected a rational like 1/2, got %r\n" % text
        assert run(*s_inv, "--weights", text) == (2, "", refusal)
        assert run(*point, text + ":1") == (2, "", refusal)
    # integers, p/q and decimals are read as before
    for text in ("1/4", "0.25", "00.250"):
        assert run(*s_inv, "--weights", text) == (0, '{"value":"5/2"}\n', "")
    assert run(*point, "0:1", "--format", "json") == (0, '{"value":"0"}\n', "")
    # as batch lines: each refused, the good lines around them still run
    good = json.dumps({"subcommand": "vi", "output_format": "json",
                       "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}})
    bad = [{"subcommand": "s-invariant", "parameters": {"n": 4, "k": 2, "g": 1, "eps": 2,
                                                         "group_order": 2,
                                                         "weights": ["1e-100000000"]}},
           {"subcommand": "parabolic-degree", "parameters": {"rank": 1, "degree": 0,
                                                              "point": ["1e-5000:1"]}}]
    path = tmp_path / "jobs.ndjson"
    path.write_text("\n".join([good] + [json.dumps(job) for job in bad] + [good]) + "\n")
    assert run("batch", str(path)) == (
        2, '{"value":"6","integral":true}\n' * 2,
        "batch line 2: vicalc: error: expected a rational like 1/2, got '1e-100000000'\n"
        "batch line 3: vicalc: error: expected a rational like 1/2, got '1e-5000'\n")


def test_a_multiplicity_that_is_not_an_integer_names_the_entry(tmp_path):
    # int() alone printed "invalid literal for int() with base 10: 'x'"
    point = ("parabolic-degree", "--rank", "1", "--degree", "0", "--point")
    for text in ("0:x", "0:1:2", "1/2:"):
        refusal = "vicalc: error: marked point entry %r has no integer multiplicity\n" % text
        assert run(*point, text) == (2, "", refusal)
    # as a batch line: refused, the good lines around it still run
    good = json.dumps({"subcommand": "vi", "output_format": "json",
                       "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}})
    bad = json.dumps({"subcommand": "parabolic-degree",
                      "parameters": {"rank": 1, "degree": 0, "point": ["0:x"]}})
    path = tmp_path / "jobs.ndjson"
    path.write_text("\n".join([good, bad, good]) + "\n")
    assert run("batch", str(path)) == (
        2, '{"value":"6","integral":true}\n' * 2,
        "batch line 2: vicalc: error: marked point entry '0:x' has no integer multiplicity\n")


def test_options_are_not_abbreviated():
    query = ("vi", "--n", "4", "--k", "2", "--g", "0", "--e", "0")
    assert run(*query, "--monomial", "1,1,1,1", "--convention", "dual", "--format", "json") == \
        (0, '{"value":"2","integral":true}\n', "")
    code, out, err = run(*query, "--mono", "1,1,1,1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --mono 1,1,1,1" in err
    assert run(*query, "--monomial", "1,1,1,1", "--conv", "dual")[:2] == (2, "")
    assert run(*query, "--form", "json")[:2] == (2, "")
    assert run("count-max", "--n", "3", "--d", "1", "--k", "2", "--g", "2", "--he")[:2] == (2, "")


def test_list_grammar_fixed_cases(tmp_path):
    vi = ("vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0")
    s_inv = ("s-invariant", "--n", "4", "--k", "2", "--g", "1", "--eps", "2", "--group-order", "2")
    point = ("parabolic-degree", "--rank", "2", "--degree", "0", "--point")
    # "" is the empty list, and whitespace around an entry is ignored
    assert run(*vi, "--monomial", "") == run(*vi)
    assert run(*s_inv, "--weights", "") == run(*s_inv)
    assert run("qh-table", "--k", "2", "--n", "4", "--lhs", "", "--rhs", " 1 ") == \
        (0, "s[] * s[1] = s[1]\n", "")
    assert run(*point, " 1/4:1 , 3/4 : 1") == run(*point, "1/4:1,3/4:1")
    # an empty entry, or entries split by whitespace alone, exit 2 with nothing on stdout;
    # a marked point given as "" has no flag, so its multiplicities miss the rank
    refused = [
        vi + ("--monomial", ","), vi + ("--monomial", "1,,1"), vi + ("--monomial", "1 1"),
        vi + ("--monomial", " "), ("qh-table", "--k", "2", "--n", "4", "--lhs", ",", "--rhs", "1"),
        s_inv + ("--weights", ",1/2,"), s_inv + ("--exponents", "1,"),
        point + ("1/4:1,,3/4:1",), point + ("",),
    ]
    for argv in refused:
        assert run(*argv)[:2] == (2, ""), argv
    assert "empty entry" in run(*vi, "--monomial", ",")[2]
    # --exponents without a group order: the refusal is weights_from_equivariant's
    code, out, err = run(*s_inv[:-2], "--exponents", "1")
    assert (code, out, err) == \
        (2, "", "vicalc: error: exponents require a positive group order, got 0\n")
    # as batch lines: each refused, the good lines around them still run
    good = json.dumps({"subcommand": "vi", "output_format": "json",
                       "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}})
    bad = [{"subcommand": "vi", "parameters": {"n": 4, "k": 2, "g": 1, "e": 0, "monomial": m}}
           for m in (",", "1,,1")]
    bad += [{"subcommand": "qh-table", "parameters": {"k": 2, "n": 4, "lhs": ",", "rhs": "1"}},
            {"subcommand": "s-invariant", "parameters": {"n": 4, "k": 2, "g": 1, "eps": 2,
                                                         "group_order": 2, "weights": ",1/2,"}},
            {"subcommand": "s-invariant", "parameters": {"n": 4, "k": 2, "g": 1, "eps": 2,
                                                         "group_order": 2, "exponents": "1,"}},
            {"subcommand": "parabolic-degree", "parameters": {"rank": 2, "degree": 0,
                                                              "point": [""]}}]
    path = tmp_path / "jobs.ndjson"
    path.write_text("\n".join([good] + [json.dumps(job) for job in bad] + [good]) + "\n")
    code, out, err = run("batch", str(path))
    assert (code, out) == (2, '{"value":"6","integral":true}\n' * 2)
    assert [line.split(":")[0] for line in err.splitlines()] == \
        ["batch line %d" % i for i in range(2, 2 + len(bad))]


def test_main_streams_and_code(capsys):
    code = main(["vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == '{"value":"6","integral":true}\n'
    assert captured.err == ""
