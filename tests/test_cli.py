"""Command line surface: formats, exit codes, batch files, the inert --workers."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import vicalc
from vicalc.cli import _execute, build_parser, main


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
    def boom(query, workers=0):
        raise RuntimeError("lost exactness")

    monkeypatch.setattr("vicalc.cli.evaluate", boom)
    code, out, err = run("vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0")
    assert code == 4
    assert "internal invariant violation" in err
    assert "lost exactness" in err


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


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(vicalc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "vicalc.cli", "vi", "--n", "4", "--k", "2", "--g", "0",
         "--e", "0", "--monomial", "1,1,1,1", "--convention", "dual", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["value"] == "2"


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
                   "unrecognized arguments: --convention",
                   "vicalc: batch line 7: convention must be a JSON string, got null",
                   "vicalc: batch line 8: convention must be a JSON string, got 0",
                   "vicalc: batch line 9: convention must be a JSON string, got false",
                   "argument --convention: invalid choice: ''"):
        assert needle in err
    assert err.count("batch line 6: usage:") == err.count("batch line 10: usage:") == 1


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


def test_main_streams_and_code(capsys):
    code = main(["vi", "--n", "4", "--k", "2", "--g", "1", "--e", "0",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == '{"value":"6","integral":true}\n'
    assert captured.err == ""
