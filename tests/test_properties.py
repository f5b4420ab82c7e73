"""Property tests: random admissible queries held against the fusion oracle,
random batch files held against the same jobs run one by one, random
comma lists held to the command line's list grammar, and any job, well
formed or not, held to the command line it stands for.

The exhaustive sweeps in test_acceptance.py stop at n = 6; the oracle
test draws from 7 <= n <= 9, where the kernel visits only the subsets
containing 0.
"""

import csv
import json
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vicalc.cli import _OPTIONS, _execute, _list  # noqa: E402
from vicalc.engine import (  # noqa: E402
    CONVENTIONS,
    required_weight,
    vi_invariant,
)
from vicalc.fusion import oracle_value  # noqa: E402
from vicalc.parabolic import read_rational  # noqa: E402

from test_vi_engine import admissible_queries  # noqa: E402


queries = st.tuples(
    st.integers(7, 9), st.sampled_from((2, 3)), st.integers(0, 3), st.sampled_from(CONVENTIONS),
).flatmap(lambda shape: st.sampled_from(admissible_queries(*shape[:3], 5, shape[3])))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(queries)
def test_kernel_matches_the_oracle_beyond_the_sweeps(query):
    assert sum(query.columns) == required_weight(query)
    result = vi_invariant(query)
    assert result.value == oracle_value(query), query
    assert result.integral


formats = st.sampled_from(("json", "csv", "text"))


@st.composite
def vi_jobs(draw):
    """A vi job and its command line; some with d != 0, some inadmissible.

    max_len = n - 1 leaves every shape an admissible monomial.  d = a*n - b
    stands for b extra insertions of label k, so the d != 0 job reduces to
    the drawn query; raising e by one breaks the degree condition.
    """
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    g = draw(st.integers(0, 3))
    convention = draw(st.sampled_from(CONVENTIONS))
    query = draw(st.sampled_from(admissible_queries(n, k, g, n - 1, convention)))
    monomial = list(query.monomial)
    a = draw(st.sampled_from((0, 0, 1, 2)))
    b = draw(st.integers(0, min(monomial.count(k), n - 1))) if a else 0
    for _ in range(b):
        monomial.remove(k)
    e = query.e + a * k + draw(st.sampled_from((0, 0, 1)))
    d = a * n - b
    fmt = draw(formats)
    job = {"subcommand": "vi", "output_format": fmt, "convention": convention,
           "parameters": {"n": n, "k": k, "g": g, "e": e, "d": d, "monomial": monomial}}
    argv = ["vi", "--n", str(n), "--k", str(k), "--g", str(g), "--e=%d" % e,
            "--d", str(d), "--monomial", ",".join(map(str, monomial)),
            "--convention", convention, "--format", fmt]
    return job, argv


@st.composite
def count_max_jobs(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    g = draw(st.integers(0, 3))
    d = draw(st.integers(0, 2 * n - 1))
    fmt = draw(formats)
    job = {"subcommand": "count-max", "output_format": fmt,
           "parameters": {"n": n, "d": d, "k": k, "g": g}}
    argv = ["count-max", "--n", str(n), "--d", str(d), "--k", str(k), "--g", str(g),
            "--format", fmt]
    return job, argv


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.one_of(vi_jobs(), count_max_jobs()), min_size=1, max_size=6))
def test_a_batch_line_behaves_like_its_command_line(tmp_path_factory, jobs):
    path = tmp_path_factory.mktemp("batch") / "jobs.ndjson"
    path.write_text("".join(json.dumps(job) + "\n" for job, _ in jobs))
    alone = [_execute(argv) for _, argv in jobs]
    code, out, err = _execute(["batch", str(path)])
    assert out == "".join(line_out for _, line_out, _ in alone)
    assert code == next((line_code for line_code, _, _ in alone if line_code), 0)
    assert err == "".join("batch line %d: %s" % (i, line_err)
                          for i, (_, _, line_err) in enumerate(alone, start=1) if line_err)


# ---------------------------------------------------------------------------
# the list grammar of --monomial, --lhs, --rhs, --exponents, --weights and --point

blank = st.sampled_from(("", " ", "\t "))
weights = st.fractions(0, 1, max_denominator=60).filter(lambda w: w < 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(st.lists(st.integers(-10 ** 30, 10 ** 30)), st.just(int)),
                 st.tuples(st.lists(st.fractions()), st.just(read_rational))),
       blank, blank)
def test_a_joined_list_parses_back_to_itself(case, before, after):
    values, read = case
    text = ",".join(before + str(v) + after for v in values)
    assert _list(text, read) == values


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(weights, max_size=5))
def test_weights_round_trip_through_the_command_line(ws):
    code, out, err = _execute(["s-invariant", "--n", "4", "--k", "2", "--g", "1", "--eps", "2",
                               "--group-order", "3", "--weights", ",".join(map(str, ws)),
                               "--format", "csv"])
    assert (code, err) == (0, "")
    row = dict(zip(*csv.reader(out.splitlines())))
    assert row["weights"] == ";".join(map(str, ws))
    assert Fraction(row["value"]) == 2 + 3 * sum(ws)


def repeats(sub, key):
    """Whether key names an option that sub's option table row lets repeat:
    the row has a list default."""
    name = key.replace("_", "-")
    return any(row[0] == name and isinstance(row[2], list) for row in _OPTIONS[sub][2])


# (subcommand, its other parameters, the list option, one valid-looking entry)
LIST_OPTIONS = [
    ("vi", {"n": 4, "k": 2, "g": 1, "e": 0}, "monomial", st.integers(1, 2).map(str)),
    ("qh-table", {"k": 2, "n": 4, "rhs": "1"}, "lhs", st.integers(0, 2).map(str)),
    ("qh-table", {"k": 2, "n": 4, "lhs": "1"}, "rhs", st.integers(0, 2).map(str)),
    ("s-invariant", {"n": 4, "k": 2, "g": 1, "eps": 2, "group_order": 3}, "exponents",
     st.integers(0, 2).map(str)),
    ("s-invariant", {"n": 4, "k": 2, "g": 1, "eps": 2, "group_order": 3}, "weights",
     weights.map(str)),
    ("parabolic-degree", {"rank": 2, "degree": 0}, "point",
     st.builds("{}:{}".format, weights, st.integers(1, 2))),
]
GOOD_JOB = {"subcommand": "vi", "output_format": "json",
            "parameters": {"n": 4, "k": 2, "g": 1, "e": 0}}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(LIST_OPTIONS).flatmap(lambda case: st.tuples(
    st.just(case), st.lists(case[3], min_size=1, max_size=4), st.integers(0, 4), blank)))
def test_an_empty_entry_is_refused_on_the_line_and_in_a_batch(tmp_path_factory, drawn):
    (sub, params, option, _), entries, at, empty = drawn
    entries.insert(at, empty)
    text = ",".join(entries)
    argv = [sub]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    code, out, err = _execute(argv + ["--" + option, text])
    assert (code, out) == (2, "") and "empty entry" in err, text
    # a repeated option's text is one item of a list; the other lists are strings
    job = {"subcommand": sub,
           "parameters": dict(params, **{option: [text] if repeats(sub, option) else text})}
    path = tmp_path_factory.mktemp("batch") / "jobs.ndjson"
    path.write_text("".join(json.dumps(j) + "\n" for j in (GOOD_JOB, job, GOOD_JOB)))
    code, out, err = _execute(["batch", str(path)])
    assert (code, out) == (2, '{"value":"6","integral":true}\n' * 2)
    assert err.startswith("batch line 2: vicalc: error: empty entry") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# any job, well formed or not, against the command line it stands for

def job_argv(job):
    """The command line a batch job stands for: the format, the convention if
    given, then one option per parameter by key; a list is joined with "," but
    gives one option per item where the option repeats, and anything else is
    str()."""
    argv = [job["subcommand"], "--format", job.get("output_format", "text")]
    if "convention" in job:
        argv += ["--convention", job["convention"]]
    for key, value in sorted(job["parameters"].items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            if repeats(job["subcommand"], key):
                for item in value:
                    argv += [flag, str(item)]
            else:
                argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, str(value)]
    return argv


small = st.integers(-2, 6)
# each subcommand's well formed parameters; the values are small so every query is
# quick, and some queries are inadmissible (exit 3) or refused by their runner (exit 2)
VALID_PARAMETERS = {
    "vi": st.fixed_dictionaries(
        {"n": st.integers(2, 6), "k": st.integers(1, 3), "g": st.integers(0, 2), "e": small},
        optional={"d": small, "monomial": st.lists(st.integers(0, 3), max_size=4),
                  "workers": st.integers(0, 2)}),
    "count-max": st.fixed_dictionaries(
        {"n": st.integers(1, 6), "d": small, "k": st.integers(0, 3), "g": st.integers(0, 3)}),
    "qh-table": st.fixed_dictionaries(
        {"k": st.integers(1, 3), "n": st.integers(2, 5)},
        optional={"lhs": st.lists(st.integers(0, 2), max_size=2).map(lambda p: sorted(p)[::-1]),
                  "rhs": st.just("1")}),
    "parabolic-degree": st.fixed_dictionaries(
        {"rank": st.integers(1, 3), "degree": small},
        optional={"point": st.lists(st.sampled_from(("1/4:1,3/4:1", "1/2:2", "0:1", "1/3:3")),
                                    max_size=2)}),
    "s-invariant": st.fixed_dictionaries(
        {"n": st.integers(2, 5), "k": st.integers(1, 3), "g": st.integers(0, 2),
         "eps": st.integers(0, 4)},
        optional={"group_order": st.integers(0, 3),
                  "weights": st.lists(weights, max_size=3).map(lambda ws: [str(w) for w in ws]),
                  "exponents": st.lists(st.integers(0, 3), max_size=3).map(
                      lambda es: ",".join(map(str, es)))}),
    "corollary-report": st.fixed_dictionaries(
        {"n": st.integers(1, 5), "g": st.integers(-1, 3)}, optional={"d": small}),
}
# texts argparse takes for options, negative numbers, numeric strings, floats, bools,
# null and nested lists
ODD_VALUES = st.sampled_from((
    "-0,1", "-0/1", "--n", "-1 ", "-1_0", "-1", "-0.5", "-", "--", "-1/2", "-1:1",
    "4", " 4", "1_0", "+3", "", "0,1", "1/4:1", 1.0, -0.5, 2.5, True, False, None,
    [[1, 2]], [1, [2]], ["-0/1"], ["-0/1:1"], [], [-1, 2],
))

# texts argparse takes for options, each of which its option's reader would read as a
# valid value: the argv route refused them, so the batch must too
OPTION_LIKE = {"g": "-0_0", "e": "-0_0", "d": "-0_0", "degree": "-0_0", "workers": "-0_0",
               "group_order": "-0_0", "lhs": "-0", "rhs": "-0", "exponents": "-0,1",
               "weights": ["-0/1"]}


@st.composite
def any_jobs(draw):
    """A job of any query subcommand: valid, or with an unknown or abbreviated
    key, a missing key, an odd or option-like value, or a bad output_format or
    convention."""
    sub = draw(st.sampled_from(sorted(VALID_PARAMETERS)))
    params = draw(VALID_PARAMETERS[sub])
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2)))):
        mutation = draw(st.sampled_from(("unknown", "missing", "odd", "option")))
        if mutation == "option" and set(params) & set(OPTION_LIKE):
            key = draw(st.sampled_from(sorted(set(params) & set(OPTION_LIKE))))
            params[key] = OPTION_LIKE[key]
        elif mutation == "unknown":
            params[draw(st.sampled_from(("mono", "he", "conv", "group", "points", "x")))] = \
                draw(st.one_of(small, ODD_VALUES))
        elif mutation == "missing" and params:
            del params[draw(st.sampled_from(sorted(params)))]
        elif params:
            params[draw(st.sampled_from(sorted(params)))] = draw(ODD_VALUES)
    job = {"subcommand": sub, "parameters": params}
    fmt = draw(st.sampled_from((None, "json", "csv", "text") * 3 + ("xml", "", "-1", "JSON")))
    if fmt is not None:
        job["output_format"] = fmt
    convention = draw(st.sampled_from((None,) * 6 + ("paper", "dual", "", "Dual", "--n")))
    if convention is not None:
        job["convention"] = convention
    return job


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(any_jobs(), min_size=1, max_size=4))
def test_any_batch_line_exits_and_prints_like_its_command_line(tmp_path_factory, jobs):
    alone = [_execute(job_argv(job)) for job in jobs]
    folder = tmp_path_factory.mktemp("batch")
    for i, (job, (line_code, line_out, _)) in enumerate(zip(jobs, alone)):
        path = folder / ("line%d.ndjson" % i)
        path.write_text(json.dumps(job) + "\n")
        assert _execute(["batch", str(path)])[:2] == (line_code, line_out), job
    path = folder / "jobs.ndjson"
    path.write_text("".join(json.dumps(job) + "\n" for job in jobs))
    code, out, err = _execute(["batch", str(path)])
    assert out == "".join(line_out for _, line_out, _ in alone)
    assert code == next((line_code for line_code, _, _ in alone if line_code), 0)
    named = [int(match.group(1)) for match in re.finditer(r"^(?:vicalc: )?batch line (\d+): ",
                                                          err, re.M)]
    assert named == [i for i, (line_code, _, _) in enumerate(alone, start=1) if line_code]
