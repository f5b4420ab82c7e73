"""Property tests: random admissible queries held against the fusion oracle,
random batch files held against the same jobs run one by one, and random
comma lists held to the command line's list grammar.

The exhaustive sweeps in test_acceptance.py stop at n = 6; the oracle
test draws from 7 <= n <= 9, where the kernel visits only the subsets
containing 0.
"""

import csv
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vicalc.cli import _execute, _fraction, _list  # noqa: E402
from vicalc.engine import (  # noqa: E402
    CONVENTIONS,
    InvariantQuery,
    required_weight,
    vi_invariant,
)
from vicalc.fusion import oracle_value  # noqa: E402


@lru_cache(maxsize=None)
def admissible(n, k, g, convention, max_len=5):
    """Every admissible d = 0 query with a monomial of length <= max_len."""
    out = []
    for m in range(max_len + 1):
        for mono in combinations_with_replacement(range(1, k + 1), m):
            q = InvariantQuery(n, k, g, 0, monomial=mono, convention=convention)
            e, rest = divmod(required_weight(q) - sum(q.columns), n)
            if not rest:
                out.append(q.replace(e=e))
    return out


queries = st.tuples(
    st.integers(7, 9), st.sampled_from((2, 3)), st.integers(0, 3), st.sampled_from(CONVENTIONS),
).flatmap(lambda shape: st.sampled_from(admissible(*shape)))


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
    query = draw(st.sampled_from(admissible(n, k, g, convention, n - 1)))
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
                 st.tuples(st.lists(st.fractions()), st.just(_fraction))),
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
    # a job's "point" is a list, one --point per item; the other lists are strings
    job = {"subcommand": sub,
           "parameters": dict(params, **{option: [text] if option == "point" else text})}
    path = tmp_path_factory.mktemp("batch") / "jobs.ndjson"
    path.write_text("".join(json.dumps(j) + "\n" for j in (GOOD_JOB, job, GOOD_JOB)))
    code, out, err = _execute(["batch", str(path)])
    assert (code, out) == (2, '{"value":"6","integral":true}\n' * 2)
    assert err.startswith("batch line 2: vicalc: error: empty entry") and err.count("\n") == 1
