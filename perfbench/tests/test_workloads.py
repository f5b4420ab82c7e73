"""Tests of the benchmark's own code: launcher, inputs, gate and tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import traced
import workloads
from workloads import Expect, split_batch, verdict

REPO = Path(__file__).resolve().parents[2]


def launch_cli(*argv):
    env = dict(run.child_env(), PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-c", run.LAUNCHER, *argv], capture_output=True,
                          text=True, env=env, cwd=REPO, timeout=60)


def test_launcher_prints_the_value_for_gr24():
    done = launch_cli(*workloads.TRIVIAL.argv)
    assert done.returncode == 0
    assert json.loads(done.stdout)["value"] == "2"


def test_child_env_drops_vi_workers(monkeypatch):
    monkeypatch.setenv("VI_WORKERS", "3")
    assert "VI_WORKERS" not in run.child_env()


@pytest.mark.parametrize("label", ["n12_g3", "count_max_n12"])
def test_recorded_heavy_values_match_the_reference_route(label):
    from vicalc.engine import InvariantQuery, vi_reference

    queries = {
        "n12_g3": InvariantQuery(12, 4, 3, -6, monomial=(4, 4), convention="dual"),
        # count-max n=12 d=8 k=4 g=2: d = 12 - 4, so b = 4 top insertions
        "count_max_n12": InvariantQuery(12, 4, 2, -4, monomial=(4,) * 4, convention="dual"),
    }
    row = next(op for op in workloads.HEAVY_ROWS if op.label == label)
    assert abs(vi_reference(queries[label]).value) == row.expect.value


def test_batch_file_is_a_function_of_the_seed_with_fixed_kernel_work():
    first = [job.line for job in workloads.batch_jobs(7)]
    assert first == [job.line for job in workloads.batch_jobs(7)]
    assert first != [job.line for job in workloads.batch_jobs(8)]
    assert workloads.heavy_ops(7) == workloads.heavy_ops(7)

    def vi_shapes(seed):
        return sorted((n, k, g, len(monomial), convention)
                      for job in workloads.batch_jobs(seed) if job.expect.kind == "value"
                      and job.reduced for n, k, g, _, monomial, convention in [job.reduced])

    assert vi_shapes(7) == vi_shapes(8)


def test_batch_expectations_agree_with_the_cli_at_this_commit(tmp_path):
    jobs = workloads.resolve_expectations(workloads.batch_jobs(3)[:60])
    path = tmp_path / "jobs.ndjson"
    path.write_text("".join(job.line + "\n" for job in jobs))
    done = launch_cli("batch", str(path))
    lines = split_batch(len(jobs), done.returncode, done.stdout, done.stderr)
    assert lines is not None
    assert all(verdict(job.expect, code, out)[0] for job, (code, out) in zip(jobs, lines))


def test_verdict_counts_sign_flips_and_refusals_but_fails_wrong_values():
    expect = Expect("count_max", Fraction(3))
    assert verdict(expect, 0, '{"value":"3","integral":true}') == (True, "")
    assert verdict(expect, 0, '{"value":"-3","integral":true}') == (True, "sign_flip")
    assert verdict(expect, 3, "") == (True, "refused")
    assert verdict(expect, 0, '{"value":"4","integral":true}')[0] is False
    assert verdict(expect, 4, "")[0] is False
    value = Expect("value", Fraction(2))
    assert verdict(value, 0, '{"value":"2","integral":false}')[0] is False
    assert verdict(value, 0, "not json")[0] is False
    assert verdict(Expect("refuse", 2), 3, "")[0] is False


def test_split_batch_maps_stdout_to_the_lines_that_did_not_fail():
    err = ("batch line 2: vicalc: inadmissible query: degree condition violated\n"
           "vicalc: batch line 3: unknown subcommand 'x'\n")
    assert split_batch(4, 3, "a\nb\n", err) == [(0, "a"), (3, ""), (2, ""), (0, "b")]
    assert split_batch(4, 2, "a\nb\n", err) is None  # exit code is the first failure's
    assert split_batch(4, 3, "a\n", err) is None


def test_products_hold_accepts_the_cli_and_rejects_a_changed_coefficient():
    done = launch_cli("qh-table", "--k", "2", "--n", "5", "--lhs", "2,1", "--rhs", "3,1",
                      "--format", "json")
    obj = json.loads(done.stdout)
    assert workloads.products_hold(2, 5, obj)
    obj["products"][0]["terms"][0]["coeff"] += 1
    assert not workloads.products_hold(2, 5, obj)


def test_tracer_self_time_and_absent_layers():
    tracer = traced.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    calls, total, self_s = tracer.spans["outer"]
    assert calls == 1 and tracer.spans["inner"][0] == 2
    assert self_s == pytest.approx(total - tracer.spans["inner"][1])
    tracer.patch("gone", workloads, "no_such_function")
    assert tracer.absent == ["gone"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
