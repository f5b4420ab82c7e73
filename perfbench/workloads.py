"""The benchmark's workloads, their inputs, and the exactness gate.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.

* heavy_queries: one vicalc process per query, run one after another.  The
  subset-sum kernel and count_maximal's own subset loop do most of the
  work, so a faster kernel or a count_maximal built on evaluate shows here.
* batch_mixed: one `vicalc batch` process over a seeded file of small
  jobs, plus separate trivial `vicalc vi` launches.  Per-call overhead
  (parser construction, start-up, small kernel calls) dominates, so cost
  moved into per-call set-up shows here as a loss.
* oracle_sweep: one fresh Python process that holds vi_invariant against
  the fusion, reference and spectral routes on every admissible query of
  a fixed range (see sweep.py).  A kernel change should leave it
  unchanged; a change to the oracles or to CyclotomicNumber shows here.

Every operation's output is checked against an independent route before
its time counts; the verdict helpers below are that gate.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from random import Random

WORKLOADS = ("heavy_queries", "batch_mixed", "oracle_sweep")


def vi_argv(n, k, g, e, monomial=(), convention="dual"):
    argv = ["vi", "--n", str(n), "--k", str(k), "--g", str(g), "--e=%d" % e]
    if monomial:
        argv += ["--monomial", ",".join(str(a) for a in monomial)]
    return argv + ["--convention", convention, "--format", "json"]


@dataclass(frozen=True)
class Expect:
    """What one operation must produce.

    kind "value": exit 0 and this exact value; "count_max": exit 0 and a
    value of this magnitude, or the exit-3 refusal; "refuse": exactly this
    exit code; "qh": exit 0 and products that hold at every point of the
    spectrum of QH*(Gr(k, n)) at q = 1, with value = (k, n).
    """

    kind: str
    value: object


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    expect: Expect


# <sigma_1^4> on Gr(2, 4), the classical count of lines meeting four lines.
TRIVIAL = Op("trivial", tuple(vi_argv(4, 2, 0, 0, (1, 1, 1, 1))), Expect("value", 2))

# The n >= 12 values were produced once by engine.vi_reference, a literal
# cyclotomic re-summation that shares no code with the power-sum kernel
# (the n=20 value took about two minutes on a 2-CPU x86-64 machine with
# Python 3.11).  tests/test_workloads.py recomputes the cheaper ones.
# The count-max row is held by magnitude against the dual vi query with
# monomial (k,)*b, here (4,4,4,4) at e=-4.
_ACCEPTANCE = vi_argv(20, 5, 2, -4, (5,) * 5, "paper")
HEAVY_ROWS = (
    Op("n20_workers1", tuple(_ACCEPTANCE + ["--workers", "1"]),
       Expect("value", 25082840842380000)),
    Op("n20_workers2", tuple(_ACCEPTANCE + ["--workers", "2"]),
       Expect("value", 25082840842380000)),
    Op("n16_g2", tuple(vi_argv(16, 4, 2, -3)), Expect("value", 664296448)),
    Op("n14_g0", tuple(vi_argv(14, 4, 0, -2, (3,) * 20 + (4, 4))), Expect("value", 16796)),
    Op("n12_g3", tuple(vi_argv(12, 4, 3, -6, (4, 4))), Expect("value", 3440360347875)),
    Op("count_max_n12",
       ("count-max", "--n", "12", "--d", "8", "--k", "4", "--g", "2", "--format", "json"),
       Expect("count_max", 8860851)),
)
# Rows whose stdout must match byte for byte.
SAME_BYTES = ("n20_workers1", "n20_workers2")


def heavy_ops(seed):
    """The fixed heavy rows in an order drawn from the seed."""
    rows = list(HEAVY_ROWS)
    Random(seed).shuffle(rows)
    return rows


# ---------------------------------------------------------------------------
# batch_mixed inputs
#
# The kernel work of the file is fixed and only its surface is seeded: every
# vi shape (n, k, g, convention) appears VI_ROUNDS times with a reduced
# monomial of a fixed length, and the seed picks which admissible monomial,
# how much of it is spelled through d, and the order of the lines.  A seed
# that drew heavier shapes would otherwise move wall_s as much as a real
# change.

# vi jobs stay at C(n, k) <= 70 subsets, so per-call overhead, not the
# kernel, dominates this workload, and the fusion trace that checks them
# stays cheap.
SMALL_SUBSETS = 70
MIN_INSERTIONS = 2
VI_ROUNDS = 2
# (n, k, g) of the count-max lines; each has an admissible d on the
# degree condition.
COUNT_MAX_SHAPES = ((4, 2, 0), (4, 2, 3), (6, 2, 2), (6, 3, 1), (8, 2, 2), (8, 4, 1))
QH_SHAPES = ((1, 4), (2, 4), (2, 5), (3, 6))  # (k, n)
SMALL_JOBS = 4  # each of s-invariant and parabolic-degree


@dataclass(frozen=True)
class Job:
    line: str
    expect: Expect
    reduced: tuple = None  # (n, k, g, e, monomial, convention) the value is checked on


def _weight(k, monomial, convention):
    return sum(k - a + 1 for a in monomial) if convention == "paper" else sum(monomial)


def _vi_jobs(rng):
    """VI_ROUNDS vi jobs per shape; d != 0 on about one job in five.

    d = a*n - b stands for b extra insertions of k and lowers e by a*k, so
    a job with d != 0 is checked on the same reduced query.
    """
    jobs = []
    shapes = [(n, k, g, convention)
              for n in range(2, 11) for k in range(1, n) if comb(n, k) <= SMALL_SUBSETS
              for g in range(4) for convention in ("paper", "dual")]
    for n, k, g, convention in shapes * VI_ROUNDS:
        target = k * (n - k) * (1 - g)
        length = MIN_INSERTIONS
        while True:
            options = [m for m in combinations_with_replacement(range(1, k + 1), length)
                       if (target - _weight(k, m, convention)) % n == 0]
            if options:
                break
            length += 1
        reduced = list(rng.choice(options))
        rng.shuffle(reduced)
        e = (target - _weight(k, reduced, convention)) // n
        a = b = 0
        if rng.random() < 0.2:  # b < n keeps (a, b) the reduction's own split
            a = rng.randint(1, 2)
            b = rng.randint(0, min(reduced.count(k), n - 1))
        monomial = list(reduced)
        for _ in range(b):
            monomial.remove(k)
        params = {"n": n, "k": k, "g": g, "e": e + a * k, "d": a * n - b,
                  "monomial": monomial}
        line = json.dumps({"subcommand": "vi", "output_format": "json",
                           "convention": convention, "parameters": params})
        jobs.append(Job(line, Expect("value", None),
                        (n, k, g, e, tuple(reduced), convention)))
    return jobs


def _count_max_jobs(rng):
    """count-max lines held by magnitude against the dual vi query with monomial (k,)*b."""
    jobs = []
    for n, k, g in COUNT_MAX_SHAPES:
        target = k * (n - k) * (1 - g)
        b = rng.choice([b for b in range(n) if (target - k * b) % n == 0])
        params = {"n": n, "d": rng.randint(1, 2) * n - b, "k": k, "g": g}
        line = json.dumps({"subcommand": "count-max", "output_format": "json",
                           "parameters": params})
        jobs.append(Job(line, Expect("count_max", None),
                        (n, k, g, (target - k * b) // n, (k,) * b, "dual")))
    # Two lines that keep the count_maximal defects in view whatever the
    # seed: it gives -224 for the first, where the dual vi query gives 224,
    # and refuses the second for a non-integral sign exponent.
    for n, d, k, g, e in ((4, 2, 2, 3, -3), (3, 1, 2, 2, -2)):
        line = json.dumps({"subcommand": "count-max", "output_format": "json",
                           "parameters": {"n": n, "d": d, "k": k, "g": g}})
        jobs.append(Job(line, Expect("count_max", None), (n, k, g, e, (k,) * (n - d), "dual")))
    return jobs


def _partition(rng, rows, cols):
    parts = sorted((rng.randint(0, cols) for _ in range(rows)), reverse=True)
    parts = [p for p in parts if p]
    return parts or [1]


def _qh_job(rng, k, n):
    params = {"k": k, "n": n, "lhs": _partition(rng, k, n - k),
              "rhs": _partition(rng, k, n - k)}
    line = json.dumps({"subcommand": "qh-table", "output_format": "json", "parameters": params})
    return Job(line, Expect("qh", (k, n)))


def _s_invariant_job(rng):
    n = rng.randint(2, 10)
    k = rng.randint(1, n - 1)
    g = rng.randint(0, 3)
    eps = rng.randint(1, n - 1)
    order = rng.randint(2, 6)
    exponents = [rng.randint(0, order - 1) for _ in range(rng.randint(1, 3))]
    params = {"n": n, "k": k, "g": g, "eps": eps, "group_order": order}
    if rng.random() < 0.5:
        params["exponents"] = exponents
    else:
        params["weights"] = [str(Fraction(x, order)) for x in exponents]
    expected = k * (n - k) * (g - 1) + eps + sum(exponents)
    line = json.dumps({"subcommand": "s-invariant", "output_format": "json",
                       "parameters": params})
    return Job(line, Expect("value", Fraction(expected)))


def _parabolic_job(rng):
    rank = rng.randint(1, 3)
    degree = rng.randint(-3, 3)
    expected = Fraction(degree)
    points = []
    for _ in range(rng.randint(1, 2)):
        steps = sorted(rng.sample(range(1, rank), rng.randint(0, rank - 1)))
        mults = [b - a for a, b in zip([0] + steps, steps + [rank])]
        weights = sorted(rng.sample(range(12), len(mults)))
        points.append(",".join("%s:%d" % (Fraction(w, 12), m) for w, m in zip(weights, mults)))
        expected += sum(Fraction(w, 12) * m for w, m in zip(weights, mults))
    line = json.dumps({"subcommand": "parabolic-degree", "output_format": "json",
                       "parameters": {"rank": rank, "degree": degree, "point": points}})
    return Job(line, Expect("value", expected))


def _refused_jobs(rng, admissible):
    """Lines the CLI must refuse: exit 3 for a missed degree condition, else 2."""
    params = json.loads(admissible.line)
    params["parameters"]["e"] += 1
    n = rng.randint(3, 9)
    return [
        Job(json.dumps(params), Expect("refuse", 3)),
        Job(json.dumps({"subcommand": "vi", "parameters": {"n": n, "k": n, "g": 0, "e": 0}}),
            Expect("refuse", 2)),
        Job(json.dumps({"subcommand": "no-such-command"}), Expect("refuse", 2)),
        Job("not json at all", Expect("refuse", 2)),
        Job(json.dumps({"subcommand": "s-invariant", "output_format": "json",
                        "parameters": {"n": n, "k": 1, "g": 1, "eps": 0}}),
            Expect("refuse", 2)),
        Job(json.dumps({"subcommand": "parabolic-degree", "output_format": "json",
                        "parameters": {"rank": 2, "degree": 0, "point": ["1/4:1"]}}),
            Expect("refuse", 2)),
    ]


def batch_jobs(seed):
    """The seeded batch file as a list of jobs, one per line, in file order."""
    rng = Random(seed)
    jobs = _vi_jobs(rng) + _count_max_jobs(rng)
    jobs += [_qh_job(rng, k, n) for k, n in QH_SHAPES]
    jobs += [_s_invariant_job(rng) for _ in range(SMALL_JOBS)]
    jobs += [_parabolic_job(rng) for _ in range(SMALL_JOBS)]
    jobs += _refused_jobs(rng, jobs[0])
    rng.shuffle(jobs)
    return jobs


def resolve_expectations(jobs):
    """Fill in the vi and count-max expectations from the fusion trace."""
    from vicalc.engine import InvariantQuery
    from vicalc.fusion import oracle_value

    out = []
    for job in jobs:
        if job.reduced is not None:
            n, k, g, e, monomial, convention = job.reduced
            value = oracle_value(InvariantQuery(n=n, k=k, g=g, e=e, monomial=monomial,
                                                convention=convention))
            if job.expect.kind == "count_max":
                value = abs(value)
            job = Job(job.line, Expect(job.expect.kind, value), job.reduced)
        out.append(job)
    return out


# ---------------------------------------------------------------------------
# the exactness gate

def verdict(expect, code, out):
    """(passed, note) for one operation's exit code and stdout.

    note is "sign_flip" for a count-max value of the right magnitude but
    the wrong sign, "refused" for a count-max refusal, and "" otherwise.
    """
    if expect.kind == "refuse":
        return code == expect.value, ""
    if expect.kind == "count_max" and code == 3:
        return True, "refused"
    if code != 0:
        return False, ""
    try:
        obj = json.loads(out)
        if expect.kind == "qh":
            return products_hold(*expect.value, obj), ""
        value = Fraction(obj["value"])
        integral = obj.get("integral", value.denominator == 1)
    except (ValueError, KeyError, TypeError):
        return False, ""
    if integral != (value.denominator == 1):
        return False, ""
    if expect.kind == "count_max":
        if value == expect.value:
            return True, ""
        if value == -expect.value:
            return True, "sign_flip"
        return False, ""
    return value == expect.value, ""


_BATCH_ERR = re.compile(r"^(?:vicalc: )?batch line (\d+): (.*)$", re.M)


def split_batch(count, code, out, err):
    """Per-line (exit code, stdout) of one batch run over `count` lines.

    Failed lines are named on stderr; the remaining lines own the stdout
    lines in order.  Returns None when the two cannot be matched or the
    process exit code is not the first nonzero line code.
    """
    codes = [0] * count
    for match in _BATCH_ERR.finditer(err):
        lineno, message = int(match.group(1)), match.group(2)
        if not 1 <= lineno <= count:
            return None
        if message.startswith("vicalc: inadmissible query"):
            codes[lineno - 1] = 3
        elif message.startswith("vicalc: internal invariant violation"):
            codes[lineno - 1] = 4
        else:
            codes[lineno - 1] = 2
    outputs = out.splitlines()
    if len(outputs) != codes.count(0):
        return None
    if code != next((c for c in codes if c), 0):
        return None
    it = iter(outputs)
    return [(c, next(it) if c == 0 else "") for c in codes]


# ---------------------------------------------------------------------------
# spectral check of quantum products

def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    total = 0
    for j, entry in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = entry * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _schur(parts, roots):
    """s_parts at the given roots by the dual Jacobi-Trudi determinant."""
    from vicalc.symfunc import Partition, elementary_symmetric

    conj = Partition(parts).conjugate().parts
    if not conj:
        return 1
    k = len(roots)

    def e(t):
        return elementary_symmetric(t, roots) if 0 <= t <= k else 0

    return _det([[e(conj[i] - i + j) for j in range(len(conj))] for i in range(len(conj))])


def products_hold(k, n, obj):
    """True when every product in a qh-table JSON answer holds pointwise.

    At q = 1 the quantum ring of Gr(k, n) is the ring of functions on the
    k-subsets of the n-th roots of (-1)^(k-1); the Schur polynomial s_nu
    is the function of the class sigma_nu.
    """
    from vicalc.cyclotomic import zeta

    if k % 2:
        order, exps = n, list(range(n))
    else:
        order, exps = 2 * n, [2 * j + 1 for j in range(n)]
    points = [[zeta(order, exps[j]) for j in sub] for sub in combinations(range(n), k)]
    products = obj["products"]
    if not products:
        return False
    for product in products:
        for roots in points:
            left = _schur(product["left"], roots) * _schur(product["right"], roots)
            right = 0
            for term in product["terms"]:
                right = right + int(term["coeff"]) * _schur(term["partition"], roots)
            if left != right:
                return False
    return True
