"""Batch front end: parse queries, dispatch, render text, JSON, or CSV.

Options by subcommand: every query subcommand (vi, count-max, qh-table,
parabolic-degree, s-invariant, corollary-report) takes --format; only vi
takes --convention and --workers; batch takes only its path.  One parser
is built per process, and batch lines are parsed with it too.  Every
subcommand but qh-table prints one record, rendered by _record; the text
form of corollary-report is its own three lines.  count-max always
reports the dual spelling of its query.

Exit codes: 0 success, 2 usage error (including a --workers value that
is not a nonnegative integer, an option the subcommand does not take,
and a batch line that is not a well-formed job or has an unknown
top-level key), 3 inadmissible query (the requested value does not
exist: degree condition violated), 4 internal invariant violation (the
algebra promised something the computation broke, e.g. a subset sum
outside its L1 bound).

Rationals are serialized as decimal-free strings ("6", "-7/3") in every
machine format so exactness survives round trips.  A batch file holds one
JSON job per line, run in input order; a job's keys are subcommand,
output_format, convention and parameters.  Every query runs in this one
process; vi --workers is still parsed and validated so that existing
command lines keep working, but it has no effect.
"""

import argparse
import csv
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from .cyclotomic import root_power_sum
from .engine import (
    InadmissibleQueryError,
    InvariantQuery,
    count_maximal,
    evaluate,
)
from .parabolic import (
    MarkedPoint,
    ParabolicData,
    parabolic_degree,
    s_invariant,
    weights_from_equivariant,
)
from .symfunc import Partition, partitions_in_box, quantum_product


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# small parsing and formatting helpers

def _int_list(text):
    if not text:
        return []
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError("expected integers, got %r" % (text,))


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("expected a rational like 1/2, got %r" % (text,))


def _fraction_list(text):
    if not text:
        return []
    return [_fraction(tok) for tok in text.replace(",", " ").split()]


def worker_count(text):
    """The --workers type: a nonnegative integer, which is then ignored."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer, got %r" % (text,))
    return value


def _rat(value):
    return str(Fraction(value))


def _bool(flag):
    return "true" if flag else "false"


def _kv_block(pairs):
    width = max(len(key) for key, _ in pairs)
    lines = ["%-*s  %s" % (width, key, val) for key, val in pairs]
    return "\n".join(lines) + "\n"


def _csv_block(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json_line(obj):
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _record(ns, fields, json_keys):
    """Render one record of ordered (name, value) fields in the --format asked for.

    CSV is the header and one row, None an empty cell.  Text is one
    aligned line per field: None fields are left out, "" prints as "-"
    and "_" in a name as a space.  JSON holds json_keys only.  Bools print
    as true/false, and as JSON booleans in JSON.
    """
    if ns.format == "json":
        values = dict(fields)
        return _json_line({key: values[key] for key in json_keys})
    cells = [(name, _bool(value) if isinstance(value, bool) else value)
             for name, value in fields]
    if ns.format == "csv":
        return _csv_block([name for name, _ in cells], [[value for _, value in cells]])
    return _kv_block([(name.replace("_", " "), "-" if value == "" else value)
                      for name, value in cells if value is not None])


def _class_label(parts):
    return "s[%s]" % ",".join(str(p) for p in parts)


def _sum_text(qsum):
    pieces = []
    for (parts, qexp), coeff in qsum.items():
        body = []
        if abs(coeff) != 1:
            body.append(str(abs(coeff)))
        if qexp == 1:
            body.append("q")
        elif qexp > 1:
            body.append("q^%d" % qexp)
        body.append(_class_label(parts))
        text = "*".join(body)
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + text)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + text)
    return " ".join(pieces) if pieces else "0"


# ---------------------------------------------------------------------------
# subcommand runners; each returns the rendered stdout text

def _query_record(ns, n, k, g, e, d, monomial, convention, result):
    return _record(ns, [
        ("n", n), ("k", k), ("g", g), ("e", e), ("d", d),
        ("monomial", monomial), ("convention", convention),
        ("value", _rat(result.value)), ("integral", result.integral),
        ("terms", result.terms_summed),
    ], ("value", "integral"))


def _run_vi(ns):
    try:
        query = InvariantQuery(
            n=ns.n, k=ns.k, g=ns.g, e=ns.e, d=ns.d,
            monomial=_int_list(ns.monomial), convention=ns.convention,
        )
    except ValueError as ex:
        raise UsageError(str(ex))
    return _query_record(
        ns, query.n, query.k, query.g, query.e, query.d,
        ",".join(str(a) for a in query.monomial), query.convention, evaluate(query),
    )


def _run_count_max(ns):
    try:
        result = count_maximal(ns.n, ns.d, ns.k, ns.g)
    except ValueError as ex:
        raise UsageError(str(ex))
    # the count is the dual query's; count-max has no e or monomial of its own
    return _query_record(ns, ns.n, ns.k, ns.g, None, ns.d, None, "dual", result)


def _run_qh_table(ns):
    if (ns.lhs is None) != (ns.rhs is None):
        raise UsageError("--lhs and --rhs must be given together")
    try:
        if ns.lhs is not None:
            pairs = [(Partition(_int_list(ns.lhs)), Partition(_int_list(ns.rhs)))]
        else:
            basis = partitions_in_box(ns.k, ns.n - ns.k)
            pairs = [
                (basis[i], basis[j])
                for i in range(len(basis))
                for j in range(i, len(basis))
            ]
        products = [
            (lam, mu, quantum_product(lam, mu, ns.k, ns.n)) for lam, mu in pairs
        ]
    except ValueError as ex:
        raise UsageError(str(ex))
    if ns.format == "json":
        obj = {
            "k": ns.k,
            "n": ns.n,
            "products": [
                {
                    "left": list(lam.parts),
                    "right": list(mu.parts),
                    "terms": [
                        {"partition": list(parts), "q": qexp, "coeff": coeff}
                        for (parts, qexp), coeff in qsum.items()
                    ],
                }
                for lam, mu, qsum in products
            ],
        }
        return _json_line(obj)
    if ns.format == "csv":
        rows = []
        for lam, mu, qsum in products:
            left = " ".join(str(p) for p in lam.parts)
            right = " ".join(str(p) for p in mu.parts)
            for (parts, qexp), coeff in qsum.items():
                rows.append(
                    (left, right, " ".join(str(p) for p in parts), qexp, coeff)
                )
        return _csv_block(("left", "right", "partition", "q", "coeff"), rows)
    lines = [
        "%s * %s = %s" % (_class_label(lam.parts), _class_label(mu.parts), _sum_text(qsum))
        for lam, mu, qsum in products
    ]
    return "\n".join(lines) + "\n"


def _parse_point(spec):
    weights, mults = [], []
    for entry in spec.split(","):
        bits = entry.split(":")
        if len(bits) != 2:
            raise UsageError("marked point entry %r is not weight:multiplicity" % (entry,))
        weights.append(_fraction(bits[0]))
        try:
            mults.append(int(bits[1]))
        except ValueError:
            raise UsageError("multiplicity %r is not an integer" % (bits[1],))
    return weights, mults


def _run_parabolic_degree(ns):
    points = [_parse_point(spec) for spec in ns.point or []]
    try:
        data = ParabolicData(
            rank=ns.rank,
            degree=ns.degree,
            points=tuple(MarkedPoint(w, m) for w, m in points),
        )
    except ValueError as ex:
        raise UsageError(str(ex))
    rendered_points = "|".join(
        ";".join("%s:%d" % (w, m) for w, m in zip(p.weights, p.multiplicities))
        for p in data.points
    )
    return _record(ns, [
        ("rank", ns.rank), ("degree", ns.degree), ("points", rendered_points),
        ("value", _rat(parabolic_degree(data))),
    ], ("value",))


def _run_s_invariant(ns):
    if ns.weights is not None and ns.exponents is not None:
        raise UsageError("give --weights or --exponents, not both")
    if ns.exponents is not None and not ns.group_order:
        raise UsageError("--exponents requires --group-order")
    try:
        if ns.exponents is not None:
            weights = weights_from_equivariant(ns.group_order, _int_list(ns.exponents))
        else:
            weights = _fraction_list(ns.weights)
        value = s_invariant(ns.n, ns.k, ns.g, ns.eps, ns.group_order, weights)
    except ValueError as ex:
        raise UsageError(str(ex))
    return _record(ns, [
        ("n", ns.n), ("k", ns.k), ("g", ns.g), ("eps", ns.eps),
        ("group_order", ns.group_order), ("weights", ";".join(str(w) for w in weights)),
        ("value", _rat(value)),
    ], ("value",))


def _run_corollary_report(ns):
    if ns.n < 2:
        raise UsageError("need n >= 2")
    if ns.g < 0:
        raise UsageError("genus must be nonnegative")
    derived = count_maximal(ns.n, ns.d, 1, ns.g).value
    a = -(-ns.d // ns.n)
    b = a * ns.n - ns.d
    closed = Fraction(ns.n) ** (ns.g - 1) * root_power_sum(ns.n, b - ns.g + 1)
    if derived != closed:
        raise RuntimeError(
            "closed form %s disagrees with the subset sum %s" % (closed, derived)
        )
    claimed = Fraction(ns.n) ** (ns.n * ns.g)
    differ = claimed != derived
    if ns.format == "text":
        return _kv_block([
            ("claimed", "m(n,d,1,g) = n^(n*g) = %s (published corollary)" % _rat(claimed)),
            ("derived", "n^(g-1) * sum_rho rho^(b-g+1) = %s (root-of-unity sum, b = %d)"
             % (_rat(derived), b)),
            ("status", "values %s; recorded as a documented discrepancy, not adjudicated"
             % ("differ" if differ else "agree")),
        ])
    fields = [("n", ns.n), ("d", ns.d), ("g", ns.g), ("claimed", _rat(claimed)),
              ("derived", _rat(derived)), ("differ", differ)]
    return _record(ns, fields, [name for name, _ in fields])


_RUNNERS = {
    "vi": _run_vi,
    "count-max": _run_count_max,
    "qh-table": _run_qh_table,
    "parabolic-degree": _run_parabolic_degree,
    "s-invariant": _run_s_invariant,
    "corollary-report": _run_corollary_report,
}


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser():
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser = argparse.ArgumentParser(
        prog="vicalc",
        description="Exact Grassmannian invariants from root-of-unity sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vi", parents=[formatted],
                       help="genus-g invariant on the degree-0 locus")
    p.add_argument("--convention", choices=("paper", "dual"), default="paper")
    p.add_argument("--workers", type=worker_count, default=0,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--monomial", default="",
                   help="insertion subscripts, comma separated")

    p = sub.add_parser("count-max", parents=[formatted],
                       help="maximal-subbundle count m(n,d,k,g)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)

    p = sub.add_parser("qh-table", parents=[formatted],
                       help="quantum product expansions over the box basis")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lhs", default=None, help="left partition, comma separated")
    p.add_argument("--rhs", default=None, help="right partition, comma separated")

    p = sub.add_parser("parabolic-degree", parents=[formatted],
                       help="ordinary degree plus weighted flag contributions")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--point", action="append", default=[],
                   help="marked point as weight:mult,weight:mult,...")

    p = sub.add_parser("s-invariant", parents=[formatted],
                       help="k(n-k)(g-1) + eps + N * sum of weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--eps", type=int, required=True)
    p.add_argument("--group-order", type=int, default=0)
    p.add_argument("--weights", default=None, help="rationals, comma separated")
    p.add_argument("--exponents", default=None,
                   help="equivariant exponents, converted via --group-order")

    p = sub.add_parser("corollary-report", parents=[formatted],
                       help="published n^(ng) claim next to the formula value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, default=1)

    p = sub.add_parser("batch", help="run one JSON job per line of a file")
    p.add_argument("path")

    return parser


def _job_field(job, key, kind, default=None):
    value = job.get(key, default)
    if not isinstance(value, kind):
        raise UsageError("%s must be a JSON %s, got %s" % (
            key, "object" if kind is dict else "string", json.dumps(value)))
    return value


_JOB_KEYS = frozenset(("subcommand", "output_format", "convention", "parameters"))


def _job_to_argv(job):
    if not isinstance(job, dict):
        raise UsageError("job line must be a JSON object")
    unknown = sorted(set(job) - _JOB_KEYS)
    if unknown:
        raise UsageError("unknown job key %s" % ", ".join(map(repr, unknown)))
    sub = job.get("subcommand")
    if not isinstance(sub, str) or sub not in _RUNNERS:
        raise UsageError("unknown subcommand %r" % (sub,))
    argv = [sub, "--format", _job_field(job, "output_format", str, "text")]
    if "convention" in job:
        argv += ["--convention", _job_field(job, "convention", str)]
    for key, value in sorted(_job_field(job, "parameters", dict, {}).items()):
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, (list, tuple)):
            if key == "point":
                for item in value:
                    argv += [flag, str(item)]
            else:
                argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, str(value)]
    return argv


def _execute_batch(parser, path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as ex:
        return 2, "", "vicalc: error: %s\n" % ex
    out_parts, err_parts, code = [], [], 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            job = json.loads(line)
            argv = _job_to_argv(job)
        except (UsageError, json.JSONDecodeError) as ex:
            err_parts.append("vicalc: batch line %d: %s\n" % (lineno, ex))
            code = code or 2
            continue
        job_code, job_out, job_err = _run(parser, argv)
        out_parts.append(job_out)
        if job_err:
            err_parts.append("batch line %d: %s" % (lineno, job_err))
        code = code or job_code
    return code, "".join(out_parts), "".join(err_parts)


def _run(parser, argv):
    """Parse argv with parser and run it: (exit code, stdout, stderr)."""
    out_buf, err_buf = io.StringIO(), io.StringIO()
    with redirect_stdout(out_buf), redirect_stderr(err_buf):
        try:
            ns = parser.parse_args(argv)
        except SystemExit as ex:
            return int(ex.code or 0), out_buf.getvalue(), err_buf.getvalue()
    if ns.command == "batch":
        return _execute_batch(parser, ns.path)
    try:
        return 0, _RUNNERS[ns.command](ns), ""
    except UsageError as ex:
        return 2, "", "vicalc: error: %s\n" % ex
    except InadmissibleQueryError as ex:
        return 3, "", "vicalc: inadmissible query: %s\n" % ex
    except Exception as ex:
        return 4, "", "vicalc: internal invariant violation: %s\n" % ex


def _execute(argv):
    return _run(build_parser(), argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    code, out, err = _execute(list(argv))
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
