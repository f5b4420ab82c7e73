"""Batch front end: parse queries, dispatch, render text, JSON, or CSV.

Options by subcommand: every query subcommand (vi, count-max, qh-table,
parabolic-degree, s-invariant, corollary-report) takes --format; only vi
takes --convention and --workers; batch takes only its path.  One table,
_OPTIONS, lists every query subcommand with its runner and help, and
every option with its reader, default or requirement, choices and help;
a list default makes an option repeatable.  build_parser makes the
argparse parser from it, once per process, _dispatch runs a subcommand
through it, and _job_namespace reads each batch line with it into the
namespace that line's command line would parse to, refusing what
argparse would refuse.  Every subcommand but qh-table prints one
record, rendered by _record; the text form of corollary-report is its
own three lines.  count-max always reports the dual spelling of its
query.  corollary-report refuses, before computing, a claim n^(n*g)
whose digit estimate n*g*log10(n) exceeds CLAIM_DIGITS.

Exit codes follow the exception type, and _dispatch alone maps them: 0
success; 3 InadmissibleQueryError (the requested value does not exist:
degree condition violated); 2 any other ValueError, the one refusal type
(a malformed option, shape or batch job), and argparse's own errors; 4
anything else, an internal invariant violation (the algebra promised
something the computation broke, e.g. a subset sum outside its L1
bound).  A batch reports each refused line and exits with the first
nonzero code; a line the job reader refuses exits 2.

List options (--monomial, --lhs, --rhs, --exponents, --weights, and each
--point) share one grammar, read by _list: entries are separated by
commas, whitespace around an entry is ignored, "" is the empty list, and
an empty entry (",", "1,,1", a trailing comma, a blank) is a ValueError.
A rational entry and a weight:multiplicity entry are read by
vicalc.parabolic's read_rational and read_flag, the one reader of
rational text, which refuses exponent notation.

Rationals are serialized as decimal-free strings ("6", "-7/3") in every
machine format so exactness survives round trips, and they print at any
size.  A batch file holds one JSON job per line, run in input order; a
job's keys are subcommand, output_format, convention and parameters.
Every query runs in this one process; vi --workers is still parsed and
validated so that existing command lines keep working, but it has no
effect.

Modules load on demand: importing this module loads only the engine and
the kernel, which is all vi, count-max and corollary-report run.
qh-table loads symfunc, and parabolic-degree and s-invariant load
parabolic, inside their runners.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from .engine import (
    CONVENTIONS,
    InadmissibleQueryError,
    InvariantQuery,
    count_maximal,
    evaluate,
)


# ---------------------------------------------------------------------------
# small parsing and formatting helpers

def _list(text, read):
    """The entries of a comma list, each read with read: "" (or None, an
    option not given) is the empty list, whitespace around an entry is
    ignored, and an empty entry is a ValueError."""
    if not text:
        return []
    entries = [entry.strip() for entry in text.split(",")]
    if "" in entries:
        raise ValueError("empty entry in the list %r" % (text,))
    return [read(entry) for entry in entries]


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
    """Exact text of a rational of any size: the one place the int-to-text
    digit limit is lifted, so input keeps it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(Fraction(value))
    finally:
        sys.set_int_max_str_digits(limit)


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
        ("terms", _rat(result.terms_summed)),
    ], ("value", "integral"))


def _run_vi(ns):
    query = InvariantQuery(
        n=ns.n, k=ns.k, g=ns.g, e=ns.e, d=ns.d,
        monomial=_list(ns.monomial, int), convention=ns.convention,
    )
    return _query_record(
        ns, query.n, query.k, query.g, query.e, query.d,
        ",".join(str(a) for a in query.monomial), query.convention, evaluate(query),
    )


def _run_count_max(ns):
    result = count_maximal(ns.n, ns.d, ns.k, ns.g)
    # the count is the dual query's; count-max has no e or monomial of its own
    return _query_record(ns, ns.n, ns.k, ns.g, None, ns.d, None, "dual", result)


def _run_qh_table(ns):
    from .symfunc import Partition, partitions_in_box, quantum_product

    if (ns.lhs is None) != (ns.rhs is None):
        raise ValueError("--lhs and --rhs must be given together")
    if ns.lhs is not None:
        pairs = [(Partition(_list(ns.lhs, int)), Partition(_list(ns.rhs, int)))]
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
    if ns.format == "json":
        obj = {
            "k": ns.k,
            "n": ns.n,
            "products": [
                {
                    "left": lam,
                    "right": mu,
                    "terms": [
                        {"partition": parts, "q": qexp, "coeff": coeff}
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
            left = " ".join(str(p) for p in lam)
            right = " ".join(str(p) for p in mu)
            for (parts, qexp), coeff in qsum.items():
                rows.append(
                    (left, right, " ".join(str(p) for p in parts), qexp, coeff)
                )
        return _csv_block(("left", "right", "partition", "q", "coeff"), rows)
    lines = [
        "%s * %s = %s" % (_class_label(lam), _class_label(mu), _sum_text(qsum))
        for lam, mu, qsum in products
    ]
    return "\n".join(lines) + "\n"


def _run_parabolic_degree(ns):
    from .parabolic import MarkedPoint, ParabolicData, parabolic_degree, read_flag

    points = [_list(spec, read_flag) for spec in ns.point]
    data = ParabolicData(
        rank=ns.rank,
        degree=ns.degree,
        points=tuple(MarkedPoint(tuple(w for w, _ in flags), tuple(m for _, m in flags))
                     for flags in points),
    )
    rendered_points = "|".join(
        ";".join("%s:%d" % (w, m) for w, m in zip(p.weights, p.multiplicities))
        for p in data.points
    )
    return _record(ns, [
        ("rank", ns.rank), ("degree", ns.degree), ("points", rendered_points),
        ("value", _rat(parabolic_degree(data))),
    ], ("value",))


def _run_s_invariant(ns):
    from .parabolic import read_rational, s_invariant, weights_from_equivariant

    if ns.weights is not None and ns.exponents is not None:
        raise ValueError("give --weights or --exponents, not both")
    if ns.exponents is not None:
        weights = weights_from_equivariant(ns.group_order, _list(ns.exponents, int))
    else:
        weights = _list(ns.weights, read_rational)
    value = s_invariant(ns.n, ns.k, ns.g, ns.eps, ns.group_order, weights)
    return _record(ns, [
        ("n", ns.n), ("k", ns.k), ("g", ns.g), ("eps", ns.eps),
        ("group_order", ns.group_order), ("weights", ";".join(str(w) for w in weights)),
        ("value", _rat(value)),
    ], ("value",))


CLAIM_DIGITS = 100_000  # corollary-report's budget for the claim's digit estimate


def _run_corollary_report(ns):
    # n*g*log10(n), about the digit count of n^(n*g), with log10(n) in 20-bit
    # fixed point so that no size overflows a float; count_maximal refuses n < 2
    digits = ns.n * ns.g * round(math.log10(ns.n) * (1 << 20)) >> 20 if ns.n > 1 else 0
    if digits > CLAIM_DIGITS:
        raise ValueError("the claim n^(n*g) would have about %s digits, over the budget of %d"
                         % (_rat(digits), CLAIM_DIGITS))
    derived = count_maximal(ns.n, ns.d, 1, ns.g).value
    claimed = Fraction(ns.n) ** (ns.n * ns.g)
    differ = claimed != derived
    if ns.format == "text":
        return _kv_block([
            ("claimed", "m(n,d,1,g) = n^(n*g) = %s (published corollary)" % _rat(claimed)),
            ("derived", "n^(g-1) * sum_rho rho^(b-g+1) = %s (root-of-unity sum, b = %d)"
             % (_rat(derived), -ns.d % ns.n)),
            ("status", "values %s; recorded as a documented discrepancy, not adjudicated"
             % ("differ" if differ else "agree")),
        ])
    fields = [("n", ns.n), ("d", ns.d), ("g", ns.g), ("claimed", _rat(claimed)),
              ("derived", _rat(derived)), ("differ", differ)]
    return _record(ns, fields, [name for name, _ in fields])


# ---------------------------------------------------------------------------
# the option table, and the parser and the job reader built from it

_REQUIRED = object()  # the default of an option that must be given
_FORMAT = ("format", str, "text", ("text", "json", "csv"), None)

# Each query subcommand's runner, help and options.  An option is (name,
# reader, default or _REQUIRED, choices, help); a list default makes it
# repeatable.  build_parser makes --name of each row, _job_namespace reads a
# job's parameters with the same rows, and _dispatch calls the runner.
_OPTIONS = {
    "vi": (_run_vi, "genus-g invariant on the degree-0 locus", (
        _FORMAT,
        ("convention", str, "paper", CONVENTIONS, None),
        ("workers", worker_count, 0, None, "accepted for compatibility; has no effect"),
        ("n", int, _REQUIRED, None, None),
        ("k", int, _REQUIRED, None, None),
        ("g", int, _REQUIRED, None, None),
        ("e", int, _REQUIRED, None, None),
        ("d", int, 0, None, None),
        ("monomial", str, "", None, "insertion subscripts, comma separated"),
    )),
    "count-max": (_run_count_max, "maximal-subbundle count m(n,d,k,g)", (
        _FORMAT,
        ("n", int, _REQUIRED, None, None),
        ("d", int, _REQUIRED, None, None),
        ("k", int, _REQUIRED, None, None),
        ("g", int, _REQUIRED, None, None),
    )),
    "qh-table": (_run_qh_table, "quantum product expansions over the box basis", (
        _FORMAT,
        ("k", int, _REQUIRED, None, None),
        ("n", int, _REQUIRED, None, None),
        ("lhs", str, None, None, "left partition, comma separated"),
        ("rhs", str, None, None, "right partition, comma separated"),
    )),
    "parabolic-degree": (_run_parabolic_degree,
                         "ordinary degree plus weighted flag contributions", (
        _FORMAT,
        ("rank", int, _REQUIRED, None, None),
        ("degree", int, _REQUIRED, None, None),
        ("point", str, [], None, "marked point as weight:mult,weight:mult,..."),
    )),
    "s-invariant": (_run_s_invariant, "k(n-k)(g-1) + eps + N * sum of weights", (
        _FORMAT,
        ("n", int, _REQUIRED, None, None),
        ("k", int, _REQUIRED, None, None),
        ("g", int, _REQUIRED, None, None),
        ("eps", int, _REQUIRED, None, None),
        ("group-order", int, 0, None, None),
        ("weights", str, None, None, "rationals, comma separated"),
        ("exponents", str, None, None, "equivariant exponents, converted via --group-order"),
    )),
    "corollary-report": (_run_corollary_report,
                         "published n^(ng) claim next to the formula value", (
        _FORMAT,
        ("n", int, _REQUIRED, None, None),
        ("g", int, _REQUIRED, None, None),
        ("d", int, 1, None, None),
    )),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vicalc",
        description="Exact Grassmannian invariants from root-of-unity sums.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, options) in _OPTIONS.items():
        p = sub.add_parser(command, allow_abbrev=False, help=command_help)
        for name, read, default, choices, option_help in options:
            required = default is _REQUIRED
            p.add_argument("--" + name, type=read, choices=choices, help=option_help,
                           required=required, default=None if required else default,
                           action="append" if isinstance(default, list) else "store")
    p = sub.add_parser("batch", allow_abbrev=False, help="run one JSON job per line of a file")
    p.add_argument("path")
    return parser


def _job_field(job, key, kind, default=None):
    value = job.get(key, default)
    if not isinstance(value, kind):
        raise ValueError("%s must be a JSON %s, got %s" % (
            key, "object" if kind is dict else "string", json.dumps(value)))
    return value


# the job keys that stand for an option, which its parameters may not give
_JOB_OPTIONS = {"output_format": "format", "convention": "convention"}
_JOB_KEYS = frozenset(("subcommand", "parameters", *_JOB_OPTIONS))
# --help, which prints to stdout, is not a query option either
_REFUSED_PARAMETERS = {"help": "a job prints no help"}
_REFUSED_PARAMETERS.update((option, 'give it as the job\'s "%s"' % key)
                           for key, option in _JOB_OPTIONS.items())
# argparse (3.10, 3.11) takes a value for an option, and so refuses it as one,
# when it starts with "-", has more than one character and no space, and does
# not match this pattern
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _job_namespace(job):
    """The namespace a job's command line parses to, read with the option
    table: the same values, and a ValueError for every line argparse refuses.

    That command line is the job's output_format and convention, then its
    parameters by key.  A list gives one option per item where the option
    repeats, and else one option, its items joined with ",".  The job is
    checked first, then every parameter for a refusal, then each option in
    command-line order.
    """
    if not isinstance(job, dict):
        raise ValueError("job line must be a JSON object")
    unknown = sorted(set(job) - _JOB_KEYS)
    if unknown:
        raise ValueError("unknown job key %s" % ", ".join(map(repr, unknown)))
    sub = job.get("subcommand")
    if not isinstance(sub, str) or sub not in _OPTIONS:
        raise ValueError("unknown subcommand %r" % (sub,))
    options = _OPTIONS[sub][2]
    rows = {row[0]: row for row in options}
    texts = [(option, _job_field(job, key, str))
             for key, option in _JOB_OPTIONS.items() if key in job]
    for key, value in sorted(_job_field(job, "parameters", dict, {}).items()):
        if key in _REFUSED_PARAMETERS:
            raise ValueError("parameter %r refused: %s" % (key, _REFUSED_PARAMETERS[key]))
        name = str(key).replace("_", "-")
        if not isinstance(value, (list, tuple)):
            texts.append((name, str(value)))
        elif name in rows and isinstance(rows[name][2], list):
            texts += [(name, str(item)) for item in value]
        else:
            texts.append((name, ",".join(str(v) for v in value)))
    values = {}
    for name, text in texts:
        if name not in rows:
            raise ValueError("%s takes no --%s" % (sub, name))
        _, read, default, choices, _ = rows[name]
        if (text[:1] == "-" and len(text) > 1 and " " not in text
                and not _NEGATIVE_NUMBER.match(text)):
            raise ValueError("argument --%s: %r reads as an option" % (name, text))
        try:
            value = read(text)
        except argparse.ArgumentTypeError as ex:
            raise ValueError("argument --%s: %s" % (name, ex)) from None
        except ValueError:
            raise ValueError("argument --%s: invalid %s value: %r"
                             % (name, read.__name__, text)) from None
        if choices is not None and value not in choices:
            raise ValueError("argument --%s: invalid choice: %r (choose from %s)"
                             % (name, value, ", ".join(map(repr, choices))))
        if isinstance(default, list):
            values.setdefault(name, []).append(value)
        else:
            values[name] = value
    missing = ["--" + name for name, _, default, _, _ in options
               if default is _REQUIRED and name not in values]
    if missing:
        raise ValueError("the following arguments are required: %s" % ", ".join(missing))
    ns = argparse.Namespace(command=sub)
    for name, _, default, _, _ in options:
        setattr(ns, name.replace("-", "_"),
                values.get(name, list(default) if isinstance(default, list) else default))
    return ns


def _execute_batch(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, ValueError) as ex:  # unreadable, or not UTF-8
        return 2, "", "vicalc: error: %s\n" % ex
    out_parts, err_parts, code = [], [], 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        # json raises RecursionError, not ValueError, on a line nested past the recursion limit
        try:
            ns = _job_namespace(json.loads(line))
        except (ValueError, RecursionError) as ex:
            err_parts.append("vicalc: batch line %d: %s\n" % (lineno, ex))
            code = code or 2
            continue
        job_code, job_out, job_err = _dispatch(ns)
        out_parts.append(job_out)
        if job_err:
            err_parts.append("batch line %d: %s" % (lineno, job_err))
        code = code or job_code
    return code, "".join(out_parts), "".join(err_parts)


def _dispatch(ns):
    """Run a parsed command: (exit code, stdout, stderr).  The one place an
    exception type becomes an exit code."""
    if ns.command == "batch":
        return _execute_batch(ns.path)
    try:
        return 0, _OPTIONS[ns.command][0](ns), ""
    except InadmissibleQueryError as ex:  # first: it is a ValueError
        return 3, "", "vicalc: inadmissible query: %s\n" % ex
    except ValueError as ex:
        return 2, "", "vicalc: error: %s\n" % ex
    except Exception as ex:
        return 4, "", "vicalc: internal invariant violation: %s\n" % ex


def _execute(argv):
    """Parse argv with one parser and run it: (exit code, stdout, stderr)."""
    out_buf, err_buf = io.StringIO(), io.StringIO()
    with redirect_stdout(out_buf), redirect_stderr(err_buf):
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as ex:
            return int(ex.code or 0), out_buf.getvalue(), err_buf.getvalue()
    return _dispatch(ns)


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
