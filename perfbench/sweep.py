"""oracle_sweep: every admissible query of a fixed range, all routes compared.

Run as a script it is one pass of the workload, in a fresh interpreter:

    PYTHONPATH=src python3 perfbench/sweep.py SEED

and prints one JSON line with the number of queries attempted and the
number on which every route agreed.  The range is every admissible dual
monomial of length <= MAX_LEN at genus <= 2, for n <= 6 with every k and
for 7 <= n <= 9 with k in {2, 3, 4}.  Each query takes vi_invariant and
the fusion trace; vi_reference joins for n <= 5 and the spectral route
for n <= 4 with g <= 1.  The seed only orders the queries.
"""

import json
import sys
from itertools import combinations_with_replacement
from random import Random

MAX_LEN = 5


def sweep_queries():
    """(n, k, g, e, monomial) for every query in the sweep range."""
    out = []
    for n in range(2, 10):
        ks = range(1, n) if n <= 6 else [k for k in (2, 3, 4) if k < n]
        for k in ks:
            for g in (0, 1, 2):
                shift = k * (n - k) * (1 - g)
                for length in range(MAX_LEN + 1):
                    for mono in combinations_with_replacement(range(1, k + 1), length):
                        if (shift - sum(mono)) % n == 0:
                            out.append((n, k, g, (shift - sum(mono)) // n, mono))
    return out


def route_values(n, k, g, e, mono):
    """Every route's value for one dual query, by route name."""
    # imported at call time so that traced.py's wrappers are what runs
    from vicalc.engine import InvariantQuery, vi_invariant, vi_reference
    from vicalc.fusion import classes_for_query, correlator_via_spectrum, oracle_value

    query = InvariantQuery(n=n, k=k, g=g, e=e, monomial=mono, convention="dual")
    values = {"engine": vi_invariant(query).value, "fusion": oracle_value(query)}
    if n <= 5:
        values["reference"] = vi_reference(query).value
    if n <= 4 and g <= 1:
        values["spectral"] = correlator_via_spectrum(classes_for_query(query), g, k, n)
    return values


def run(seed):
    queries = sweep_queries()
    Random(seed).shuffle(queries)
    agreed = 0
    disagreements = []
    for q in queries:
        try:
            values = route_values(*q)
        except Exception as ex:  # one broken query fails one operation, not the pass
            disagreements.append([list(q[:4]), list(q[4]), "%s: %s" % (type(ex).__name__, ex)])
            continue
        if len(set(values.values())) == 1:
            agreed += 1
        else:
            disagreements.append([list(q[:4]), list(q[4]),
                                  {name: str(v) for name, v in values.items()}])
    return {"attempted": len(queries), "agreed": agreed, "disagreements": disagreements[:5]}


if __name__ == "__main__":
    print(json.dumps(run(int(sys.argv[1]))))
