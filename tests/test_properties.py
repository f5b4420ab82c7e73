"""Property tests: random admissible queries held against the fusion oracle.

The exhaustive sweeps in test_acceptance.py stop at n = 6; these draw
from 7 <= n <= 9, where the kernel visits only the subsets containing 0.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vicalc.engine import (  # noqa: E402
    CONVENTIONS,
    InvariantQuery,
    check_admissible,
    monomial_weight,
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
            e, rest = divmod(required_weight(q) - monomial_weight(q), n)
            if not rest:
                out.append(replace(q, e=e))
    return out


queries = st.tuples(
    st.integers(7, 9), st.sampled_from((2, 3)), st.integers(0, 3), st.sampled_from(CONVENTIONS),
).flatmap(lambda shape: st.sampled_from(admissible(*shape)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(queries)
def test_kernel_matches_the_oracle_beyond_the_sweeps(query):
    assert check_admissible(query)
    result = vi_invariant(query)
    assert result.value == oracle_value(query), query
    assert result.integral
