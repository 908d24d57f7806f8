"""Property tests drawn by hypothesis (a test-only dependency)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# On a failing example hypothesis's pytest plugin imports libcst, which
# warns about mypy_extensions.TypedDict; under filterwarnings = error that
# warning would abort the whole test run instead of reporting the failure.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

from test_linalg import assert_prefixes_match_per_size  # noqa: E402

# zero is drawn often enough that many examples have a vanishing leading
# minor with nonzero minors after it, and many have none
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # a multiple of an earlier row: the whole matrix is singular
        r = draw(st.integers(min_value=1, max_value=n - 1))
        s = draw(st.integers(min_value=0, max_value=r - 1))
        c = draw(ENTRY)
        rows[r] = [c * v for v in rows[s]]
    return rows


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(rational_matrices())
def test_prefix_logdets_match_per_size_on_random_matrices(rows):
    assert_prefixes_match_per_size(rows)
