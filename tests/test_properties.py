"""Property tests drawn by hypothesis (a test-only dependency)."""

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# On a failing example hypothesis's pytest plugin imports libcst, which
# warns about mypy_extensions.TypedDict; under filterwarnings = error that
# warning would abort the whole test run instead of reporting the failure.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

import brute_force_oracles  # noqa: E402
from boxes import box, set_id  # noqa: E402
from per_point_oracles import hankel_matrix_entries, project_each  # noqa: E402
from polyalab import (  # noqa: E402
    Circle,
    ConfigError,
    Disk,
    ExperimentConfig,
    FiniteSet,
    Interval,
    ProductSet,
    ReportRow,
    coeffs_from_table,
    count_at_most,
    enumeration_for,
    hankel_matrix,
    rows_to_csv_text,
)
from polyalab import linalg  # noqa: E402
from polyalab.domains import MEMBERSHIP_TOL  # noqa: E402
from polyalab.experiments import EXPERIMENT_KINDS  # noqa: E402
from polyalab.linalg import exact_ldl, exact_logdet, exact_prefix_logdets  # noqa: E402
from polyalab.reporting import CSV_COLUMNS  # noqa: E402
from test_linalg import assert_prefixes_match_per_size  # noqa: E402
from test_multiindex import assert_matches_broadcast_form  # noqa: E402

# large powers of two, a large prime and their products, alone or times a
# small factor: mirrored entries often have unequal denominators that do
# not factor over small primes, which the exact routes' symmetric scaling
# must clear without factoring
LARGE = st.sampled_from([2**20, 2**41, 1_000_003, 2**20 * 1_000_003, 2**41 * 1_000_003])
DENOMINATOR = st.one_of(
    st.integers(1, 12),
    LARGE,
    st.builds(lambda small, large: small * large, st.integers(1, 12), LARGE),
)
# zero is drawn often enough that many examples have a vanishing leading
# minor with nonzero minors after it, and many have none
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), DENOMINATOR),
)


@st.composite
def rational_matrices(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
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


@st.composite
def spd_rational_matrices(draw, min_size=0, max_size=6):
    """B B^T + I for a small rational B: symmetric positive definite."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    b = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    return [
        [sum(b[i][k] * b[j][k] for k in range(n)) + (i == j) for j in range(n)]
        for i in range(n)
    ]


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(spd_rational_matrices())
def test_exact_ldl_is_the_fraction_oracle_on_random_spd_matrices(rows):
    lower, diag = brute_force_oracles.exact_ldl(rows)
    assert exact_ldl(rows) == (brute_force_oracles.unit_lower_inverse(lower), diag)


def block_diagonal(blocks, perm):
    """The block-diagonal matrix of the square blocks, index i moved to perm[i]."""
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                rows[perm[offset + i]][perm[offset + j]] = v
        offset += len(block)
    return rows


@st.composite
def permuted_block_matrices(draw, blocks):
    """Drawn blocks on the diagonal, under a random permutation of the indices.

    A block of size 1 is a singleton class; a block with zeros of its own
    splits further.
    """
    drawn = draw(st.lists(blocks, min_size=1, max_size=4))
    return block_diagonal(drawn, draw(st.permutations(range(sum(len(b) for b in drawn)))))


# classes interleaved by the permutation; the class of index 0 has leading
# minor 0, so every size falls back to pivoted elimination
ZERO_FIRST_MINOR = block_diagonal(
    [[[0, 1], [1, 0]], [[2]], [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]], [3, 0, 1, 4, 2]
)
# the class of indices 0 and 3 is singular at size 2, that of 1 and 2
# indefinite at size 2: the first pivot rejected is index 2, in the later class
LATE_AND_EARLY_FAILURES = block_diagonal([[[1, 1], [1, 1]], [[2, 1], [1, -1]]], [0, 3, 1, 2])


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(permuted_block_matrices(rational_matrices(max_size=4)))
@hypothesis.example(ZERO_FIRST_MINOR)
@hypothesis.example(LATE_AND_EARLY_FAILURES)
def test_split_determinants_are_the_unsplit_elimination(rows):
    assert exact_logdet(rows) == brute_force_oracles.unsplit_logdet(rows)
    assert exact_prefix_logdets(rows) == brute_force_oracles.unsplit_prefix_logdets(rows)


# two interleaved classes: one of size 3 with leading minors 0, -1 and 2,
# holding index 0, and one of size 4, a chain with no zero minor
TWO_CLASSES_ONE_ZERO = block_diagonal(
    [
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        [
            [Fraction(1, 2), Fraction(1, 3), 0, 0],
            [Fraction(1, 3), 1, Fraction(1, 4), 0],
            [0, Fraction(1, 4), 2, Fraction(1, 5)],
            [0, 0, Fraction(1, 5), 3],
        ],
    ],
    [0, 2, 5, 1, 3, 4, 6],
)


@pytest.mark.parametrize(
    "rows",
    [ZERO_FIRST_MINOR, LATE_AND_EARLY_FAILURES, TWO_CLASSES_ONE_ZERO],
    ids=["zero-first-minor", "late-and-early-failures", "two-classes-one-zero"],
)
def test_prefix_pass_past_a_zero_minor_needs_no_whole_matrix_elimination(monkeypatch, rows):
    def refuse(_):
        raise AssertionError("exact_logdet called")

    monkeypatch.setattr(linalg, "exact_logdet", refuse)
    assert exact_prefix_logdets(rows) == brute_force_oracles.unsplit_prefix_logdets(rows)


def test_a_zero_minor_re_eliminates_only_its_own_class(monkeypatch):
    steps = []
    step = linalg._bareiss_step

    def counted(a, k, prev, symmetric):
        steps.append((len(a), k))
        step(a, k, prev, symmetric)

    monkeypatch.setattr(linalg, "_bareiss_step", counted)
    exact_prefix_logdets(TWO_CLASSES_ONE_ZERO)
    # the size-3 class: its zero first pivot takes no step, then its blocks
    # of sizes 2 and 3 are eliminated alone, one step per pivot; the size-4
    # class: one pass
    assert steps == [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3)]


@st.composite
def symmetric_rational_matrices(draw, max_size=4):
    n = draw(st.integers(min_value=1, max_value=max_size))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(ENTRY)
    return rows


def _ldl_or_rejected_pivot(factor, rows):
    """factor(rows), or the index of the pivot it rejects."""
    try:
        return factor(rows)
    except ValueError as exc:
        return int(re.search(r"pivot (\d+) ", str(exc)).group(1))


def _oracle_ldl(rows):
    lower, diag = brute_force_oracles.exact_ldl(rows)
    return brute_force_oracles.unit_lower_inverse(lower), diag


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(
    permuted_block_matrices(
        st.one_of(spd_rational_matrices(min_size=1, max_size=4), symmetric_rational_matrices())
    )
)
@hypothesis.example(ZERO_FIRST_MINOR)
@hypothesis.example(LATE_AND_EARLY_FAILURES)
@hypothesis.example(block_diagonal([[[4, 2], [2, 5]], [[3]], [[1, 0], [0, 2]]], [4, 1, 0, 2, 3]))
def test_split_exact_ldl_is_the_unsplit_factorization(rows):
    assert _ldl_or_rejected_pivot(exact_ldl, rows) == _ldl_or_rejected_pivot(_oracle_ldl, rows)


@st.composite
def symmetric_matrices_with_repeats(draw, max_size=7):
    """Symmetric rational matrices, some with a vanishing leading minor past a nonzero one.

    Row denominators differ, so the scales do.  A mirrored entry is the
    same object or an equal copy.  Sometimes row and column r repeat a
    multiple of an earlier row and column, so every minor from size r + 1 on
    vanishes.
    """
    rows = draw(symmetric_rational_matrices(max_size=max_size))
    n = len(rows)
    for i in range(n):
        for j in range(i):
            if draw(st.booleans()):
                rows[i][j] = Fraction(rows[j][i])
    if n > 1 and draw(st.booleans()):
        r = draw(st.integers(min_value=1, max_value=n - 1))
        s = draw(st.integers(min_value=0, max_value=r - 1))
        c = draw(ENTRY)
        line = [c * v for v in rows[s]]
        line[r] = c * line[s]
        for j, v in enumerate(line):
            rows[r][j] = rows[j][r] = v
    return rows


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(symmetric_matrices_with_repeats())
@hypothesis.example(
    [[1, 1, Fraction(1, 2)], [1, 1, Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3), 4]]
)
def test_one_triangle_elimination_is_the_oracle_on_symmetric_matrices(rows):
    assert linalg._symmetric(rows)  # the one-triangle update runs
    assert exact_prefix_logdets(rows) == brute_force_oracles.unsplit_prefix_logdets(rows)
    assert exact_logdet(rows) == brute_force_oracles.unsplit_logdet(rows)
    assert _ldl_or_rejected_pivot(exact_ldl, rows) == _ldl_or_rejected_pivot(_oracle_ldl, rows)


def _is_config_label(label):
    try:
        ExperimentConfig(experiment="hankel", label=label, seed=0, spec={})
    except ConfigError:
        return False
    return True


FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)
INDEX = st.one_of(st.none(), st.integers(min_value=0, max_value=10**6))
REPORT_ROW = st.builds(
    ReportRow,
    experiment=st.sampled_from(EXPERIMENT_KINDS),
    label=st.text().filter(_is_config_label),
    quantity=st.sampled_from(["log_vdm", "d_s", "bm_ratio", "zscore"]),
    value=FLOAT,
    seed=st.integers(min_value=0, max_value=2**63),
    s=INDEX,
    i=INDEX,
    j=INDEX,
    std_error=st.one_of(st.none(), FLOAT),
)


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.lists(REPORT_ROW, max_size=5))
@hypothesis.example([ReportRow("hankel", 'a,"b"', "d_s", math.nan, 0, s=0, std_error=-math.inf)])
def test_csv_text_survives_a_parse_round_trip(rows):
    header, *records = csv.reader(io.StringIO(rows_to_csv_text(rows)))
    assert tuple(header) == CSV_COLUMNS
    assert len(records) == len(rows)
    label, value = CSV_COLUMNS.index("label"), CSV_COLUMNS.index("value")
    for rec, row in zip(records, rows):
        assert rec[label] == row.label
        cell = float(rec[value])
        assert cell == row.value or (math.isnan(cell) and math.isnan(row.value))


PROJECTION_SETS = [
    Interval(-1.0, 1.0),
    Interval(0.0, 3.5),
    Circle(0.0, 1.0),
    Circle(0.5 + 0.5j, 2.0),
    Disk(0.0, 1.5),
    Disk(1.0j, 0.5),
    box(((-1.0, 1.0), (0.0, 2.0))),
    ProductSet((Interval(-1.0, 1.0), Circle(0.0, 1.0))),
    ProductSet((Disk(0.0, 1.0), Circle(2.0, 0.5))),
    # 0.5 and 1.5 are equidistant from two atoms
    FiniteSet(((0.0,), (1.0,), (2.0,))),
    FiniteSet(((0.0, 0.0), (1.0, 1.0), (1.0j, -1.0))),
]
# centres, atoms, bounds and boundary points, drawn often so that exact
# hits on them (d = 0, ties, clipping at a bound) are common
SPECIAL = st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, 1.5, 1.0j, 0.5 + 0.5j, 2.5 + 0.5j, 1.5j])
COORD = st.floats(-4.0, 4.0)
POINT = st.one_of(SPECIAL, st.builds(complex, COORD, COORD))


@st.composite
def projection_cases(draw):
    kset = draw(st.sampled_from(PROJECTION_SETS))
    n = draw(st.integers(min_value=1, max_value=8))
    values = draw(st.lists(POINT, min_size=n * kset.dim, max_size=n * kset.dim))
    return kset, np.array(values, dtype=complex).reshape(n, kset.dim)


def _case(kset, points):
    return kset, np.array(points, dtype=complex).reshape(-1, kset.dim)


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(projection_cases())
@hypothesis.example(_case(Circle(0.5 + 0.5j, 2.0), [0.5 + 0.5j, 3.0 + 4.0j, 0.5 + 0.5j]))
@hypothesis.example(_case(Circle(0.0, 1.0), [0.0, 1e-300, 1.0, 1.0j, -0.6 + 0.8j]))
@hypothesis.example(_case(Disk(0.0, 1.5), [0.0, 0.3 - 0.4j, 1.5, -1.5j, 3.0 + 4.0j, -2.0]))
@hypothesis.example(_case(FiniteSet(((0.0,), (1.0,), (2.0,))), [0.5, 1.5, 1.0, 0.5 + 0.5j]))
@hypothesis.example(_case(box(((-1.0, 1.0), (0.0, 2.0))), [-1.0, 0.0, 1.0, 2.0, 3.0 + 1j, -0.0]))
@hypothesis.example(
    _case(ProductSet((Interval(-1.0, 1.0), Circle(0.0, 1.0))), [0.3, 0.0, -2.0, 1.0j])
)
def test_batched_projection_is_per_point_projection(case):
    kset, points = case
    got = kset.project(points)
    want = project_each(kset, points)
    assert got.shape == want.shape == points.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kset", PROJECTION_SETS, ids=set_id)
def test_batched_projection_fixes_points_on_the_set(kset):
    on_set = kset.grid(6)
    assert kset.project(on_set).tobytes() == project_each(kset, on_set).tobytes()


TOLERANCE = st.sampled_from([MEMBERSHIP_TOL, 1e-6, 1e-3, 0.25])


@st.composite
def membership_cases(draw):
    """A set, a tolerance, and one point: a grid point nudged by up to 3 tol, or any point."""
    kset = draw(st.sampled_from(PROJECTION_SETS))
    tol = draw(TOLERANCE)
    if draw(st.booleans()):
        grid = kset.grid(6)
        base = grid[draw(st.integers(0, len(grid) - 1))]
        nudge = st.floats(-3 * tol, 3 * tol)
        offset = [complex(draw(nudge), draw(nudge)) for _ in range(kset.dim)]
        point = base + np.array(offset)
    else:
        point = np.array(draw(st.lists(POINT, min_size=kset.dim, max_size=kset.dim)), dtype=complex)
    return kset, tol, point


@hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
@hypothesis.given(membership_cases())
@hypothesis.example((Interval(-1.0, 1.0), MEMBERSHIP_TOL, np.array([1 + 1e-9 + 1e-9j])))
@hypothesis.example((Circle(0.0, 1.0), 0.25, np.array([0.0])))
@hypothesis.example((Disk(1.0j, 0.5), 1e-3, np.array([1.0j + 0.5005])))
@hypothesis.example((Circle(0.5 + 0.5j, 2.0), 1e-3, np.array([0.5 + 0.5j + 2.002])))
def test_membership_is_no_coordinate_moving_past_tol_under_projection(case):
    # a coordinate's tolerance is tol times its projected size, and tol below size 1
    kset, tol, point = case
    projected = kset.project(point.reshape(1, -1))[0]
    within = bool(np.all(np.abs(projected - point) <= tol * np.maximum(1.0, np.abs(projected))))
    assert kset.contains(point, tol) == within
    if kset.dim == 1:  # a one-coordinate point may also be a bare scalar
        assert kset.contains(point[0], tol) == within


# project rounds in proportion to the size of the coordinates it forms,
# past an absolute 1e-9 at size 1e7: a large set, a far-off small one, and
# a product whose coordinates differ in size
LARGE_OR_FAR_SETS = [
    Circle(0.0, 1e7),
    Circle(0.0, 1e8),
    Circle(1e8, 1.0),
    Disk(0.0, 1e7),
    ProductSet((Interval(-1.0, 1.0), Circle(1e8, 1.0))),
]


@pytest.mark.parametrize("kset", PROJECTION_SETS + LARGE_OR_FAR_SETS, ids=set_id)
def test_grid_sample_and_reference_rows_are_members(kset):
    rows = [kset.grid(per_axis) for per_axis in (1, 6, 37, 64)]
    rows += [kset.sample(np.random.default_rng(seed), 50) for seed in range(3)]
    rows += [kset.reference_points(count) for count in range(1, 12)]
    for pts in rows:
        if pts is not None:
            assert all(kset.contains(p) for p in pts)


@st.composite
def monomial_cases(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    npoints = draw(st.integers(min_value=0, max_value=6))
    nbasis = draw(st.integers(min_value=0, max_value=8))
    values = draw(st.lists(POINT, min_size=npoints * dim, max_size=npoints * dim))
    exps = draw(st.lists(st.integers(0, 6), min_size=nbasis * dim, max_size=nbasis * dim))
    return (
        np.array(values, dtype=complex).reshape(npoints, dim),
        np.array(exps, dtype=np.int64).reshape(nbasis, dim),
    )


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(monomial_cases())
def test_monomial_kernel_is_broadcast_product(case):
    assert_matches_broadcast_form(*case)


@st.composite
def table_hankel_cases(draw):
    """A table germ over every index sum of a Hankel matrix's size; some have a complex entry."""
    dim = draw(st.integers(min_value=1, max_value=3))
    size = draw(st.integers(min_value=1, max_value=12))
    top = 2 * enumeration_for(dim).degree_of(size)
    sums = enumeration_for(dim).prefix(count_at_most(dim, top))
    table = {k: draw(ENTRY) for k in sums}
    if draw(st.booleans()):
        # no exact route: the whole matrix is built from the float coefficients
        table[draw(st.sampled_from(sums))] = complex(float(draw(ENTRY)), 1.0)
    return coeffs_from_table(dim, table), size


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(table_hankel_cases())
def test_hankel_matrix_is_its_per_entry_build(case):
    # one evaluation per distinct index sum, looked up for every entry
    germ, size = case
    got, want = hankel_matrix(germ, size), hankel_matrix_entries(germ, size)
    assert got.exact == want.exact
    if want.exact is None:
        assert got.matrix.tobytes() == want.matrix.tobytes()
