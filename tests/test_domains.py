import math

import numpy as np
import pytest

from polyalab import (
    Circle,
    DiscreteMeasure,
    Disk,
    FiniteSet,
    Interval,
    ProductSet,
    interval_family,
)
from polyalab.domains import gauss_lobatto_points

from boxes import SampledFiniteSet, box, set_id
import per_point_oracles


ALL_SETS = [
    Interval(-1.0, 1.0),
    Interval(0.0, 3.5),
    Circle(0.0, 1.0),
    Circle(0.5 + 0.5j, 2.0),
    Disk(0.0, 1.5),
    box(((-1.0, 1.0), (0.0, 2.0))),
    ProductSet((Interval(-1.0, 1.0), Circle(0.0, 1.0))),
    SampledFiniteSet(((0.0,), (1.0,), (0.5,))),
]


@pytest.mark.parametrize("kset", ALL_SETS, ids=set_id)
def test_samples_belong_to_the_set(kset):
    rng = np.random.default_rng(0)
    pts = kset.sample(rng, 40)
    assert pts.shape == (40, kset.dim)
    for p in pts:
        assert kset.contains(p)


@pytest.mark.parametrize("kset", ALL_SETS, ids=set_id)
def test_grid_points_belong_to_the_set(kset):
    pts = kset.grid(5)
    assert pts.ndim == 2 and pts.shape[1] == kset.dim
    for p in pts:
        assert kset.contains(p)


@pytest.mark.parametrize(
    "kset",
    [
        box(((-1.0, 1.0), (0.0, 2.0))),
        ProductSet((Interval(-1.0, 1.0), Circle(0.0, 1.0))),
        ProductSet((Disk(0.0, 1.5), Interval(0.0, 3.5), Circle(0.5 + 0.5j, 2.0))),
    ],
    ids=["Box", "interval-x-circle", "disk-x-interval-x-circle"],
)
def test_product_grid_matches_the_meshgrid_construction(kset):
    assert kset.grid(9).tobytes() == per_point_oracles.product_grid(kset, 9).tobytes()


@pytest.mark.parametrize("kset", ALL_SETS + [
    ProductSet((Disk(0.0, 1.5), Interval(0.0, 3.5), Circle(0.5 + 0.5j, 2.0)))
], ids=set_id)
@pytest.mark.parametrize("per_axis, size", [(9, 1), (9, 7), (9, 2000), (37, 100)])
def test_grid_blocks_are_the_grid_in_order(kset, per_axis, size):
    blocks = list(kset.grid_blocks(per_axis, size))
    whole = kset.grid(per_axis)
    assert all(len(b) == size for b in blocks[:-1]) and 1 <= len(blocks[-1]) <= size
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "per_axis, rings, total",
    [(1, 2, 25), (4, 2, 25), (64, 4, 81), (128, 6, 169), (256, 8, 289), (4096, 32, 4225)],
)
def test_disk_grid_lays_about_per_axis_points(per_axis, rings, total):
    disk = Disk(0.5 - 2j, 3.0)
    pts = disk.grid(per_axis)[:, 0]
    assert pts.shape == (total,) == (1 + 4 * rings * (rings + 1),)
    assert pts[0] == disk.center
    # ring q holds 8q points at radius 3q/R; the last ring is the boundary
    dist = np.abs(pts - disk.center)
    start = 1
    for q in range(1, rings + 1):
        ring = dist[start : start + 8 * q]
        assert np.allclose(ring, disk.radius * q / rings, rtol=1e-14)
        start += 8 * q
    assert np.isclose(dist[-8 * rings:], disk.radius, rtol=1e-15, atol=0).all()
    assert all(disk.contains(p) for p in pts[-8 * rings:])


@pytest.mark.parametrize("kset", ALL_SETS, ids=set_id)
def test_projection_lands_on_the_set(kset):
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(20, kset.dim)) + 1j * rng.normal(size=(20, kset.dim))
    projected = kset.project(raw)
    assert projected.shape == raw.shape
    for p in projected:
        assert kset.contains(p, tol=1e-7)


def test_projection_fixes_members():
    iv = Interval(-1.0, 1.0)
    assert iv.project([[0.3]])[0, 0] == pytest.approx(0.3)
    disk = Disk(0.0, 1.0)
    assert disk.project([[0.2 + 0.1j]])[0, 0] == pytest.approx(0.2 + 0.1j)
    circ = Circle(0.0, 1.0)
    w = circ.project([[3.0 + 4.0j]])[0, 0]
    assert abs(w) == pytest.approx(1.0)
    assert w == pytest.approx((3.0 + 4.0j) / 5.0)
    # a batch is (n, dim); a bare point is rejected rather than guessed at
    with pytest.raises(ValueError, match="shape"):
        iv.project(0.3)


def test_membership_tolerances():
    iv = Interval(-1.0, 1.0)
    assert iv.contains(1.0)
    assert not iv.contains(1.1)
    assert not iv.contains(0.5 + 0.1j)
    assert iv.contains(1.0 + 1e-12j)
    # the band is round: 1 + 1e-9 + 1e-9j lies 1.41e-9 from [-1, 1], though
    # each axis alone is within tol
    assert iv.contains(1 + 0.9e-9) and iv.contains(1 + 0.9e-9j)
    assert not iv.contains(1 + 0.9e-9 + 0.9e-9j)
    assert iv.contains(1 + 1e-9 + 1e-9j) is False
    assert iv.contains(1 + 1e-9 + 1e-9j, tol=1.5e-9) is True
    circ = Circle(0.0, 1.0)
    assert circ.contains(1.0j)
    assert not circ.contains(0.9j)
    disk = Disk(0.0, 1.0)
    assert disk.contains(0.9j)
    assert not disk.contains(1.2)
    # a coordinate's tolerance is tol * max(1, |its projection|): 0.1 at 1e8 + 1
    far = Circle(1e8, 1.0)
    assert far.contains(1e8 + 1.05)
    assert not far.contains(1e8 + 1.2)
    # the small coordinate keeps its own tolerance beside the large one
    mixed = ProductSet((Interval(-1.0, 1.0), Circle(1e8, 1.0)))
    assert mixed.contains([1.0, 1e8 + 1.0])
    assert not mixed.contains([1.0 + 1e-6, 1e8 + 1.0])
    # below size 1 the tolerance is tol itself
    small = Circle(0.0, 1e-3)
    assert small.contains(1e-3 + 0.9e-9) and not small.contains(1e-3 + 2e-9)


@pytest.mark.parametrize("kset", ALL_SETS, ids=set_id)
def test_membership_takes_one_point_of_the_set_dimension(kset):
    with pytest.raises(ValueError, match=f"point has dimension {kset.dim + 1}, set has dimension"):
        kset.contains(np.zeros(kset.dim + 1))


def test_reality_flags():
    assert Interval(-1.0, 1.0).is_real
    assert box(((-1.0, 1.0),)).is_real
    assert not Circle(0.0, 1.0).is_real
    assert not Disk(0.0, 1.0).is_real
    assert ProductSet((Interval(0.0, 1.0), Interval(0.0, 1.0))).is_real
    assert not ProductSet((Interval(0.0, 1.0), Circle(0.0, 1.0))).is_real
    assert FiniteSet(((0.0,), (2.0,))).is_real
    assert not FiniteSet(((1.0j,),)).is_real


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Interval(-math.inf, 1.0),
        lambda: Interval(0.0, math.nan),
        lambda: Circle(0.0, math.nan),
        lambda: Circle(complex(math.inf, 0.0), 1.0),
        lambda: Disk(0.0, math.inf),
        lambda: Disk(math.nan, 1.0),
        lambda: FiniteSet(((math.inf,),)),
        lambda: FiniteSet(((0.0, 1.0), (complex(0.0, math.nan), 2.0))),
        lambda: DiscreteMeasure(((math.nan,),), (1,)),
    ],
    ids=["interval-inf", "interval-nan", "circle-nan", "circle-centre-inf", "disk-inf",
         "disk-centre-nan", "finite-set-inf", "finite-set-nan", "discrete-measure-nan"],
)
def test_non_finite_parameters_are_rejected(make):
    with pytest.raises(ValueError, match="inf|finite"):
        make()


def test_empty_product_is_rejected():
    with pytest.raises(ValueError, match="at least one factor"):
        ProductSet(())


def test_finite_set_takes_a_scalar_as_a_one_coordinate_point():
    assert FiniteSet((0.5, (1j,))).points == ((0.5 + 0j,), (1j,))
    with pytest.raises(ValueError, match="mixed"):
        FiniteSet(((0.0,), (1.0, 2.0)))


def test_gauss_lobatto_structure():
    for count in (2, 3, 5, 9):
        nodes = gauss_lobatto_points(count, -1.0, 1.0)
        assert len(nodes) == count
        assert nodes[0] == pytest.approx(-1.0)
        assert nodes[-1] == pytest.approx(1.0)
        assert np.all(np.diff(nodes) > 0)
        # symmetric about the midpoint
        assert np.allclose(nodes + nodes[::-1], 0.0, atol=1e-12)
    for a, b in ((-1.0, 1.0), (-0.5, 0.5), (0.0, 2.0), (-1.5, 1.5)):
        assert gauss_lobatto_points(2, a, b).tobytes() == np.array([a, b]).tobytes()
    shifted = gauss_lobatto_points(4, 0.0, 2.0)
    base = gauss_lobatto_points(4, -1.0, 1.0)
    assert np.allclose(shifted, 1.0 + base)


def test_gauss_lobatto_three_point_closed_form():
    assert np.allclose(gauss_lobatto_points(3), [-1.0, 0.0, 1.0])
    # count 5: interior nodes at +-sqrt(3/7)
    n5 = gauss_lobatto_points(5)
    assert n5[1] == pytest.approx(-math.sqrt(3.0 / 7.0))


def test_circle_reference_points_are_equally_spaced():
    circ = Circle(1.0 + 0.0j, 2.0)
    ref = circ.reference_points(6)
    assert ref.shape == (6, 1)
    for p in ref:
        assert circ.contains(p)
    angles = np.sort(np.mod(np.angle(ref[:, 0] - 1.0), 2 * math.pi))
    assert np.allclose(np.diff(angles), 2 * math.pi / 6)


def test_interval_family_outer_and_inner():
    fam = interval_family(-1.0, 1.0, side="outer")
    assert fam.direction == "outer"
    k2 = fam.member(2)
    assert (k2.a, k2.b) == (-1.5, 1.5)
    assert fam.limit == Interval(-1.0, 1.0)

    inner = interval_family(-1.0, 1.0, side="inner", rate=2.0)
    k4 = inner.member(4)
    assert (k4.a, k4.b) == (-1.0 + 1 / 16, 1.0 - 1 / 16)
    with pytest.raises(ValueError, match="degenerates"):
        inner.member(1)


def test_interval_family_rate_controls_speed():
    slow = interval_family(0.0, 1.0, side="outer", rate=1.0).member(4)
    fast = interval_family(0.0, 1.0, side="outer", rate=2.0).member(4)
    assert slow.b - slow.a > fast.b - fast.a


def test_family_index_starts_at_one():
    fam = interval_family(0.0, 1.0)
    with pytest.raises(ValueError):
        fam.member(0)


def test_family_validation():
    with pytest.raises(ValueError):
        interval_family(0.0, 1.0, side="sideways")
    with pytest.raises(ValueError):
        interval_family(0.0, 1.0, rate=0.0)
    # rejected when the family is built, not at its first member
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        interval_family(0.0, 1.0, rate=math.nan)


def test_product_and_box_dims():
    assert box(((-1.0, 1.0), (0.0, 2.0), (3.0, 4.0))).dim == 3
    prod = ProductSet((Interval(0.0, 1.0), Interval(0.0, 1.0)))
    assert prod.dim == 2
    assert FiniteSet(((0.0, 1.0),)).dim == 2
