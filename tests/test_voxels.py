import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastpoint.config import toy_config
from fastpoint.kitti import PointCloud, crop_to_range
from fastpoint.synthetic import generate_dataset
from fastpoint.voxels import (PointOutOfRange, VoxelSpec, dump_grid, load_grid,
                              slot_counts, to_dense, voxelize)

SPEC = VoxelSpec(((0.0, 70.4), (-40.0, 40.0), (-3.0, 1.0)), (0.1, 0.1, 0.2), 6)


def small_spec(cap=3):
    return VoxelSpec(((0.0, 2.0), (0.0, 2.0), (0.0, 1.0)), (1.0, 1.0, 0.5), cap)


def stored_points(grid, key):
    """The stored (n, 4) points of the voxel at index `key`."""
    v = np.flatnonzero(np.all(grid.coords == key, axis=1))
    assert len(v) == 1, f"voxel {key} not in grid"
    return grid.points[v[0], :grid.stored[v[0]]]


# ------------------------------------------------- dict reference voxelizer
def voxel_index(pts, spec):
    """(N, 3) voxel index of each point, by voxelize's clamped rule."""
    idx = np.floor((pts[:, :3] - spec.mins) / np.asarray(spec.voxel_size)).astype(np.int64)
    return np.minimum(idx, np.array(spec.dims) - 1)


def precap_counts(pts, spec):
    """Occupied voxel indices in ascending order, and the points in each
    before capping."""
    return np.unique(voxel_index(pts, spec), axis=0, return_counts=True)


def reference_voxelize(pts, spec, seed):
    """Per-voxel dict voxelizer: voxel index -> stored points. A voxel
    within the cap keeps its points in input order. A voxel over the cap
    sorts its points by coordinates, gives each a uniform draw (voxels in
    index order, one seeded stream), and keeps the cap lowest draws."""
    idx = np.floor((pts[:, :3] - spec.mins) / np.asarray(spec.voxel_size)).astype(np.int64)
    order = {}
    for i, key in enumerate(map(tuple, idx)):
        order.setdefault(key, []).append(i)
    rng = np.random.default_rng(seed)
    stored = {}
    cap = spec.max_points_per_voxel
    for key in sorted(order):
        sel = pts[order[key]]
        if len(sel) > cap:
            sel = sel[np.lexsort(sel.T)]
            draws = [rng.random() for _ in range(len(sel))]
            sel = sel[np.argsort(draws, kind="stable")[:cap]]
        center = spec.mins + (np.asarray(key) + 0.5) * np.asarray(spec.voxel_size)
        out = sel.copy()
        out[:, :3] = sel[:, :3] - center
        stored[key] = out
    return stored


def assert_matches_reference(grid, pts, spec, seed):
    ref = reference_voxelize(pts, spec, seed)
    assert [tuple(k) for k in grid.coords.tolist()] == list(ref)
    for v, key in enumerate(ref):
        n = grid.stored[v]
        assert n == len(ref[key])
        assert grid.points[v, :n].tobytes() == ref[key].tobytes()
        assert not np.any(grid.points[v, n:])


def dense_scene():
    cfg = toy_config()
    cfg.synthetic.clutter_points = 20000
    cfg.synthetic.surface_points = (1500, 2250)
    return cfg, generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 1, 5)[0]


def test_voxelize_matches_dict_reference_toy():
    cfg = toy_config()
    for _, pc, _ in generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 3, 4):
        grid = voxelize(pc, cfg.voxel_spec(), seed=9)
        assert_matches_reference(grid, pc.points, cfg.voxel_spec(), 9)


def test_voxelize_matches_dict_reference_overflowing():
    cfg, (_, pc, _) = dense_scene()
    grid = voxelize(pc, cfg.voxel_spec(), seed=3)
    assert np.sum(precap_counts(pc.points, grid.spec)[1] > grid.spec.max_points_per_voxel) > 100
    assert_matches_reference(grid, pc.points, cfg.voxel_spec(), 3)
    rng = np.random.default_rng(12)
    pts = np.hstack([rng.uniform(0.0, 1.999, size=(300, 3)) * [1, 1, 0.5],
                     rng.uniform(size=(300, 1))])
    assert_matches_reference(voxelize(PointCloud(pts), small_spec(4), seed=2),
                             pts, small_spec(4), 2)


# ----------------------------------------------------------- index rule
def test_spec_dims_full_scale():
    assert SPEC.dims == (704, 800, 20)


def test_spec_rejects_indivisible_extent():
    with pytest.raises(ValueError):
        VoxelSpec(((0.0, 1.05), (0.0, 1.0), (0.0, 1.0)), (0.1, 0.1, 0.5), 6)


def test_spec_rejects_zero_cap():
    with pytest.raises(ValueError):
        VoxelSpec(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (0.5, 0.5, 0.5), 0)


@pytest.mark.parametrize("size", [(-0.5, 0.5, 0.5), (0.5, 0.0, 0.5)], ids=["negative", "zero"])
def test_spec_rejects_non_positive_voxel_size(size):
    axis = "xyz"[int(np.flatnonzero(np.array(size) <= 0)[0])]
    with pytest.raises(ValueError, match=f"{axis} voxel size"):
        VoxelSpec(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), size, 6)


def test_spec_rejects_inverted_range():
    with pytest.raises(ValueError, match=r"z range \(1.0, 0.0\)"):
        VoxelSpec(((0.0, 1.0), (0.0, 1.0), (1.0, 0.0)), (0.5, 0.5, 0.5), 6)


@pytest.mark.parametrize("axis_range, size, field", [
    (((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (0.5, 0.5), "voxel_size"),
    (((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (0.5, 0.5, 0.5, 0.5), "voxel_size"),
    (((0.0, 1.0), (0.0, 1.0)), (0.5, 0.5, 0.5), "axis_range"),
], ids=["two sizes", "four sizes", "two ranges"])
def test_spec_rejects_other_than_three_axes(axis_range, size, field):
    with pytest.raises(ValueError, match=f"{field} .* must have three axes"):
        VoxelSpec(axis_range, size, 6)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_range_bound(bound):
    with pytest.raises(ValueError, match="y range .* must have finite bounds"):
        VoxelSpec(((0.0, 1.0), (-1.0, bound), (0.0, 1.0)), (0.5, 0.5, 0.5), 6)


def test_spec_rejects_fractional_cap():
    with pytest.raises(ValueError, match="max_points_per_voxel 2.5 must be an integer"):
        VoxelSpec(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (0.5, 0.5, 0.5), 2.5)


def test_point_to_voxel_index_floor_convention():
    pc = PointCloud(np.array([[35.2, 0.0, -1.0, 0.5]]))
    grid = voxelize(pc, SPEC, seed=0)
    assert grid.coords.tolist() == [[352, 400, 10]]


def test_boundary_point_lands_in_lower_voxel_of_next_cell():
    # a coordinate exactly on an interior voxel edge belongs to the upper cell
    pc = PointCloud(np.array([[1.0, 0.5, 0.25, 0.0]]))
    grid = voxelize(pc, small_spec(), seed=0)
    assert grid.coords.tolist() == [[1, 0, 0]]


def test_out_of_range_point_raises():
    with pytest.raises(PointOutOfRange):
        voxelize(PointCloud(np.array([[-0.1, 0.0, 0.5, 0.0]])), small_spec(), seed=0)
    with pytest.raises(PointOutOfRange):
        voxelize(PointCloud(np.array([[2.0, 0.0, 0.5, 0.0]])), small_spec(), seed=0)


def test_point_just_below_upper_edge_goes_to_last_cell():
    # (nextafter(6.4, 0) + 6.4) / 0.2 rounds to 64.0: floor alone gives index dims
    cfg = toy_config()
    y_hi, z_hi = cfg.voxel_range[1][1], cfg.voxel_range[2][1]
    pts = np.array([[1.0, math.nextafter(y_hi, 0.0), 0.0, 0.0],
                    [1.0, 0.0, math.nextafter(z_hi, 0.0), 0.0]])
    pc = crop_to_range(PointCloud(pts), np.array(cfg.voxel_range))
    assert len(pc) == 2
    grid = voxelize(pc, cfg.voxel_spec(), seed=0)
    nx, ny, nz = cfg.voxel_spec().dims
    assert sorted(grid.coords.tolist()) == [[5, 32, nz - 1], [5, ny - 1, 15]]


def _edge_coordinate(lo, hi):
    return st.one_of(
        st.sampled_from([lo, hi, math.nextafter(hi, lo), math.nextafter(lo, hi),
                         math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]),
        st.floats(lo - 1.0, hi + 1.0))


@st.composite
def _edge_clouds(draw):
    (x0, x1), (y0, y1), (z0, z1) = toy_config().voxel_range
    n = draw(st.integers(1, 20))
    return np.array([[draw(_edge_coordinate(x0, x1)), draw(_edge_coordinate(y0, y1)),
                      draw(_edge_coordinate(z0, z1)), 0.5] for _ in range(n)])


@given(_edge_clouds())
@settings(max_examples=300, deadline=None)
def test_every_cropped_point_is_voxelizable(pts):
    cfg = toy_config()
    spec = cfg.voxel_spec()
    kept = crop_to_range(PointCloud(pts), np.array(cfg.voxel_range))
    grid = voxelize(kept, spec, seed=0)
    coords, counts = precap_counts(kept.points, spec)
    assert np.array_equal(grid.coords, coords)
    assert np.array_equal(grid.stored, np.minimum(counts, spec.max_points_per_voxel))
    assert np.all((grid.coords >= 0) & (grid.coords < np.array(spec.dims)))
    if len(kept) < len(pts):
        with pytest.raises(PointOutOfRange):
            voxelize(PointCloud(pts), spec, seed=0)


# ------------------------------------------------------------ grid contents
def test_offsets_are_relative_to_voxel_center():
    pc = PointCloud(np.array([[0.25, 0.75, 0.2, 0.9]]))
    grid = voxelize(pc, small_spec(), seed=0)
    stored = stored_points(grid, (0, 0, 0))
    assert np.allclose(stored[0], [0.25 - 0.5, 0.75 - 0.5, 0.2 - 0.25, 0.9])


def test_overflow_subsample_is_capped_and_counts_track_precap():
    rng = np.random.default_rng(0)
    pts = np.hstack([rng.uniform(0.0, 0.999, size=(10, 3)) * [1, 1, 0.5],
                     rng.uniform(size=(10, 1))])
    grid = voxelize(PointCloud(pts), small_spec(cap=3), seed=7)
    assert precap_counts(pts, small_spec())[1].tolist() == [10]
    assert grid.stored.tolist() == [3]
    assert len(stored_points(grid, (0, 0, 0))) == 3


def test_overflowing_voxels_keep_cap_distinct_points_of_their_own():
    cfg, (_, pc, _) = dense_scene()
    spec = cfg.voxel_spec()
    cap = spec.max_points_per_voxel
    pts = pc.points
    assert len(np.unique(pts, axis=0)) == len(pts)
    grid = voxelize(pc, spec, seed=3)
    shuffled = voxelize(PointCloud(pts[np.random.default_rng(0).permutation(len(pts))]),
                        spec, seed=3)
    coords, counts = precap_counts(pts, spec)
    idx = voxel_index(pts, spec)
    over = np.flatnonzero(counts > cap)
    assert len(over) > 100 and np.all(grid.stored[over] == cap)
    for v in over:
        own = pts[np.all(idx == coords[v], axis=1)].copy()
        own[:, :3] -= spec.mins + (coords[v] + 0.5) * np.asarray(spec.voxel_size)
        kept = set(map(tuple, grid.points[v]))
        assert len(kept) == cap
        assert kept <= set(map(tuple, own))
        assert kept == set(map(tuple, shuffled.points[v]))


def test_each_point_of_an_overflowing_voxel_is_kept_with_frequency_cap_over_count():
    # reflectance i / 10 names point i of one 10-point voxel with cap 3
    rng = np.random.default_rng(8)
    pts = np.hstack([rng.uniform(0.0, 0.999, size=(10, 3)) * [1, 1, 0.5],
                     np.arange(10)[:, None] / 10])
    n_seeds, cap = 4000, 3
    kept = np.zeros(10)
    for seed in range(n_seeds):
        ids = np.rint(voxelize(PointCloud(pts), small_spec(cap), seed).points[0, :, 3] * 10)
        assert len(set(ids)) == cap
        kept[ids.astype(int)] += 1
    share = cap / 10
    std_err = math.sqrt(share * (1 - share) / n_seeds)
    assert np.all(np.abs(kept / n_seeds - share) < 4 * std_err)


def test_subsample_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(1)
    pts = np.hstack([rng.uniform(0.0, 0.999, size=(30, 3)) * [1, 1, 0.5],
                     rng.uniform(size=(30, 1))])
    pc = PointCloud(pts)
    a = voxelize(pc, small_spec(cap=3), seed=5)
    b = voxelize(pc, small_spec(cap=3), seed=5)
    c = voxelize(pc, small_spec(cap=3), seed=6)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_subsample_independent_of_input_order():
    rng = np.random.default_rng(2)
    pts = np.hstack([rng.uniform(0.0, 1.999, size=(60, 3)) * [1, 1, 0.5],
                     rng.uniform(size=(60, 1))])
    a = voxelize(PointCloud(pts), small_spec(cap=4), seed=3)
    b = voxelize(PointCloud(pts[::-1]), small_spec(cap=4), seed=3)
    assert np.array_equal(a.coords, b.coords)
    for v in range(len(a.coords)):
        sa = a.points[v][np.lexsort(a.points[v].T)]
        sb = b.points[v][np.lexsort(b.points[v].T)]
        assert np.allclose(sa, sb)


def test_encoder_inputs_are_the_grid_arrays():
    rng = np.random.default_rng(3)
    pts = np.hstack([rng.uniform(0.0, 1.999, size=(40, 3)) * [1, 1, 0.5],
                     rng.uniform(size=(40, 1))])
    grid = voxelize(PointCloud(pts), small_spec(cap=3), seed=0)
    assert to_dense(grid).shape == (len(grid.coords), 3, 4)
    assert np.array_equal(slot_counts(grid), np.minimum(precap_counts(pts, small_spec())[1], 3))


def test_empty_cloud_gives_empty_grid():
    grid = voxelize(PointCloud(np.zeros((0, 4))), small_spec(), seed=0)
    assert grid.coords.shape == (0, 3)
    assert to_dense(grid).shape == (0, 3, 4)
    assert slot_counts(grid).shape == (0,)


# --------------------------------------------------------------- dump file
def test_dump_load_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    pts = np.hstack([rng.uniform(0.0, 1.999, size=(25, 3)) * [1, 1, 0.5],
                     rng.uniform(size=(25, 1))])
    grid = voxelize(PointCloud(pts), small_spec(cap=4), seed=1)
    p = tmp_path / "g.voxels"
    dump_grid(p, grid)
    back = load_grid(p)
    assert back.spec == grid.spec
    assert np.array_equal(back.coords, grid.coords)
    assert np.array_equal(back.stored, grid.stored)
    assert back.points.tobytes() == grid.points.tobytes()


def _dump_sha256(grid, tmp_path):
    p = tmp_path / "g.voxels"
    dump_grid(p, grid)
    return hashlib.sha256(p.read_bytes()).hexdigest()


def test_dump_bytes_pinned(tmp_path):
    # the toy scene has no voxel over the cap, and its digest is the dict-based
    # voxelizer's; the dense scene's digest is of the key-per-point subsample
    cfg = toy_config()
    _, pc, _ = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 1, cfg.seed)[0]
    assert _dump_sha256(voxelize(pc, cfg.voxel_spec(), seed=cfg.seed), tmp_path) == (
        "2b4d94c4d5790bff091583aaef8f0f0c716ddfe744f117e8aca75d64c722bb09")
    cfg, (_, pc, _) = dense_scene()
    assert _dump_sha256(voxelize(pc, cfg.voxel_spec(), seed=3), tmp_path) == (
        "e119ced07188a4b61a603a6ce95c419acb37e90a767c017de25609562a8f4e4f")


def test_load_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_grid(p)


def small_dump(tmp_path):
    rng = np.random.default_rng(4)
    pts = np.hstack([rng.uniform(0.0, 1.999, size=(25, 3)) * [1, 1, 0.5],
                     rng.uniform(size=(25, 1))])
    p = tmp_path / "g.voxels"
    dump_grid(p, voxelize(PointCloud(pts), small_spec(cap=4), seed=1))
    return p


def test_load_rejects_dump_cut_short(tmp_path):
    p = small_dump(tmp_path)
    raw = p.read_bytes()
    # inside the records; inside the header; a header counting 2^44 voxels
    for dump in (raw[:len(raw) // 2], raw[:30], raw[:96] + (2 ** 44).to_bytes(8, "little")):
        p.write_bytes(dump)
        with pytest.raises(ValueError, match="cut short"):
            load_grid(p)


def test_load_rejects_dims_that_disagree_with_range(tmp_path):
    p = small_dump(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[8:12] = (7).to_bytes(4, "little")      # first of the three header dims
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="dims"):
        load_grid(p)


def test_load_names_the_file_when_its_header_spec_is_impossible(tmp_path):
    p = small_dump(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[68:76] = struct.pack("<d", -1.0)       # x voxel size
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="g.voxels: x voxel size -1.0"):
        load_grid(p)


# the first record starts after a 104-byte header: index (3 x u32), then n (u32)
def test_load_rejects_record_index_outside_dims(tmp_path):
    p = small_dump(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[104:108] = (99).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"g.voxels: record 0 holds index \(99, "):
        load_grid(p)


@pytest.mark.parametrize("n", [0, 5], ids=["empty", "over cap"])
def test_load_rejects_record_point_count_outside_one_to_cap(tmp_path, n):
    p = small_dump(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[116:120] = n.to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"g.voxels: record 0 .* and {n} points"):
        load_grid(p)


def test_load_rejects_bytes_after_the_last_record(tmp_path):
    p = small_dump(tmp_path)
    p.write_bytes(p.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="g.voxels: 8 bytes follow the last"):
        load_grid(p)
