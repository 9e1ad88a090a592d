"""Independent oracles and the self-test battery.

These deliberately avoid the production code paths they check: IoU by
Monte-Carlo point sampling, gradients by central finite differences,
suppression and matching by exhaustive reference loops.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry
from .autodiff import Tensor, concat, no_grad
from .geometry import Box3D, BoxBEV
from .nn import (RefinerConfig, RefinerNet, batchnorm_relu, conv_nd, conv_voxels, deconv_nd,
                 segment_max)

FD_STEP = 1e-5   # central-difference step of finite_diff_check


# --------------------------------------------------------------- MC oracle
def mc_iou_bev(a: BoxBEV, b: BoxBEV, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo BEV IoU: sample the joint bounding box, test membership
    in each rotated rectangle analytically."""
    ca, cb = geometry.corners_bev(a), geometry.corners_bev(b)
    lo = np.minimum(ca.min(axis=0), cb.min(axis=0))
    hi = np.maximum(ca.max(axis=0), cb.max(axis=0))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, 2))

    def inside(box, p):
        c, s = math.cos(-box.theta), math.sin(-box.theta)
        dx = p[:, 0] - box.x
        dy = p[:, 1] - box.y
        lx = c * dx - s * dy
        ly = s * dx + c * dy
        return (np.abs(lx) <= box.l / 2) & (np.abs(ly) <= box.w / 2)

    both = inside(a, pts) & inside(b, pts)
    box_area = float(np.prod(hi - lo))
    inter = both.mean() * box_area
    union = a.l * a.w + b.l * b.w - inter
    return inter / union if union > 0 else 0.0


# ------------------------------------------------------------- FD gradient
def finite_diff_check(make_loss, params: list, n_coords: int = 5, seed: int = 0) -> float:
    """Compare analytic gradients of a scalar loss against central
    differences on randomly chosen parameter coordinates.

    make_loss() rebuilds the loss from the current parameter data. Returns
    the worst relative error seen.
    """
    rng = np.random.default_rng(seed)
    loss = make_loss()
    for p in params:
        p.zero_grad()
    loss.backward()
    worst = 0.0
    for p in params:
        grads = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = np.asarray(grads).reshape(-1)
        k = min(n_coords, flat.size)
        for i in rng.choice(flat.size, size=k, replace=False):
            orig = flat[i]
            with no_grad():     # the probes only read the loss value
                flat[i] = orig + FD_STEP
                hi = make_loss().item()
                flat[i] = orig - FD_STEP
                lo = make_loss().item()
            flat[i] = orig
            fd = (hi - lo) / (2 * FD_STEP)
            scale = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / scale)
    return worst


# --------------------------------------------------------- brute references
def brute_force_nms(boxes: list, scores: np.ndarray, iou_thresh: float) -> list:
    """O(n^2) reference suppression, independent of the production path."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if geometry.iou_bev(boxes[i], boxes[j]) > iou_thresh:
                ok = False
                break
        if ok:
            kept.append(i)
    return kept


def direct_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride, padding) -> np.ndarray:
    """Cross-correlation as a sum of one strided input slice per kernel tap,
    without an im2col. x: (Cin, *S); w: (Cout, Cin, *K); out: (Cout, *S')."""
    xp = np.pad(x, ((0, 0),) + tuple((p, p) for p in padding))
    kernel = w.shape[2:]
    out = tuple((s - k) // st + 1 for s, k, st in zip(xp.shape[1:], kernel, stride))
    y = np.zeros((w.shape[0],) + out) + b.reshape((-1,) + (1,) * len(out))
    for tap in np.ndindex(*kernel):
        window = tuple(slice(t, t + st * (n - 1) + 1, st) for t, st, n in zip(tap, stride, out))
        y += np.tensordot(w[(slice(None), slice(None)) + tap], xp[(slice(None),) + window], 1)
    return y


def one_product_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride,
                     padding) -> np.ndarray:
    """Cross-correlation as one product of the weights by the whole
    (Cin * K, prod(S')) im2col, whose rows are strided slices of the padded
    input (channel-major, taps in C order), as conv_nd's columns are."""
    xp = np.pad(x, ((0, 0),) + tuple((p, p) for p in padding))
    kernel = w.shape[2:]
    out = tuple((s - k) // st + 1 for s, k, st in zip(xp.shape[1:], kernel, stride))
    cols = np.stack([xp[(slice(None),) + tuple(slice(t, t + st * (n - 1) + 1, st)
                                               for t, st, n in zip(tap, stride, out))]
                     for tap in np.ndindex(*kernel)], axis=1)
    y = w.reshape(len(w), -1) @ cols.reshape(-1, int(np.prod(out))) + b.reshape(-1, 1)
    return y.reshape((len(w),) + out)


def brute_force_points_in_box(points: np.ndarray, box: Box3D, margin: float) -> np.ndarray:
    """Per-point canonize-and-compare membership, one point at a time."""
    out = np.zeros(len(points), dtype=bool)
    c, s = math.cos(-box.theta), math.sin(-box.theta)
    for i, p in enumerate(points):
        dx, dy, dz = p[0] - box.x, p[1] - box.y, p[2] - box.z
        lx = c * dx - s * dy
        ly = s * dx + c * dy
        out[i] = (abs(lx) <= box.l / 2 + margin and abs(ly) <= box.w / 2 + margin
                  and abs(dz) <= box.h / 2 + margin)
    return out


def random_bev_box(rng, center_scale: float = 10.0) -> BoxBEV:
    return BoxBEV(rng.uniform(-center_scale, center_scale),
                  rng.uniform(-center_scale, center_scale),
                  rng.uniform(0.5, 6.0), rng.uniform(0.5, 4.0),
                  rng.uniform(-math.pi, math.pi))


def random_box3d(rng, center_scale: float = 10.0) -> Box3D:
    return Box3D(rng.uniform(-center_scale, center_scale),
                 rng.uniform(-center_scale, center_scale),
                 rng.uniform(-2.0, 2.0),
                 rng.uniform(0.5, 6.0), rng.uniform(0.5, 4.0), rng.uniform(0.5, 3.0),
                 rng.uniform(-math.pi, math.pi))


# ------------------------------------------------------------- the battery
def run_selftest(quick: bool = True, report=print) -> bool:
    """Condensed oracle battery; returns True when every suite passes."""
    from . import anchors as anchor_mod
    from . import augmentation, evalkit, losses, postprocess

    ok_all = True

    def suite(name, fn):
        nonlocal ok_all
        try:
            fn()
            report(f"PASS {name}")
        except AssertionError as e:
            ok_all = False
            report(f"FAIL {name}: {e}")

    def geometry_suite():
        rng = np.random.default_rng(0)
        n_pairs = 20 if quick else 200
        n_samples = 200_000 if quick else 1_000_000
        pairs = [(random_bev_box(rng), random_bev_box(rng)) for _ in range(n_pairs)]
        batched = geometry.iou_bev_matrix(geometry.bev_rows([a for a, _ in pairs]),
                                          geometry.bev_rows([b for _, b in pairs])).diagonal()
        for k, (a, b) in enumerate(pairs):
            ref = mc_iou_bev(a, b, n_samples, seed=k)
            for path, got in (("scalar", geometry.iou_bev(a, b)), ("batched", batched[k])):
                assert abs(got - ref) <= 5e-3, f"pair {k}: {path} {got} vs MC {ref}"

    def roundtrip_suite():
        rng = np.random.default_rng(1)
        for _ in range(200):
            gt = random_box3d(rng)
            anchor = random_box3d(rng)
            d_a = math.hypot(anchor.l, anchor.w)
            delta = anchor_mod.encode_rpn(gt, anchor, d_a)
            dec = anchor_mod.decode_rpn(delta[None], anchor.as_array()[None], np.array([d_a]))[0]
            assert abs(dec[0] - gt.x) < 1e-9 and abs(dec[3] - gt.l) < 1e-9
            corners = anchor_mod.decode_corners(anchor_mod.encode_corners(gt, anchor), anchor)
            assert np.allclose(corners, geometry.corners_3d(gt), atol=1e-9)

    def loss_suite():
        cfg = losses.LossConfig()
        got = losses.cls_loss(np.array([0.5]), np.array([0.5]), cfg).item()
        assert abs(got - 11 * math.log(2)) < 1e-12, got
        s = cfg.sigma
        cut = 1 / s ** 2
        (a, b), _ = losses.smooth_l1(np.array([cut - 1e-9, cut + 1e-9]), s)
        assert abs(a - b) < 1e-6

    def nms_suite():
        rng = np.random.default_rng(2)
        boxes = [random_bev_box(rng, 5.0) for _ in range(60)]
        scores = rng.uniform(0, 1, 60)
        rows = geometry.bev_rows(boxes)
        ref = brute_force_nms(boxes, scores, 0.3)
        for top_k in (len(boxes), len(ref) // 2, 1):
            got = postprocess.nms_rotated(rows, scores, 0.3, top_k)
            assert got == ref[:top_k], f"top_k {top_k}: kept sets differ"

    def conv_suite():
        # the toy config's conv3d1 and conv3d2, and a paper-width conv3d1
        # slab: several chunks, the last one narrower
        for k, (xs, ws, stride, padding) in enumerate((
                ((16, 32, 32, 10), (16, 16, 3, 3, 3), (1, 1, 2), (1, 1, 1)),
                ((16, 32, 32, 5), (16, 16, 3, 3, 3), (1, 1, 2), (1, 1, 1)),
                ((64, 20, 22, 10), (64, 64, 3, 3, 3), (1, 1, 2), (1, 1, 1)))):
            rng = np.random.default_rng(10 + k)
            x, w, b = (rng.normal(size=s) for s in (xs, ws, ws[:1]))
            chunked = conv_nd(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
            whole = one_product_conv(x, w, b, stride, padding)
            assert chunked.tobytes() == whole.tobytes(), f"{xs}: chunks differ from one product"
            ref = direct_conv(x, w, b, stride, padding)
            err = np.max(np.abs(whole - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12, f"{xs}: relative error {err} vs direct convolution"
        # the toy config's conv3d0: a few hundred voxels and the grid's corners
        rng = np.random.default_rng(13)
        dims = (64, 64, 20)
        corners = [np.ravel_multi_index([i * (d - 1) for i, d in zip(c, dims)], dims)
                   for c in np.ndindex(2, 2, 2)]
        cells = np.unique(np.concatenate([rng.choice(np.prod(dims), 300, replace=False),
                                          corners]))
        coords = np.stack(np.unravel_index(cells, dims), axis=1)
        feats, w, b = (rng.normal(size=s) for s in ((len(cells), 8), (16, 8, 3, 3, 3), (16,)))
        grid = np.zeros((8,) + dims)
        grid[(slice(None),) + tuple(coords.T)] = feats.T
        with no_grad():
            got = conv_voxels(Tensor(feats), coords, dims, Tensor(w), Tensor(b),
                              (2, 2, 2), (1, 1, 1)).data
        ref = direct_conv(grid, w, b, (2, 2, 2), (1, 1, 1))
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err <= 1e-12, f"conv_voxels: relative error {err} vs direct convolution"

    def gradient_suite():
        # the acceptance tests' gate: worst relative error <= 1e-4 on three
        # coordinates of each parameter, on the loss (y * r).sum() of a fixed r
        def case(name, op, shapes, seed):
            rng = np.random.default_rng(seed)
            params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
            r = rng.normal(size=op(*params).shape)
            worst = finite_diff_check(lambda: (op(*params) * r).sum(), params,
                                      n_coords=3, seed=seed)
            assert worst <= 1e-4, f"{name}, seed {seed}: worst relative error {worst}"

        dims = (4, 4, 3)
        for seed in range(3 if quick else 30):
            rng = np.random.default_rng(seed)
            coords = np.stack(np.unravel_index(rng.choice(np.prod(dims), 6, replace=False),
                                               dims), axis=1)
            case("conv_nd", lambda x, w, b: conv_nd(x, w, b, (1, 1, 2), (1, 1, 1)),
                 ((2, 4, 4, 5), (3, 2, 3, 3, 3), (3,)), seed)
            case("conv_voxels",
                 lambda x, w, b: conv_voxels(x, coords, dims, w, b, (2, 1, 2), (1, 1, 0)),
                 ((6, 2), (3, 2, 3, 3, 2), (3,)), seed)
            case("deconv_nd", lambda x, w, b: deconv_nd(x, w, b, (2, 2), (1, 1)),
                 ((2, 3, 3), (3, 2, 3, 3), (3,)), seed)
            for train in (True, False):
                stats = {"n/mean": rng.normal(size=3), "n/var": rng.uniform(0.5, 2.0, 3)}
                case(f"batchnorm_relu (train={train})", lambda x, scale, shift: batchnorm_relu(
                    x, scale, shift, dict(stats), "n", train), ((3, 6), (3,), (3,)), seed)
            # segments of one row, of several, and the last
            case("segment_max", lambda x: segment_max(x, np.array([0, 1, 4])), ((7, 3),), seed)

        # the batched refiner against one forward per proposal, one-point
        # proposals among them, with a two-layer PointNet and a one-layer one
        # (whose first layer is its sign-folded last): outputs and every
        # gradient to 1e-12
        rng = np.random.default_rng(30)
        sizes = np.array([1, 9, 30, 1, 14])
        n, starts = sizes.sum(), np.cumsum(sizes) - sizes
        coords, feats, cells = rng.normal(size=(n, 3)), rng.normal(size=(12, 4)), \
            rng.integers(0, 12, n)
        r = rng.normal(size=(len(sizes), 24))

        def outputs_and_gradients(net, forward):
            net.params.zero_grad()
            out = forward()
            (out * r).sum().backward()
            return [out.data] + [t.grad for t in net.params.tensors.values()]

        for pointnet in ((16, 32), (16,)):
            net = RefinerNet(RefinerConfig(feature_channels=4, corner_template=(0.0,) * 24,
                                           coord_dim=8, pointnet=pointnet, head=(16,)), seed=0)
            batched = outputs_and_gradients(net, lambda: net.forward(coords, feats, cells, starts))
            single = outputs_and_gradients(net, lambda: concat(
                [net.forward(coords[a:b], feats, cells[a:b], np.array([0]))
                 for a, b in zip(starts, starts + sizes)], axis=0))
            for got, want in zip(batched, single):
                err = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
                assert err <= 1e-12, (f"batched refiner {pointnet}: relative error {err} vs "
                                      f"per-proposal forwards")

        # the loss nodes on every coordinate, at their kinks: probabilities
        # clamped on either side (zero gradient), tied negatives all kept or
        # all dropped by the OHEM cut, and offsets at 0 and at +-1/sigma^2
        cfg = losses.LossConfig(ohem_keep=3)
        cut = 1.0 / cfg.sigma ** 2
        rng = np.random.default_rng(20)
        pos = Tensor(np.array([-0.25, 0.3, 0.8, 1.25]), requires_grad=True)
        neg = Tensor(np.array([0.6, 0.2, 0.6, 0.2, 1.25, 0.2, -0.25]), requires_grad=True)
        offsets = np.concatenate([[0.0, cut, -cut], rng.uniform(-1.0, 1.0, 21)])
        target = rng.normal(size=24)
        pred = Tensor(offsets[:21].reshape(3, 7), requires_grad=True)
        corners = Tensor(target + offsets, requires_grad=True)
        for name, make, params in (
                ("cls_loss", lambda: losses.cls_loss(pos, neg, cfg), [pos, neg]),
                ("reg_loss_rpn", lambda: losses.reg_loss_rpn(pred, np.zeros((3, 7)), cfg.sigma),
                 [pred]),
                ("corner_loss", lambda: losses.corner_loss(corners, target, cfg.sigma),
                 [corners])):
            worst = finite_diff_check(make, params, n_coords=24)
            assert worst <= 1e-4, f"{name}: worst relative error {worst}"

    def ap_suite():
        ap = evalkit.average_precision(np.array([True]), np.array([False]), 2, "R11")
        assert abs(ap - 6 / 11) < 1e-12, ap

    def augment_suite():
        from .synthetic import SceneSpec, generate_scene
        spec = SceneSpec()
        n = 20 if quick else 100
        for i in range(n):
            pc, gts = generate_scene(spec, seed=i)
            counts = [int(geometry.points_in_box(pc.points, g).sum()) for g in gts]
            pc2, gts2 = augmentation.global_augment(pc, gts, seed=i)
            counts2 = [int(geometry.points_in_box(pc2.points, g).sum()) for g in gts2]
            assert counts == counts2, f"scene {i}: {counts} vs {counts2}"
            for a in range(len(gts2)):
                for b in range(a + 1, len(gts2)):
                    assert geometry.iou_bev(gts2[a].bev(), gts2[b].bev()) == 0.0

    def crop_suite():
        rng = np.random.default_rng(3)
        for k in range(30 if quick else 300):
            box, margin = random_box3d(rng), (0.0, 0.3, 2.0)[k % 3]
            pts = np.array([box.x, box.y, box.z]) + rng.uniform(-6.0, 6.0, (400, 3))
            got = geometry.points_in_box(pts, box, margin)
            ref = brute_force_points_in_box(pts, box, margin)
            assert np.array_equal(got, ref), f"box {k}: {np.count_nonzero(got != ref)} points differ"

    suite("geometry.iou_bev and iou_bev_matrix vs Monte-Carlo", geometry_suite)
    suite("crop vs brute force", crop_suite)
    suite("encode/decode round-trips", roundtrip_suite)
    suite("loss hand values", loss_suite)
    suite("rotated NMS vs brute force", nms_suite)
    suite("conv_nd chunks vs one product, conv_nd and conv_voxels vs direct convolution",
          conv_suite)
    suite("gradients of conv_nd, conv_voxels, deconv_nd, batchnorm_relu (train and eval), "
          "segment_max and the three losses vs finite differences; the batched refiner vs "
          "per-proposal forwards",
          gradient_suite)
    suite("average precision hand case", ap_suite)
    suite("augmentation audit", augment_suite)
    return ok_all
