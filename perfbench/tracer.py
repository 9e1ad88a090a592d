"""Span tracer for the traced benchmark run.

The tracer treats ``fastpoint`` as a black box: it wraps the public entry
points of each layer from outside the package. A wrapped name is patched
where its caller looks it up, so a name bound with ``from ... import`` is
patched in the importing module (``pipeline.voxelize`` and
``train.voxelize`` are two patches of one span). Patches are installed only
for the duration of a traced op, so untraced ops run the unmodified code.

Each span records name, start, end, parent span and op id. Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the time of its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# span name -> every (owner, attribute) through which callers reach it.
# An owner is a module name, or "module.Class" for a method.
SPAN_SITES = {
    "pipeline.infer_frame": [("pipeline", "infer_frame")],
    "train.prepare_frames": [("train", "prepare_frames")],
    "train.train_voxelrpn": [("train", "train_voxelrpn")],
    "train.train_refiner": [("train", "train_refiner")],
    "train.select_proposals": [("train", "select_proposals")],
    "train.optimizer_step": [("train.Adam", "step"), ("train.SGD", "step")],
    "voxels.voxelize": [("pipeline", "voxelize"), ("train", "voxelize")],
    "voxels.to_dense": [("pipeline", "to_dense"), ("train", "to_dense")],
    "voxels.slot_counts": [("pipeline", "slot_counts"), ("train", "slot_counts")],
    "anchors.build_anchor_grid": [("pipeline", "build_anchor_grid"),
                                  ("train", "build_anchor_grid")],
    "anchors.assign_targets": [("train", "assign_targets")],
    "nn.rpn_forward": [("nn.VoxelRPN", "forward")],
    "nn.encode_voxels": [("nn.VoxelRPN", "encode_voxels")],
    "nn.refiner_forward": [("nn.RefinerNet", "forward")],
    "autodiff.backward": [("autodiff.Tensor", "backward")],
    "losses.cls_loss": [("losses", "cls_loss")],
    "losses.reg_loss_rpn": [("losses", "reg_loss_rpn")],
    "losses.corner_loss": [("losses", "corner_loss")],
    "postprocess.decode_detections": [("pipeline", "decode_detections"),
                                      ("postprocess", "decode_detections")],
    "postprocess.nms_rotated": [("pipeline", "nms_rotated"), ("train", "nms_rotated")],
    "postprocess.corners_to_box": [("pipeline", "corners_to_box")],
    "refiner_features.build_box_feature": [("refiner_features", "build_box_feature")],
}

# RPN conv layers, named as in the net's Parameters ("rpn/<layer>/w").
CONV_LAYERS = ([f"conv3d{i}" for i in range(6)]
               + [f"block{b}_{i}" for b in (2, 3, 4) for i in range(3)]
               + ["branch2", "branch3", "branch4", "cls", "reg"])
DECONV_LAYERS = {"branch2", "branch3", "branch4"}

# parent span of a geometry.iou_bev call -> the consumer it is counted under
IOU_CONSUMERS = {
    "postprocess.nms_rotated": "nms",
    "anchors.assign_targets": "assign",
    "train.train_refiner": "refiner_pairs",
}

PHASE_SPANS = ("train.prepare_frames", "train.train_voxelrpn", "train.train_refiner")
SELF_MS_SPANS = (
    "pipeline.infer_frame", "voxels.voxelize", "voxels.to_dense", "voxels.slot_counts",
    "nn.encode_voxels", "nn.rpn_forward", "nn.refiner_forward", "autodiff.backward",
    "train.optimizer_step", "train.select_proposals", "losses.cls_loss",
    "losses.reg_loss_rpn", "losses.corner_loss", "anchors.assign_targets",
    "anchors.build_anchor_grid", "postprocess.decode_detections",
    "postprocess.nms_rotated", "postprocess.corners_to_box",
    "refiner_features.build_box_feature",
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


class Tracer:
    def __init__(self, fp: dict):
        """fp maps fastpoint module names ("nn", "train", ...) to modules."""
        self.fp = fp
        self.t0 = time.perf_counter()
        # span rows: [name, start, end, parent index, op id, child seconds, error]
        self.spans = []
        self.stack = []
        self.op_id = None
        self.sums = defaultdict(float)      # counters summed over the run
        self.layer_of = {}                  # id(weight tensor) -> conv layer name
        self.voxel_inputs = []              # (points, VoxelSpec) per voxelize call
        self._patches = []

    # -------------------------------------------------------------- spans
    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, 0.0, None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, i, error=None):
        row = self.spans[i]
        row[2] = time.perf_counter()
        row[6] = error
        self.stack.pop()
        if row[3] is not None:
            self.spans[row[3]][5] += row[2] - row[1]

    def _current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                self._close(i, type(e).__name__)
                raise
            self._close(i)
            if after is not None:
                after(args, out)
            return out
        return traced

    # ------------------------------------------------- per-layer counters
    def _register_layers(self, args):
        # rebuilt on every forward so only live weights can match an id
        self.layer_of = {id(t): name.split("/")[1]
                         for name, t in args[0].params.tensors.items()
                         if name.startswith("rpn/") and name.endswith("/w")}

    def _conv_shapes(self, layer, x, w, stride, padding):
        cin, spatial = x.shape[0], x.shape[1:]
        cout, kernel = w.shape[0], w.shape[2:]
        out = [(s + 2 * p - k) // st + 1
               for s, p, k, st in zip(spatial, padding, kernel, stride)]
        rows = cin * int(np.prod(kernel))
        cols = int(np.prod(out))
        self.sums[f"nn.{layer}.flops"] += 2.0 * cout * rows * cols
        self.sums[f"nn.{layer}.im2col_mb"] += rows * cols * 8 / 1e6

    def _conv(self, fn):
        def traced(x, w, b, stride, padding):
            layer = self.layer_of.get(id(w))
            current = self._current() or ""
            if layer is None and current[3:] in DECONV_LAYERS:
                # deconv_nd's inner conv sees a flipped copy of the weight:
                # its time and work belong to the enclosing deconv span
                self._conv_shapes(current[3:], x, w, stride, padding)
                return fn(x, w, b, stride, padding)
            layer = layer or "conv_unnamed"
            self._conv_shapes(layer, x, w, stride, padding)
            i = self._open(f"nn.{layer}")
            try:
                return fn(x, w, b, stride, padding)
            finally:
                self._close(i)
        return traced

    def _deconv(self, fn):
        def traced(x, w, b, stride, padding):
            i = self._open(f"nn.{self.layer_of.get(id(w), 'deconv_unnamed')}")
            try:
                return fn(x, w, b, stride, padding)
            finally:
                self._close(i)
        return traced

    def _iou_bev(self, fn):
        # ~10^5 calls per dense frame: a counter, not a span
        def traced(a, b):
            t = time.perf_counter()
            out = fn(a, b)
            dt = time.perf_counter() - t
            consumer = IOU_CONSUMERS.get(self._current(), "other")
            self.sums[f"geometry.iou_bev.calls.{consumer}"] += 1
            self.sums["geometry.iou_bev.seconds"] += dt
            if self.stack:
                self.spans[self.stack[-1]][5] += dt
            return out
        return traced

    def _hooks(self):
        s = self.sums

        def voxelize(args, out):
            self.voxel_inputs.append((args[0].points, args[1]))

        def encode(args, out):
            dense, counts = args[1], args[2]
            s["encoder.stored_slots"] += float(np.sum(counts))
            s["encoder.rows"] += float(np.prod(dense.shape[:-1]))

        def refiner_forward(args, out):
            s["refiner_forward.points"] += len(args[1])

        def box_feature(args, out):
            s["build_box_feature.points"] += len(out.coords)

        def decode(args, out):
            s["decode.candidates"] += len(out)

        def nms(args, out):
            s["nms.in"] += len(args[0])
            s["nms.kept"] += len(out)

        return {
            "voxels.voxelize": (None, voxelize),
            "nn.rpn_forward": (self._register_layers, None),
            "nn.encode_voxels": (None, encode),
            "nn.refiner_forward": (None, refiner_forward),
            "refiner_features.build_box_feature": (None, box_feature),
            "postprocess.decode_detections": (None, decode),
            "postprocess.nms_rotated": (None, nms),
        }

    # ------------------------------------------------------------ patching
    def _owner(self, path):
        mod, _, cls = path.partition(".")
        return getattr(self.fp[mod], cls) if cls else self.fp[mod]

    def _install(self):
        hooks = self._hooks()
        sites = [(owner, attr, self._wrap(name, self._owner(owner).__dict__[attr],
                                          *hooks.get(name, (None, None))))
                 for name, owners in SPAN_SITES.items() for owner, attr in owners]
        nn, geometry = self.fp["nn"], self.fp["geometry"]
        sites += [("nn", "conv_nd", self._conv(nn.conv_nd)),
                  ("nn", "deconv_nd", self._deconv(nn.deconv_nd)),
                  ("geometry", "iou_bev", self._iou_bev(geometry.iou_bev))]
        for owner, attr, wrapper in sites:
            obj = self._owner(owner)
            self._patches.append((obj, attr, obj.__dict__[attr]))
            setattr(obj, attr, wrapper)

    def _uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    @contextmanager
    def op(self, op_id):
        """Trace one op: patches are live only inside this block."""
        self.op_id = op_id
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.op_id = None

    # ------------------------------------------------------------- results
    def span_table(self) -> dict:
        """name -> {calls, errors, total_ms, self_ms}, including spans never entered."""
        names = list(SPAN_SITES) + [f"nn.{layer}" for layer in CONV_LAYERS]
        table = {n: {"calls": 0, "errors": 0, "total_ms": 0.0, "self_ms": 0.0} for n in names}
        for name, start, end, _, _, child, error in self.spans:
            row = table.setdefault(name, {"calls": 0, "errors": 0, "total_ms": 0.0,
                                          "self_ms": 0.0})
            row["calls"] += 1
            row["errors"] += error is not None
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child) * 1e3
        return table

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, _, error in self.spans:
                f.write(json.dumps({"name": name, "start_s": start - self.t0,
                                    "end_s": end - self.t0, "parent": parent,
                                    "op": op, "error": error}) + "\n")

    def input_shares(self) -> dict:
        """Input properties that sparsity- and candidate-count claims depend on."""
        occupied = overflow = cells = points = 0
        for pts, spec in self.voxel_inputs:
            # the voxel index rule of voxels.voxelize
            idx = np.floor((pts[:, :3] - spec.mins) / np.asarray(spec.voxel_size))
            _, counts = np.unique(idx.astype(np.int64), axis=0, return_counts=True)
            occupied += len(counts)
            overflow += int(np.sum(counts > spec.max_points_per_voxel))
            cells += int(np.prod(spec.dims))
            points += len(pts)
        s = self.sums
        decodes = sum(1 for row in self.spans if row[0] == "postprocess.decode_detections")
        return {
            "voxels.points_per_frame": _ratio(points, len(self.voxel_inputs)),
            "voxels.occupied_share": _ratio(occupied, cells),
            "voxels.overflow_share": _ratio(overflow, occupied),
            "nn.encode_voxels.useful_row_share": _ratio(s["encoder.stored_slots"],
                                                        s["encoder.rows"]),
            "postprocess.candidates": _ratio(s["decode.candidates"], decodes),
            "postprocess.nms_keep_share": _ratio(s["nms.kept"], s["nms.in"]),
        }

    def layer_metrics(self, frames: int) -> dict:
        """Per-layer metrics: self_ms and fwd_ms are per call, counts per frame."""
        table, s = self.span_table(), self.sums

        def per_call(name, key="self_ms"):
            return _ratio(table[name][key], table[name]["calls"])

        def total(*names):
            return sum(table[n]["total_ms"] for n in names)

        m = {f"{name}.self_ms": per_call(name) for name in SELF_MS_SPANS}
        for layer in CONV_LAYERS:
            calls = table[f"nn.{layer}"]["calls"]
            m[f"nn.{layer}.fwd_ms"] = per_call(f"nn.{layer}", "total_ms")
            m[f"nn.{layer}.flops"] = _ratio(s[f"nn.{layer}.flops"], calls)
            m[f"nn.{layer}.im2col_mb"] = _ratio(s[f"nn.{layer}.im2col_mb"], calls)
        features = table["refiner_features.build_box_feature"]
        iou_calls = sum(v for k, v in s.items() if k.startswith("geometry.iou_bev.calls."))
        m.update({
            "nn.refiner_forward.points": _ratio(s["refiner_forward.points"],
                                                table["nn.refiner_forward"]["calls"]),
            "refiner_features.points_per_proposal": _ratio(
                s["build_box_feature.points"], features["calls"] - features["errors"]),
            "refiner_features.empty_share": _ratio(features["errors"], features["calls"]),
            "geometry.iou_bev.us_per_call": _ratio(s["geometry.iou_bev.seconds"] * 1e6,
                                                   iou_calls),
        })
        for consumer in list(IOU_CONSUMERS.values()) + ["other"]:
            key = f"geometry.iou_bev.calls.{consumer}"
            m[key] = _ratio(s[key], frames)
        frame_ms = total("pipeline.infer_frame")
        m.update({
            "stage.voxelize_share": _ratio(
                total("voxels.voxelize", "voxels.to_dense", "voxels.slot_counts"), frame_ms),
            "stage.rpn_forward_share": _ratio(total("nn.rpn_forward"), frame_ms),
            "stage.decode_nms_share": _ratio(
                total("postprocess.decode_detections", "postprocess.nms_rotated"), frame_ms),
            "stage.refine_share": _ratio(
                total("refiner_features.build_box_feature", "nn.refiner_forward",
                      "postprocess.corners_to_box"), frame_ms),
            "stage.encoder_share_of_rpn": _ratio(total("nn.encode_voxels"),
                                                 total("nn.rpn_forward")),
        })
        by_phase = self._phase_totals()
        m["stage.rpn_backward_over_forward"] = _ratio(
            by_phase[("train.train_voxelrpn", "autodiff.backward")],
            by_phase[("train.train_voxelrpn", "nn.rpn_forward")])
        m["stage.refiner_backward_over_forward"] = _ratio(
            by_phase[("train.train_refiner", "autodiff.backward")],
            by_phase[("train.train_refiner", "nn.refiner_forward")])
        return m

    def _phase_totals(self) -> dict:
        """(training phase span, span name) -> total ms of that span inside the phase."""
        phase = []
        out = defaultdict(float)
        for name, start, end, parent, _, _, _ in self.spans:
            phase.append(name if name in PHASE_SPANS
                         else (phase[parent] if parent is not None else None))
            out[(phase[-1], name)] += (end - start) * 1e3
        return out

