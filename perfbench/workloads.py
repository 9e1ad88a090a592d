"""The benchmark's workloads: set-up, ops, per-op output checks and quality.
See README.md for why each workload exists.

Every workload is a closed loop with one caller: the next frame (``infer``,
``infer-dense``) or training round (``train``) is sent only after the
previous one returns. Inputs are synthetic scenes made from the workload
seed; the program under test receives only those scenes.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "checkpoint" / "checkpoint.npz"
PROVENANCE = HERE / "checkpoint" / "provenance.json"

# Workload scenes are generate_dataset(spec, n, workload seed + SCENE_SEED_OFFSET).
# The checkpoint was trained on generate_dataset(toy spec, 20, 0); the offset
# keeps every workload seed >= 0 off those scenes, so quality stays held-out.
SCENE_SEED_OFFSET = 1
DATASET_SEED_STRIDE = 100003     # synthetic.generate_dataset: scene seed = seed * stride + i

INFER_POOL = 60          # toy frames cycled by `infer` (60 held-out frames)
DENSE_POOL = 24          # dense frames cycled by `infer-dense`
DENSE_CLUTTER = 20000
DENSE_SURFACE = (1500, 2250)
TRAIN_FRAMES = 4         # frames per training round
TRAIN_POOL = 24          # rounds cycle through this many frames
TRAIN_RPN_EPOCHS = 3
TRAIN_REFINER_EPOCHS = 4

_LOSS = re.compile(r"loss=(\S+)")
PHASE_METRICS = ("train.prepare_frames_per_s", "train.rpn_frames_per_s",
                 "train.refiner_frames_per_s", "train.rpn_epoch_s", "train.refiner_epoch_s")


class BenchmarkInputError(RuntimeError):
    """The benchmark's own inputs are unusable (bad seed, tampered checkpoint)."""


def scene_seed(workload_seed: int, n_scenes: int) -> int:
    """Dataset seed for a workload seed; rejects seeds that would reuse the
    checkpoint's training scenes."""
    training = json.loads(PROVENANCE.read_text())["training_scenes"]
    if workload_seed < 0:
        raise BenchmarkInputError(f"workload seed must be >= 0, got {workload_seed}")
    seed = workload_seed + SCENE_SEED_OFFSET
    ours = range(seed * DATASET_SEED_STRIDE, seed * DATASET_SEED_STRIDE + n_scenes)
    base = training["dataset_seed"] * DATASET_SEED_STRIDE
    theirs = range(base, base + training["n_scenes"])
    if ours.start < theirs.stop and theirs.start < ours.stop:
        raise BenchmarkInputError(
            f"workload seed {workload_seed} overlaps the checkpoint's training scenes")
    return seed


def load_checkpoint(fp):
    """Checkpoint parameters, after checking the file against its recorded sha256."""
    prov = json.loads(PROVENANCE.read_text())
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    if digest != prov["sha256"]:
        raise BenchmarkInputError(
            f"{CHECKPOINT.name} sha256 {digest} does not match provenance {prov['sha256']}")
    return fp["nn"].Parameters.load(CHECKPOINT)


def box_problems(boxes) -> list:
    return [f"box {b} is not finite with positive size" for b in boxes
            if not (np.all(np.isfinite(b.as_array())) and min(b.l, b.w, b.h) > 0)]


def check_frame(res, cfg, iou_bev) -> list:
    """Output checks of one infer_frame result; [] when every check passes."""
    props, dets = res.proposals, res.detections
    problems = box_problems([p.box for p in props] + [d.box for d in dets])
    if len(props) > cfg.post.top_k:
        problems.append(f"{len(props)} proposals > top_k {cfg.post.top_k}")
    if len(dets) != len(props):
        problems.append(f"{len(dets)} detections for {len(props)} proposals")
    if any(a.score < b.score for a, b in zip(props, props[1:])):
        problems.append("proposals not in descending score order")
    bevs = [p.box.bev() for p in props]
    for i in range(len(bevs)):
        for j in range(i + 1, len(bevs)):
            iou = iou_bev(bevs[i], bevs[j])
            if iou > cfg.post.nms_iou:
                problems.append(f"proposals {i},{j} overlap with BEV IoU {iou:.3f}")
    return problems


def params_problems(net, what) -> list:
    bad = [n for n, t in net.params.tensors.items() if not np.all(np.isfinite(t.data))]
    return [f"{what} parameter {n} not finite" for n in bad]


class Infer:
    """`infer` and `infer-dense`: pipeline.infer_frame, one frame per op."""

    OPS_PER_ROUND = 1
    PROBE_OPS = (0,)

    def __init__(self, fp, seed: int, dense: bool):
        t0 = time.perf_counter()
        self.fp = fp
        cfg = fp["config"].toy_config()
        pool = INFER_POOL
        if dense:
            cfg.synthetic.clutter_points = DENSE_CLUTTER
            cfg.synthetic.surface_points = DENSE_SURFACE
            pool = DENSE_POOL
        spec = cfg.synthetic.scene_spec(cfg.voxel_range)
        self.frames = fp["synthetic"].generate_dataset(
            spec, pool, scene_seed(seed, pool))
        nn = fp["nn"]
        if dense:
            self.rpn = nn.VoxelRPN(cfg.net_config(), seed=cfg.seed)
            self.refiner = nn.RefinerNet(cfg.refiner_config(), seed=cfg.seed + 1)
        else:
            params = load_checkpoint(fp)
            self.rpn = nn.VoxelRPN(cfg.net_config(), params=params)
            self.refiner = nn.RefinerNet(cfg.refiner_config(), params=params)
        self.cfg = cfg
        fid, pc, _ = self.frames[0]
        fp["pipeline"].infer_frame(fid, pc, self.rpn, self.refiner, cfg)   # warm-up
        self.setup_s = time.perf_counter() - t0

    def op(self, i):
        fid, pc, _ = self.frames[i % len(self.frames)]
        return self.fp["pipeline"].infer_frame(fid, pc, self.rpn, self.refiner, self.cfg)

    def check(self, i, res) -> list:
        return check_frame(res, self.cfg, self.fp["geometry"].iou_bev)

    def frames_in(self, i) -> int:
        return 1

    def keep(self, i) -> bool:
        return i < len(self.frames)

    def summary(self, ops) -> dict:
        # the training phases are never entered here
        return {"frame_ms": [o["s"] * 1e3 for o in ops],
                "phases": dict.fromkeys(PHASE_METRICS, 0.0)}

    def quality(self, results: dict) -> tuple:
        """Held-out quality over the first pass of the frame pool."""
        pipeline, evalkit = self.fp["pipeline"], self.fp["evalkit"]
        gts = {self.frames[i][0]: self.frames[i][2] for i in results}
        dets = {r.frame_id: r.detections for r in results.values()}
        props = {r.frame_id: r.proposals for r in results.values()}
        scored = {fid: (dets[fid], [evalkit.EvalGt(b) for b in g]) for fid, g in gts.items()}
        return {
            "frames": len(results),
            "recall_top30": pipeline.proposal_recall(list(results.values()), gts, 0.5),
            "refine_iou_gain": (pipeline.mean_matched_iou3d(dets, gts)
                                - pipeline.mean_matched_iou3d(props, gts)),
            "ap_bev_0.5": evalkit.evaluate(scored, evalkit.EvalConfig("BEV", 0.5)),
        }, []


class Train:
    """`train`: one op per phase call; a round is prepare_frames, a short
    train_voxelrpn from the seeded initialisation, then train_refiner on the
    checkpoint's RPN, all on the round's frames."""

    PHASES = ("prepare", "rpn", "refiner")
    OPS_PER_ROUND = 3
    PROBE_OPS = (0, 2)      # prepare and refiner: every input share, no RPN training

    def __init__(self, fp, seed: int):
        t0 = time.perf_counter()
        self.fp = fp
        cfg = fp["config"].toy_config()
        cfg.train.rpn_epochs = TRAIN_RPN_EPOCHS
        cfg.train.refiner_epochs = TRAIN_REFINER_EPOCHS
        spec = cfg.synthetic.scene_spec(cfg.voxel_range)
        self.frames = fp["synthetic"].generate_dataset(
            spec, TRAIN_POOL, scene_seed(seed, TRAIN_POOL))
        params = load_checkpoint(fp)
        self.ckpt_rpn = fp["nn"].VoxelRPN(cfg.net_config(), params=params)
        self.anchors = fp["anchors"].build_anchor_grid(
            cfg.map_dims(), cfg.anchors.spec(), cfg.voxel_spec())
        self.cfg = cfg
        train = fp["train"]
        # warm-up step: one RPN forward and backward on one prepared frame
        frame = train.prepare_frames(self.frames[:1], cfg, self.anchors)[0]
        train.rpn_loss(fp["nn"].VoxelRPN(cfg.net_config(), seed=cfg.seed),
                       frame, cfg, train=True).backward()
        self.setup_s = time.perf_counter() - t0
        self.epochs = []        # (op, phase, seconds, loss), one per log callback
        self._prepared = None

    def round_frames(self, r):
        return [self.frames[(r * TRAIN_FRAMES + k) % len(self.frames)]
                for k in range(TRAIN_FRAMES)]

    def _logger(self, i):
        """The public per-epoch log callback, timing each epoch of op i. The
        first refiner epoch also holds the refiner's proposal cache."""
        last = time.perf_counter()

        def log(msg):
            nonlocal last
            now = time.perf_counter()
            self.epochs.append((i, msg.split()[0], now - last,
                                float(_LOSS.search(msg).group(1))))
            last = now
        return log

    def op(self, i):
        """Op i is phase i % 3 of round i // 3."""
        train = self.fp["train"]
        phase = self.PHASES[i % 3]
        if phase == "prepare":
            self._prepared = train.prepare_frames(self.round_frames(i // 3), self.cfg,
                                                  self.anchors)
            return self._prepared
        if phase == "rpn":
            return train.train_voxelrpn(self._prepared, self.cfg, self._logger(i))
        return train.train_refiner(self._prepared, self.ckpt_rpn, self.cfg, self._logger(i))

    def check(self, i, out) -> list:
        phase = self.PHASES[i % 3]
        if phase == "prepare":
            want = [f for f, _, _ in self.round_frames(i // 3)]
            got = [p.frame_id for p in out]
            return [] if got == want else [f"prepared frames {got} != {want}"]
        epochs = TRAIN_RPN_EPOCHS if phase == "rpn" else TRAIN_REFINER_EPOCHS
        losses = [loss for op, _, _, loss in self.epochs if op == i]
        problems = params_problems(out, phase)
        if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
            problems.append(f"{phase} epoch losses {losses} (want {epochs} finite)")
        return problems

    def frames_in(self, i) -> int:
        return TRAIN_FRAMES if i % 3 == 0 else 0

    def keep(self, i) -> bool:
        return i < 2

    def summary(self, ops) -> dict:
        """frame_ms: one RPN frame update (forward, backward, Adam step), one
        sample per RPN epoch. phases: frames per second of each phase call."""
        done = {o["i"] for o in ops}
        rpn = [s for op, p, s, _ in self.epochs if op in done and p == "rpn"]
        refiner = defaultdict(list)
        for op, p, s, _ in self.epochs:
            if op in done and p == "refiner":
                refiner[op].append(s)
        later = [s for epochs in refiner.values() for s in epochs[1:]]

        def per_s(phase, updates):
            calls = [o for o in ops if self.PHASES[o["i"] % 3] == phase]
            busy = sum(o["s"] for o in calls)
            return len(calls) * TRAIN_FRAMES * updates / busy if busy else 0.0

        return {"frame_ms": [s * 1e3 / TRAIN_FRAMES for s in rpn], "phases": {
            "train.prepare_frames_per_s": per_s("prepare", 1),
            "train.rpn_frames_per_s": per_s("rpn", TRAIN_RPN_EPOCHS),
            "train.refiner_frames_per_s": per_s("refiner", TRAIN_REFINER_EPOCHS),
            "train.rpn_epoch_s": statistics.median(rpn) if rpn else 0.0,
            "train.refiner_epoch_s": statistics.median(later) if later else 0.0,
        }}

    def quality(self, results: dict) -> tuple:
        """RPN loss (eval mode) over round 0's frames, before and after its
        short schedule. Training that no longer lowers the loss is broken."""
        if results.get(0) is None or results.get(1) is None:
            return {}, ["round 0 failed: no training quality"]
        train, cfg = self.fp["train"], self.cfg
        init = self.fp["nn"].VoxelRPN(cfg.net_config(), seed=cfg.seed)

        def mean_loss(rpn):
            return float(np.mean([train.rpn_loss(rpn, f, cfg, train=False).item()
                                  for f in results[0]]))

        q = {"rpn_loss_before": mean_loss(init), "rpn_loss_after": mean_loss(results[1])}
        ok = q["rpn_loss_after"] < q["rpn_loss_before"]
        return q, [] if ok else [f"short schedule did not lower the RPN loss: {q}"]


WORKLOADS = {
    "infer": lambda fp, seed: Infer(fp, seed, dense=False),
    "infer-dense": lambda fp, seed: Infer(fp, seed, dense=True),
    "train": Train,
}
