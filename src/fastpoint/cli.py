"""Command-line interface: every pipeline stage as a subcommand."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import augmentation, kitti, pipeline, selfcheck, train as train_mod
from .anchors import assign_targets, build_anchor_grid
from .config import PipelineConfig, load_config, save_config, toy_config
from .nn import MissingCheckpoint, Parameters, RefinerNet, VoxelRPN
from .postprocess import write_detections
from .synthetic import generate_dataset
from .voxels import dump_grid, voxelize


def _load_cfg(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else toy_config()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _synthetic_frames(cfg: PipelineConfig):
    spec = cfg.synthetic.scene_spec(cfg.voxel_range)
    return generate_dataset(spec, cfg.synthetic.n_scenes, cfg.seed)


def cmd_ingest(args) -> int:
    cfg = _load_cfg(args)
    data = Path(cfg.data_dir or args.data or ".")
    calib = kitti.read_calib_file(data / "calib" / f"{args.frame}.txt")
    pc = kitti.read_velodyne(data / "velodyne" / f"{args.frame}.bin")
    labels = kitti.read_label_file(data / "label_2" / f"{args.frame}.txt", calib)
    cropped = kitti.crop_to_range(pc, np.array(cfg.voxel_range))
    print(f"frame {args.frame}: {len(pc)} points ({len(cropped)} in range), "
          f"{len(labels)} labels")
    for lab in labels:
        box = "-" if lab.box is None else f"({lab.box.x:.2f}, {lab.box.y:.2f}, {lab.box.z:.2f})"
        print(f"  {lab.cls} difficulty={lab.difficulty} center={box}")
    return 0


def cmd_voxelize(args) -> int:
    cfg = _load_cfg(args)
    spec = cfg.voxel_spec()
    if args.scan:
        pc = kitti.crop_to_range(kitti.read_velodyne(args.scan), np.array(cfg.voxel_range))
        frame_id = Path(args.scan).stem
    else:
        frame_id, pc, _ = _synthetic_frames(cfg)[0]
    grid = voxelize(pc, spec, seed=cfg.seed)
    out = _out_dir(args) / f"{frame_id}.voxels"
    dump_grid(out, grid)
    print(f"{frame_id}: {len(pc)} points -> {len(grid.coords)} occupied voxels "
          f"of {np.prod(grid.dims)} ({out})")
    return 0


def cmd_targets(args) -> int:
    cfg = _load_cfg(args)
    anchors = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), cfg.voxel_spec())
    frames = _synthetic_frames(cfg)
    for frame_id, _, gts in frames[: args.limit]:
        asn = assign_targets(anchors, gts, cfg.anchors.pos_iou, cfg.anchors.neg_iou)
        n_pos = len(asn.positive_indices)
        n_neg = len(asn.negative_indices)
        print(f"{frame_id}: anchors={len(anchors)} gts={len(gts)} "
              f"pos={n_pos} neg={n_neg} ignore={len(anchors) - n_pos - n_neg}")
    return 0


def cmd_train_toy(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    log_lines = []

    def log(msg):
        log_lines.append(msg)
        if args.verbose:
            print(msg)

    frames = _synthetic_frames(cfg)
    anchors = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), cfg.voxel_spec())
    t0 = time.perf_counter()
    prepared = train_mod.prepare_frames(frames, cfg, anchors)
    log(f"prepared {len(prepared)} frames in {time.perf_counter() - t0:.1f}s")
    rpn = train_mod.train_voxelrpn(prepared, cfg, log)
    refiner = train_mod.train_refiner(prepared, rpn, cfg, log)
    merged = train_mod.merge_parameters(rpn, refiner)
    ckpt = out / "checkpoint.npz"
    merged.save(ckpt)
    (out / "train_log.txt").write_text("\n".join(log_lines) + "\n")
    print(f"checkpoint written to {ckpt}")
    return 0


def _load_networks(cfg: PipelineConfig, ckpt_path):
    params = Parameters.load(ckpt_path)
    rpn = VoxelRPN(cfg.net_config(), params=params)
    refiner = RefinerNet(cfg.refiner_config(), params=params)
    return rpn, refiner


def cmd_infer(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    rpn, refiner = _load_networks(cfg, args.checkpoint)
    frames = _synthetic_frames(cfg)
    if args.frames:
        wanted = set(args.frames.split(","))
        frames = [f for f in frames if f[0] in wanted]
    totals = {}
    for frame_id, pc, _ in frames:
        res = pipeline.infer_frame(frame_id, pc, rpn,
                                   None if args.skip_refiner else refiner, cfg)
        write_detections(out / f"{frame_id}.txt", res.detections)
        for k, v in res.stage_times.items():
            totals[k] = totals.get(k, 0.0) + v
        print(f"{frame_id}: {len(res.detections)} detections")
    for k, v in sorted(totals.items()):
        print(f"time {k}: {v:.3f}s")
    return 0


def cmd_eval(args) -> int:
    from . import evalkit
    from .postprocess import read_detections

    cfg = _load_cfg(args)
    frames = {}
    gt_frames = _synthetic_frames(cfg)
    for frame_id, _, gts in gt_frames:
        det_path = Path(args.dets) / f"{frame_id}.txt"
        dets = read_detections(det_path) if det_path.exists() else []
        frames[frame_id] = (dets, [evalkit.EvalGt(b) for b in gts])
    table = evalkit.evaluate_table(
        frames, iou_threshs=tuple(float(t) for t in args.iou.split(",")))
    report = evalkit.format_table(table)
    print(report)
    if args.out:
        (_out_dir(args) / "eval.txt").write_text(report + "\n")
    return 0


def cmd_augment(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args)
    frames = _synthetic_frames(cfg)
    # synthetic gts are bare boxes; wrap them as labels for the database
    labeled = [(fid, pc,
                [kitti.FrameLabel("Car", b, 0.0, 0, np.zeros(4), 0.0) for b in gts])
               for fid, pc, gts in frames]
    db = augmentation.build_gt_database(labeled)
    for frame_id, pc, gts in frames[: args.limit]:
        seed = cfg.seed * 1_000_003 + int(frame_id)
        pc1, gts1 = augmentation.mixup_sample(pc, gts, db, cfg.augment.mixup_objects, seed)
        pc2, gts2 = augmentation.global_augment(pc1, gts1, seed + 1,
                                                cfg.augment.flip_prob,
                                                cfg.augment.scale_range,
                                                cfg.augment.global_rot_deg)
        pc3, gts3 = augmentation.perturb_objects(pc2, gts2, seed + 2,
                                                 rot_range_deg=cfg.augment.object_rot_deg)
        kitti.write_velodyne(out / f"{frame_id}.bin", pc3)
        print(f"{frame_id}: {len(pc)} -> {len(pc3)} points, {len(gts)} -> {len(gts3)} gts")
    return 0


def cmd_selftest(args) -> int:
    ok = selfcheck.run_selftest(quick=not args.full)
    return 0 if ok else 1


def cmd_dump_config(args) -> int:
    save_config(toy_config(), args.path)
    print(f"wrote toy config to {args.path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fastpoint",
                                 description="two-stage point-cloud 3D detection pipeline")
    ap.add_argument("--config", help="YAML config path (default: built-in toy config)")
    ap.add_argument("--seed", type=int, help="override config seed")
    ap.add_argument("--out", help="output directory (default: ./out)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse one KITTI frame and summarize")
    p.add_argument("frame")
    p.add_argument("--data", help="dataset root with velodyne/label_2/calib")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("voxelize", help="voxelize a scan (or synthetic frame 0)")
    p.add_argument("--scan", help="velodyne .bin path; omitted = synthetic")
    p.set_defaults(fn=cmd_voxelize)

    p = sub.add_parser("targets", help="anchor target summary on synthetic frames")
    p.add_argument("--limit", type=int, default=5)
    p.set_defaults(fn=cmd_targets)

    p = sub.add_parser("train-toy", help="two-phase training on synthetic scenes")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("infer", help="run the full pipeline from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frames", help="comma-separated frame ids (default: all)")
    p.add_argument("--skip-refiner", action="store_true",
                   help="first-stage output only")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="AP table for detection dumps vs synthetic gts")
    p.add_argument("--dets", required=True, help="directory of per-frame dumps")
    p.add_argument("--iou", default="0.7", help="comma-separated IoU thresholds")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("augment", help="augment synthetic frames deterministically")
    p.add_argument("--limit", type=int, default=5)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("selftest", help="run the oracle battery")
    p.add_argument("--full", action="store_true", help="full-size oracles (slow)")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("dump-config", help="write the built-in toy config as YAML")
    p.add_argument("path")
    p.set_defaults(fn=cmd_dump_config)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MissingCheckpoint as e:
        print(f"error: checkpoint not found: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
