import numpy as np
import pytest

from fastpoint import geometry
from fastpoint.evalkit import (EvalConfig, EvalGt, MissingFrame, average_precision,
                               evaluate, evaluate_table, format_table,
                               match_detections)
from fastpoint.geometry import Box3D
from fastpoint.postprocess import Detection


def box_at(x, y=0.0):
    return Box3D(x, y, 0.0, 4.0, 2.0, 1.5, 0.0)


def iou3d(a, b):
    return geometry.iou_3d(a, b)


def test_match_perfect_detection_is_tp():
    gts = [EvalGt(box_at(0))]
    dets = [Detection(box_at(0), 0.9)]
    tp, fp, matched = match_detections(dets, gts, iou3d, 0.7)
    assert tp.tolist() == [True] and fp.tolist() == [False]
    assert matched.tolist() == [0]


def test_match_each_gt_claimed_once():
    gts = [EvalGt(box_at(0))]
    dets = [Detection(box_at(0), 0.9), Detection(box_at(0.1), 0.8)]
    tp, fp, matched = match_detections(dets, gts, iou3d, 0.5)
    assert tp.tolist() == [True, False]
    assert fp.tolist() == [False, True]
    assert matched.tolist() == [0, -1]


def test_match_picks_highest_iou_gt():
    gts = [EvalGt(box_at(1.0)), EvalGt(box_at(0.2))]
    dets = [Detection(box_at(0), 0.9)]
    tp, _, matched = match_detections(dets, gts, iou3d, 0.1)
    assert tp[0] and matched[0] == 1


def test_match_ignored_gt_neither_tp_nor_fp():
    gts = [EvalGt(box_at(0), ignored=True)]
    dets = [Detection(box_at(0), 0.9)]
    tp, fp, matched = match_detections(dets, gts, iou3d, 0.5)
    assert not tp[0] and not fp[0]
    assert matched[0] == 0


def test_match_prefers_real_gt_over_ignored():
    gts = [EvalGt(box_at(0), ignored=True), EvalGt(box_at(0.3))]
    dets = [Detection(box_at(0), 0.9)]
    tp, fp, matched = match_detections(dets, gts, iou3d, 0.3)
    assert tp[0] and matched[0] == 1


def test_match_below_threshold_is_fp():
    gts = [EvalGt(box_at(0))]
    dets = [Detection(box_at(10.0), 0.9)]
    tp, fp, _ = match_detections(dets, gts, iou3d, 0.5)
    assert not tp[0] and fp[0]


def test_ap_hand_case_six_elevenths():
    # TP then FP over two gts: recall plateaus at 0.5, so the six recall
    # points 0.0 .. 0.5 interpolate to precision 1 and the rest to 0
    tp = np.array([True, False])
    fp = np.array([False, True])
    ap = average_precision(tp, fp, n_gt=2, mode="R11")
    assert ap == pytest.approx(6.0 / 11.0, abs=1e-12)


def test_ap_late_tp_hand_value():
    # FP then TP over one gt: every recall point sees max precision 0.5
    ap = average_precision(np.array([False, True]), np.array([True, False]), 1)
    assert ap == pytest.approx(0.5, abs=1e-12)


def test_ap_perfect_single_detection():
    ap = average_precision(np.array([True]), np.array([False]), 1)
    assert ap == pytest.approx(1.0, abs=1e-12)


def test_ap_no_gt_or_no_dets_is_zero():
    assert average_precision(np.array([], dtype=bool), np.array([], dtype=bool), 5) == 0.0
    assert average_precision(np.array([True]), np.array([False]), 0) == 0.0


def test_ap_rejects_negative_gt_count():
    with pytest.raises(ValueError):
        average_precision(np.array([True]), np.array([False]), -1)


def test_ap_r40_mode_differs():
    tp = np.array([True, False, True])
    fp = ~tp
    r11 = average_precision(tp, fp, 2, "R11")
    r40 = average_precision(tp, fp, 2, "R40")
    assert 0 < r40 < 1 and 0 < r11 < 1
    assert r11 != pytest.approx(r40)


def test_ap_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown AP mode 'R12'"):
        average_precision(np.array([True]), np.array([False]), 1, "R12")


def test_ap_monotone_in_extra_tp():
    base_tp = np.array([True, False])
    base_fp = ~base_tp
    better_tp = np.array([True, True])
    better_fp = ~better_tp
    assert average_precision(better_tp, better_fp, 2) > \
        average_precision(base_tp, base_fp, 2)


def test_evaluate_three_frame_hand_built_pr():
    # frame a: gt hit; frame b: gt missed + fp; frame c: gt hit at lower score
    frames = {
        "a": ([Detection(box_at(0), 0.9)], [EvalGt(box_at(0))]),
        "b": ([Detection(box_at(30), 0.8)], [EvalGt(box_at(0))]),
        "c": ([Detection(box_at(0), 0.7)], [EvalGt(box_at(0))]),
    }
    ap = evaluate(frames, EvalConfig("3D", 0.5))
    # pooled order by score: TP, FP, TP over 3 gts
    # recall 1/3 -> p 1; recall 2/3 -> p 2/3; recall 1 unreached
    want = (4 * 1.0 + 3 * (2.0 / 3.0) + 4 * 0.0) / 11.0
    assert ap == pytest.approx(want, abs=1e-12)


def test_evaluate_missing_frame_raises():
    with pytest.raises(MissingFrame):
        evaluate({"a": None}, EvalConfig())


def test_evaluate_difficulty_filter_ignores_other_tiers():
    frames = {"a": ([Detection(box_at(0), 0.9)],
                    [EvalGt(box_at(0), difficulty="hard")])}
    assert evaluate(frames, EvalConfig("3D", 0.5, difficulty="easy")) == 0.0
    assert evaluate(frames, EvalConfig("3D", 0.5, difficulty="hard")) == \
        pytest.approx(1.0)


def test_evaluate_range_bucket_half_open():
    near = EvalGt(box_at(5.0))
    far = EvalGt(box_at(30.0))
    frames = {"a": ([Detection(box_at(5.0), 0.9), Detection(box_at(30.0), 0.8)],
                    [near, far])}
    ap_near = evaluate(frames, EvalConfig("3D", 0.5, range_bucket=(0.0, 10.0)))
    assert ap_near == pytest.approx(1.0)
    # detection of the out-of-bucket gt is matched to an ignored gt: no FP
    ap_edge = evaluate(frames, EvalConfig("3D", 0.5, range_bucket=(0.0, 5.0)))
    assert ap_edge == 0.0     # 5.0 excluded by the half-open upper bound


def test_evaluate_bev_metric_insensitive_to_height():
    tall = Box3D(0, 0, 5.0, 4, 2, 1.5, 0)   # vertically disjoint from gt
    frames = {"a": ([Detection(tall, 0.9)], [EvalGt(box_at(0))])}
    assert evaluate(frames, EvalConfig("3D", 0.5)) == 0.0
    assert evaluate(frames, EvalConfig("BEV", 0.5)) == pytest.approx(1.0)


def test_evaluate_rejects_unknown_metric():
    with pytest.raises(ValueError):
        evaluate({}, EvalConfig(metric="4D"))


@pytest.mark.parametrize("kwargs, match", [({"metric": "4D"}, "unknown metric '4D'"),
                                           ({"ap_mode": "R12"}, "unknown AP mode 'R12'")])
def test_eval_config_rejects_unknown_metric_and_ap_mode_when_built(kwargs, match):
    with pytest.raises(ValueError, match=match):
        EvalConfig(**kwargs)


def test_evaluate_table_and_format():
    frames = {"a": ([Detection(box_at(0), 0.9)], [EvalGt(box_at(0))])}
    table = evaluate_table(frames, metrics=("3D", "BEV"), iou_threshs=(0.5, 0.7))
    assert set(table) == {("3D", 0.5, None, None), ("3D", 0.7, None, None),
                          ("BEV", 0.5, None, None), ("BEV", 0.7, None, None)}
    text = format_table(table)
    assert text.splitlines()[0] == "metric iou difficulty range ap"
    assert "3D 0.5 all all 1.000000" in text
