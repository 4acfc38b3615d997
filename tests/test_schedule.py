import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensched.coverage import build_detection, build_isolation
from sensched.errors import BatteryViolation, InputError, ModeError, VerificationError
from sensched.graph import all_edge_targets
from sensched.schedule import (
    Labeling,
    ProblemInstance,
    covered_slots,
    expected_detection,
    format_label_table,
    format_labeling,
    format_score,
    labeling_from_names,
    labeling_from_slots,
    parse_label_table,
    parse_labeling,
    score,
    slot_sets,
)
from sensched.seeds import derive_rng
from sensched.verify import random_instance, random_labeling

from ._brute import brute_potential, brute_score, brute_slot_potential

SRC = Path(__file__).resolve().parent.parent / "src"


def test_instance_validation(path4_instance):
    cov = path4_instance.coverage
    with pytest.raises(InputError):
        ProblemInstance(cov, k=0, sigma=1)
    with pytest.raises(InputError):
        ProblemInstance(cov, k=2, sigma=3)
    with pytest.raises(InputError):
        ProblemInstance(cov, k=2, sigma=0)


def test_slot_sets_fixture():
    lab = Labeling((frozenset({0, 2}), frozenset({1, 2})))
    assert slot_sets(lab, 3) == (
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    )


def test_slot_sets_empty():
    lab = Labeling.empty(3)
    assert slot_sets(lab, 2) == (frozenset(), frozenset())


@given(
    st.lists(st.frozensets(st.integers(0, 3), max_size=4), min_size=1, max_size=6)
)
@settings(max_examples=100)
def test_slot_sets_round_trip(sets):
    lab = Labeling(tuple(sets))
    assert labeling_from_slots(slot_sets(lab, 4), len(sets)) == lab


def test_covered_slots_cases(path4_instance):
    cov = path4_instance.coverage
    lab = Labeling((frozenset({0}), frozenset({1})))
    assert covered_slots(lab, cov, 0) == frozenset({0})
    assert covered_slots(lab, cov, 1) == frozenset({0, 1})
    assert covered_slots(lab, cov, 2) == frozenset({1})


def test_covered_slots_no_neighbors(path4):
    from sensched.graph import Target

    cov = build_detection(path4, [0], [Target("node", 3)], 0)
    lab = Labeling((frozenset({0}),))
    assert covered_slots(lab, cov, 0) == frozenset()


def test_score_path_fixture(path4_instance):
    report = score(path4_instance, Labeling((frozenset({0}), frozenset({1}))))
    assert report.per_slot_covered == (2, 2)
    assert report.potential == 4
    assert report.score == Fraction(2, 3)


def test_score_saturation(path4_instance):
    inst = ProblemInstance(path4_instance.coverage, k=2, sigma=2)
    report = score(inst, Labeling.uniform(2, {0, 1}))
    assert report.score == 1


def test_score_empty(path4_instance):
    report = score(path4_instance, Labeling.empty(2))
    assert report.score == 0
    assert report.per_slot_covered == (0, 0)


def test_score_battery_violation(path4_instance):
    lab = Labeling((frozenset({0, 1}), frozenset({0})))
    with pytest.raises(BatteryViolation) as err:
        score(path4_instance, lab)
    assert "2" in str(err.value)


def test_score_label_out_of_range(path4_instance):
    with pytest.raises(InputError):
        score(path4_instance, Labeling((frozenset({5}), frozenset())))


def test_score_errors_name_devices_in_order(petersen):
    cov = build_detection(petersen, range(10), all_edge_targets(petersen), 1)
    inst = ProblemInstance(cov, k=4, sigma=2)
    ok, wide = frozenset({0, 1}), frozenset({0, 1, 2})
    # an over-battery device comes first, and two different sets are out of range
    sets = [ok, wide, ok, frozenset({1, 7}), ok, frozenset({9}), ok, ok, ok, ok]
    with pytest.raises(InputError, match=f"device {cov.x_names[3]} has slot 8 outside 1..4"):
        score(inst, Labeling(tuple(sets)))
    sets = [wide, ok, frozenset({3, 2, 1}), ok, wide, ok, frozenset(range(4)), ok, ok, ok]
    with pytest.raises(BatteryViolation) as err:
        score(inst, Labeling(tuple(sets)))
    assert err.value.offenders == [cov.x_names[i] for i in (0, 2, 4, 6)]


def test_score_raises_on_corrupted_masks():
    rng = derive_rng(14, "corrupt-masks")
    raised = 0
    for _ in range(40):
        inst = random_instance(rng)
        cov = inst.coverage
        lab = random_labeling(rng, inst, exact=True)
        masks = list(cov.masks)
        x = rng.randrange(cov.n_x)
        if not masks[x]:
            continue
        masks[x] &= masks[x] - 1  # drop its lowest Y element
        vars(cov)["masks"] = tuple(masks)  # overrides the cached property
        expect = brute_slot_potential(cov, lab.by_x, inst.k)
        try:
            report = score(inst, lab)
        except VerificationError:
            raised += 1
        else:
            # the dropped element was covered in every slot of x by another device
            assert report.potential == expect
    assert raised > 10


def test_score_wrong_width(path4_instance):
    with pytest.raises(InputError):
        score(path4_instance, Labeling.empty(3))


def test_expected_detection_fixture(path4_instance):
    q = expected_detection(path4_instance, Labeling((frozenset({0}), frozenset({1}))))
    assert q == Fraction(2, 3)


def test_expected_detection_full_coverage(path4_instance):
    inst = ProblemInstance(path4_instance.coverage, k=2, sigma=2)
    assert expected_detection(inst, Labeling.uniform(2, {0, 1})) == 1


def test_expected_detection_half(path4):
    from sensched.graph import Target

    cov = build_detection(path4, [1], [Target("edge", 0)], 1)
    inst = ProblemInstance(cov, k=2, sigma=1)
    assert expected_detection(inst, Labeling((frozenset({0}),))) == Fraction(1, 2)


def test_expected_detection_mode_error(path4):
    cov = build_isolation(path4, [1, 2], all_edge_targets(path4), 1)
    inst = ProblemInstance(cov, k=2, sigma=1)
    with pytest.raises(ModeError):
        expected_detection(inst, Labeling.empty(2))


def test_expected_detection_matches_per_target_mean():
    rng = derive_rng(13, "expected-detection")
    for _ in range(30):
        inst = random_instance(rng, allow_isolation=False)
        lab = random_labeling(rng, inst)
        cov = inst.coverage
        assert expected_detection(inst, lab) == Fraction(
            brute_potential(cov, lab.by_x), inst.k * cov.n_y
        )


def test_slot_form_mismatch_raises_under_optimize():
    code = """
import sys
from sensched import schedule
from sensched.coverage import build_detection
from sensched.errors import VerificationError
from sensched.graph import NetworkGraph, all_edge_targets

assert False, "asserts must be stripped in this interpreter"
g = NetworkGraph(["1", "2", "3"], [("1", "2"), ("2", "3")])
inst = schedule.ProblemInstance(build_detection(g, [1], all_edge_targets(g), 1), 2, 1)
vars(inst.coverage)["masks"] = (0,)  # overrides the cached property
try:
    schedule.score(inst, schedule.Labeling((frozenset({0}),)))
except VerificationError as exc:
    print("raised:", exc)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: slot-form total 0")


def test_dual_form_matches_brute_force():
    rng = derive_rng(11, "dual")
    for _ in range(40):
        inst = random_instance(rng)
        lab = random_labeling(rng, inst)
        report = score(inst, lab)
        assert report.potential == brute_slot_potential(
            inst.coverage, lab.by_x, inst.k
        )
        assert report.score == brute_score(inst.coverage, lab.by_x, inst.k)


def test_score_monotone_in_labels():
    rng = derive_rng(12, "monotone")
    for _ in range(25):
        inst = random_instance(rng)
        lab = random_labeling(rng, inst)
        base = score(inst, lab).score
        candidates = [
            (xi, lab_id)
            for xi in range(inst.coverage.n_x)
            if len(lab.by_x[xi]) < inst.sigma
            for lab_id in range(inst.k)
            if lab_id not in lab.by_x[xi]
        ]
        if not candidates:
            continue
        xi, lab_id = candidates[rng.randrange(len(candidates))]
        assert score(inst, lab.with_label(xi, lab_id)).score >= base


def test_score_bounds_and_perfect_requires_coverage():
    rng = derive_rng(13, "bounds")
    for _ in range(25):
        inst = random_instance(rng)
        lab = random_labeling(rng, inst, exact=True)
        value = score(inst, lab).score
        assert 0 <= value <= 1
        if value == 1:
            assert all(inst.coverage.rev[y] for y in range(inst.coverage.n_y))


def test_format_score():
    assert format_score(Fraction(2, 3)) == "2/3 (0.666667)"
    assert format_score(Fraction(1)) == "1/1 (1)"


def test_label_table_round_trip(path4_instance):
    lab = Labeling((frozenset({0}), frozenset({1})))
    text = format_labeling(path4_instance, lab)
    assert parse_labeling(text, path4_instance.coverage) == lab


def test_label_table_empty_sets():
    text = format_label_table(["a", "b"], [frozenset(), frozenset({2})])
    assert text == "a:\nb: 3\n"
    assert parse_label_table(text) == {"a": frozenset(), "b": frozenset({2})}


def test_label_table_parse_errors():
    from sensched.errors import ParseError

    with pytest.raises(ParseError):
        parse_label_table("no separator line")
    with pytest.raises(ParseError):
        parse_label_table("a: x,y")
    with pytest.raises(ParseError):
        parse_label_table("a: 0")
    with pytest.raises(ParseError):
        parse_label_table("a: 1\na: 2")


def test_parse_labeling_unknown_name(path4_instance):
    with pytest.raises(InputError):
        parse_labeling("zz: 1\n", path4_instance.coverage)


def test_labeling_from_names(path4_instance):
    lab = labeling_from_names(path4_instance.coverage, {"2": [1], "3": [2]})
    assert lab == Labeling((frozenset({0}), frozenset({1})))
    with pytest.raises(InputError):
        labeling_from_names(path4_instance.coverage, {"9": [1]})
