"""Activation schedules as label assignments, and their exact scoring.

A schedule over k time slots is equivalent to assigning each device a
set of slot labels: device x is active in slot j iff j is in its label
set. The coverage score is the fraction of (slot, Y-element) pairs that
are covered, computed in exact integer arithmetic; floats appear only
when reports are rendered.

Slot labels are 0-based in memory and 1-based in all text output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .coverage import CoverageGraph, Objective
from .errors import BatteryViolation, InputError, ModeError, ParseError, VerificationError


@dataclass(frozen=True)
class ProblemInstance:
    """A coverage graph plus the lifetime k and per-device battery sigma."""

    coverage: CoverageGraph
    k: int
    sigma: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError(f"lifetime k must be >= 1, got {self.k}")
        if not 1 <= self.sigma <= self.k:
            raise InputError(
                f"battery sigma must satisfy 1 <= sigma <= k, got "
                f"sigma={self.sigma}, k={self.k}"
            )

    @property
    def objective(self) -> Objective:
        return self.coverage.objective


@dataclass(frozen=True)
class Labeling:
    """Per-device slot label sets, aligned with the coverage X order."""

    by_x: tuple[frozenset[int], ...]

    @staticmethod
    def empty(n_x: int) -> "Labeling":
        return Labeling(tuple(frozenset() for _ in range(n_x)))

    @staticmethod
    def uniform(n_x: int, labels: Iterable[int]) -> "Labeling":
        full = frozenset(labels)
        return Labeling(tuple(full for _ in range(n_x)))

    def with_label(self, x: int, label: int) -> "Labeling":
        sets = list(self.by_x)
        sets[x] = sets[x] | {label}
        return Labeling(tuple(sets))


@dataclass(frozen=True)
class ScheduleReport:
    """Scoring breakdown for one labeling."""

    k: int
    n_y: int
    per_slot_covered: tuple[int, ...]
    potential: int
    score: Fraction


def validate_labeling(inst: ProblemInstance, labeling: Labeling) -> None:
    """Reject label sets out of range or over the battery limit.

    Each distinct label set is checked once; only when one fails are the
    devices walked in order, so the error names the first bad device and
    lists every offender.
    """
    cov = inst.coverage
    if len(labeling.by_x) != cov.n_x:
        raise InputError(
            f"labeling covers {len(labeling.by_x)} devices, instance has {cov.n_x}"
        )
    slots, sigma = frozenset(range(inst.k)), inst.sigma
    if all(len(labels) <= sigma and labels <= slots for labels in set(labeling.by_x)):
        return
    offenders = []
    for xi, labels in enumerate(labeling.by_x):
        for lab in labels:
            if not 0 <= lab < inst.k:
                raise InputError(
                    f"device {cov.x_names[xi]} has slot {lab + 1} outside 1..{inst.k}"
                )
        if len(labels) > inst.sigma:
            offenders.append(cov.x_names[xi])
    if offenders:
        raise BatteryViolation(offenders, inst.sigma)


def slot_sets(labeling: Labeling, k: int) -> tuple[frozenset[int], ...]:
    """Active device indices per slot: S_j = {x : j in labels(x)}."""
    sets: list[set[int]] = [set() for _ in range(k)]
    for xi, labels in enumerate(labeling.by_x):
        for lab in labels:
            sets[lab].add(xi)
    return tuple(frozenset(s) for s in sets)


def labeling_from_slots(slots: Sequence[Iterable[int]], n_x: int) -> Labeling:
    """Inverse of slot_sets."""
    sets: list[set[int]] = [set() for _ in range(n_x)]
    for j, active in enumerate(slots):
        for xi in active:
            sets[xi].add(j)
    return Labeling(tuple(frozenset(s) for s in sets))


def covered_slots(labeling: Labeling, cov: CoverageGraph, y: int) -> frozenset[int]:
    """Slots in which Y element y is covered: union of its neighbors' labels."""
    if not 0 <= y < cov.n_y:
        raise InputError(f"unknown y index: {y}")
    out: set[int] = set()
    for xi in cov.rev[y]:
        out |= labeling.by_x[xi]
    return frozenset(out)


def _label_form_total(cov: CoverageGraph, labeling: Labeling, k: int) -> int:
    """Sum over y of the slots in which y is covered, from `cov.covers` alone.

    Detection: each device with a non-empty label set ORs that set's
    k-bit value, looked up once per distinct set, into the entry of
    every target it covers. Isolation groups the targets into classes
    by their set of covering devices: no device separates two targets of
    one class, and the devices separating a target of class A from one
    of class B are those holding exactly one of A and B. So an entry is
    kept per class pair {A, B}, standing for |A| * |B| pairs, as k-bit
    field B of class A's row int and field A of B's. The devices active
    in slot j separate A from B iff A and B differ in which of them they
    hold: per slot, the classes are split by that, and each class sets
    bit j in the fields of every class outside its part. That is one OR
    per class and slot, however many devices and label sets there are.
    """
    if cov.objective == "detection":
        bits_of = {labels: sum(1 << lab for lab in labels) for labels in set(labeling.by_x)}
        slots_of_y = [0] * cov.n_y
        for ys, labels in zip(cov.covers, labeling.by_x):
            if labels:
                bits = bits_of[labels]
                for y in ys:
                    slots_of_y[y] |= bits
        return sum(map(int.bit_count, slots_of_y))
    holders = [0] * len(cov.targets)
    for xi, cover in enumerate(cov.covers):
        bit = 1 << xi
        for t in cover:
            holders[t] |= bit
    sizes = Counter(holders)
    classes = list(sizes)
    fields = [1 << (i * k) for i in range(len(classes))]
    every = sum(fields)
    active = [0] * k  # per slot, its active devices as a bitset
    for xi, labels in enumerate(labeling.by_x):
        for lab in labels:
            active[lab] |= 1 << xi
    rows = [0] * len(classes)
    for lab, devices in enumerate(active):
        parts: dict[int, list[int]] = {}
        for i, holder in enumerate(classes):
            parts.setdefault(holder & devices, []).append(i)
        if len(parts) > 1:
            for part in parts.values():
                outside = (every - sum(fields[i] for i in part)) << lab
                for i in part:
                    rows[i] |= outside
    # sum over ordered class pairs (A, B) of |A| * |B| * popcount(field B of row A),
    # reading the fields of all classes B of one size with one AND
    width = (1 << k) - 1
    by_size: dict[int, int] = {}
    for f, holder in zip(fields, classes):
        by_size[sizes[holder]] = by_size.get(sizes[holder], 0) | f * width
    ordered = sum(
        sizes[holder] * size * (row & same_size).bit_count()
        for row, holder in zip(rows, classes)
        for size, same_size in by_size.items()
    )
    return ordered // 2


def score(inst: ProblemInstance, labeling: Labeling) -> ScheduleReport:
    """Average coverage score of a labeling, as an exact fraction.

    Computes the per-slot form (sum over slots of covered Y counts, the
    OR of the active devices' `cov.masks`) and, independently, the
    label-set form (sum over y of covered slot counts, from the
    detection rows `cov.covers` without reading `masks`; see
    `_label_form_total`); the two are always equal, and a mismatch
    raises VerificationError.
    """
    validate_labeling(inst, labeling)
    cov = inst.coverage
    potential = _label_form_total(cov, labeling, inst.k)
    covered = [0] * inst.k
    for mask, labels in zip(cov.masks, labeling.by_x):
        for lab in labels:
            covered[lab] |= mask
    per_slot = [c.bit_count() for c in covered]
    if sum(per_slot) != potential:
        raise VerificationError(
            f"slot-form total {sum(per_slot)} and label-form total {potential} diverged"
        )
    return ScheduleReport(
        k=inst.k,
        n_y=cov.n_y,
        per_slot_covered=tuple(per_slot),
        potential=potential,
        score=Fraction(potential, inst.k * cov.n_y),
    )


def expected_detection(inst: ProblemInstance, labeling: Labeling) -> Fraction:
    """Mean over targets of the fraction of slots in which each is covered.

    Detection mode only. Each target's fraction is its count of covered
    slots over k, so the mean is the label-form total over k*|Y|, which
    is score().score.
    """
    if inst.objective != "detection":
        raise ModeError("expected_detection is defined for detection instances only")
    return score(inst, labeling).score


def format_score(value: Fraction) -> str:
    """Exact fraction plus 6-significant-digit decimal, e.g. `2/3 (0.666667)`."""
    return f"{value.numerator}/{value.denominator} ({float(value):.6g})"


# --- label-table text format -------------------------------------------------
#
# One body line per name: `name: 1,3` (1-based slots, sorted; empty set is
# `name:`). Lines starting with `#` are report/comment lines and are ignored
# by the parser, so emitted files round-trip through parse_label_table.


def format_label_table(
    names: Sequence[str],
    label_sets: Sequence[frozenset[int]],
    report_lines: Iterable[str] = (),
) -> str:
    lines = [f"# {line}" for line in report_lines]
    for name, labels in zip(names, label_sets):
        slots = ",".join(str(lab + 1) for lab in sorted(labels))
        lines.append(f"{name}: {slots}".rstrip())
    return "\n".join(lines) + "\n"


def parse_label_table(text: str) -> dict[str, frozenset[int]]:
    out: dict[str, frozenset[int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(line_no, f"expected `name: slots`, got {raw!r}")
        name, _, rest = line.partition(":")
        name = name.strip()
        if not name:
            raise ParseError(line_no, "empty name before ':'")
        if name in out:
            raise ParseError(line_no, f"duplicate entry for {name!r}")
        labels: set[int] = set()
        rest = rest.strip()
        if rest:
            for token in rest.split(","):
                token = token.strip()
                try:
                    slot = int(token)
                except ValueError:
                    raise ParseError(line_no, f"bad slot number {token!r}") from None
                if slot < 1:
                    raise ParseError(line_no, f"slot numbers are 1-based, got {slot}")
                labels.add(slot - 1)
        out[name] = frozenset(labels)
    return out


def format_labeling(
    inst: ProblemInstance, labeling: Labeling, report: ScheduleReport | None = None
) -> str:
    """Render a labeling with its report block as comment lines."""
    if report is None:
        report = score(inst, labeling)
    header = [
        f"objective: {inst.objective}",
        f"k: {inst.k}",
        f"sigma: {inst.sigma}",
        f"per-slot-covered: {','.join(str(c) for c in report.per_slot_covered)}",
        f"potential: {report.potential}",
        f"score: {format_score(report.score)}",
    ]
    return format_label_table(inst.coverage.x_names, labeling.by_x, header)


def parse_labeling(text: str, cov: CoverageGraph) -> Labeling:
    """Parse a label table back into a Labeling aligned with cov's X order."""
    table = parse_label_table(text)
    unknown = sorted(set(table) - set(cov.x_names))
    if unknown:
        raise InputError(f"labeling names not in coverage: {', '.join(unknown)}")
    return Labeling(
        tuple(table.get(name, frozenset()) for name in cov.x_names)
    )


def labeling_from_names(
    cov: CoverageGraph, table: Mapping[str, Iterable[int]]
) -> Labeling:
    """Build a labeling from {device name: 1-based slot numbers}."""
    unknown = sorted(set(table) - set(cov.x_names))
    if unknown:
        raise InputError(f"unknown device names: {', '.join(unknown)}")
    by_name = {name: frozenset(s - 1 for s in slots) for name, slots in table.items()}
    return Labeling(tuple(by_name.get(name, frozenset()) for name in cov.x_names))
