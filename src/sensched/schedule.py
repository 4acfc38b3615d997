"""Activation schedules as label assignments, and their exact scoring.

A schedule over k time slots is equivalent to assigning each device a
set of slot labels: device x is active in slot j iff j is in its label
set. The coverage score is the fraction of (slot, Y-element) pairs that
are covered, computed in exact integer arithmetic; floats appear only
when reports are rendered.

Slot labels are 0-based in memory and 1-based in all text output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .coverage import CoverageGraph, Objective
from .errors import BatteryViolation, InputError, ParseError, VerificationError


def check_k_sigma(k: int, sigma: int) -> None:
    """InputError unless lifetime k and battery sigma satisfy 1 <= sigma <= k."""
    if k < 1:
        raise InputError(f"lifetime k must be >= 1, got {k}")
    if not 1 <= sigma <= k:
        raise InputError(
            f"battery sigma must satisfy 1 <= sigma <= k, got sigma={sigma}, k={k}"
        )


@dataclass(frozen=True)
class ProblemInstance:
    """A coverage graph plus the lifetime k and per-device battery sigma."""

    coverage: CoverageGraph
    k: int
    sigma: int

    def __post_init__(self) -> None:
        check_k_sigma(self.k, self.sigma)

    @property
    def objective(self) -> Objective:
        return self.coverage.objective


class Labeling(NamedTuple):
    """Per-device slot label sets, aligned with the coverage X order."""

    by_x: tuple[frozenset[int], ...]


class ScheduleReport(NamedTuple):
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


def _pairs_told_apart(cov: CoverageGraph, active: list[int]) -> list[int]:
    """Per slot, the isolation pairs its active devices (one bitset per slot) cover.

    Counted from `cov.target_classes()`, so from the detection rows alone.
    """
    sizes = cov.target_classes()
    out = []
    for devices in active:
        groups: dict[int, int] = {}
        for holder, size in sizes.items():
            seen = holder & devices
            groups[seen] = groups.get(seen, 0) + size
        out.append(cov.n_y - sum(n * (n - 1) // 2 for n in groups.values()))
    return out


def score(inst: ProblemInstance, labeling: Labeling) -> ScheduleReport:
    """Average coverage score of a labeling, as an exact fraction.

    One walk over the devices' label sets counts each slot's covered Y
    elements twice. The slot form ORs the active devices' `cov.masks`.
    The covers form reads only the detection rows `cov.covers`, never
    `masks`:
    - detection: a slot covers the union of its active devices' rows;
    - isolation: a pair is covered in slot j iff some device active in j
      covers exactly one of its targets. So the pairs left uncovered are
      those inside the groups of targets that the active devices cannot
      tell apart, the target classes (`cov.target_classes()`) merged by
      which of their holders are active, and the slot covers
      C(m, 2) - sum over groups of C(|group|, 2).
    The two forms are always equal slot by slot; the first slot where
    they differ raises VerificationError.
    """
    validate_labeling(inst, labeling)
    cov, k = inst.coverage, inst.k
    covered = [0] * k  # per slot, the OR of its active devices' masks
    if cov.objective == "detection":
        rows: list[list[frozenset[int]]] = [[] for _ in range(k)]
        for mask, cover, labels in zip(cov.masks, cov.covers, labeling.by_x):
            for lab in labels:
                covered[lab] |= mask
                rows[lab].append(cover)
        counted = [len(frozenset().union(*slot_rows)) for slot_rows in rows]
    else:
        active = [0] * k  # per slot, its active devices as a bitset
        for xi, (mask, labels) in enumerate(zip(cov.masks, labeling.by_x)):
            bit = 1 << xi
            for lab in labels:
                covered[lab] |= mask
                active[lab] |= bit
        counted = _pairs_told_apart(cov, active)
    per_slot = [c.bit_count() for c in covered]
    if per_slot != counted:
        slot = next(j for j in range(k) if per_slot[j] != counted[j])
        raise VerificationError(
            f"slot-form total {sum(per_slot)} and covers total {sum(counted)} diverged, "
            f"first in slot {slot + 1}: {per_slot[slot]} and {counted[slot]} covered"
        )
    potential = sum(per_slot)
    return ScheduleReport(
        k=k,
        n_y=cov.n_y,
        per_slot_covered=tuple(per_slot),
        potential=potential,
        score=Fraction(potential, k * cov.n_y),
    )


def rescored(
    inst: ProblemInstance, labeling: Labeling, claimed: int, solver: str
) -> ScheduleReport:
    """score(inst, labeling); VerificationError unless its potential is claimed.

    claimed is the potential the solver reports for labeling, so the
    printed score and the labeling's report block cannot disagree.
    """
    report = score(inst, labeling)
    if report.potential != claimed:
        raise VerificationError(
            f"{solver} potential {claimed} differs from the re-scored "
            f"potential {report.potential} of its labeling"
        )
    return report


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
