"""Greedy label assignment: one best (device, slot) pick at a time.

Each iteration adds the label that most increases the number of newly
covered (slot, Y-element) pairs, until every device holds exactly sigma
labels. Zero-gain picks still happen near the end; they are assigned in
lexicographic order so results stay deterministic.

The greedy is lazy (Minoux's accelerated greedy). Each slot keeps the Y
elements it already covers as an int bitset, and a pick's gain is the
number of the device's Y elements not yet in that bitset. Slots only
fill up, so a gain computed earlier is an upper bound on the gain now
(the objective is monotone submodular over (device, slot) picks). A
max-heap of those bounds therefore only has to recompute the entries
that reach its top: a top entry whose gain is still current beats every
other pair. The picks are exactly those of re-scanning every pair on
every iteration, including both tie-break rules: the lowest
(device index, slot) by default, and a seeded uniform draw over all
pairs of maximal gain, listed in (device index, slot) order. Once the
best gain is 0, every open pair ties for the rest of the run, so the
seeded draw then runs over a sorted list of the open pairs instead of
emptying and refilling the heap on every pick.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterator

from .schedule import Labeling, ProblemInstance
from .seeds import derive_rng


@dataclass(frozen=True)
class GreedyPick:
    iteration: int
    x: int
    label: int
    gain: int
    objective: int


@dataclass(frozen=True)
class GreedyResult:
    labeling: Labeling
    trace: tuple[GreedyPick, ...]
    objective: int


def greedy_schedule(inst: ProblemInstance, seed: int | None = None) -> GreedyResult:
    """Run the greedy heuristic to a full exactly-sigma labeling.

    Ties between equal-gain (device, slot) pairs break on the lowest
    (device index, slot) by default; passing a seed switches to uniform
    random tie-breaking for variance studies.
    """
    trace = tuple(greedy_picks(inst, seed))
    labels: list[set[int]] = [set() for _ in range(inst.coverage.n_x)]
    for pick in trace:
        labels[pick.x].add(pick.label)
    return GreedyResult(
        labeling=Labeling(tuple(frozenset(s) for s in labels)),
        trace=trace,
        objective=trace[-1].objective if trace else 0,
    )


def greedy_picks(inst: ProblemInstance, seed: int | None = None) -> Iterator[GreedyPick]:
    """The picks of greedy_schedule, in order, each computed when asked for.

    A caller that needs only the first few picks stops early and pays
    for no more of them.
    """
    cov = inst.coverage
    k, sigma = inst.k, inst.sigma
    rng = derive_rng(seed, "greedy-tiebreak") if seed is not None else None

    masks = cov.masks
    covered = [0] * k  # per slot: bitset of the Y elements covered so far
    version = [0] * k  # bumped whenever covered[lab] grows
    labels: list[set[int]] = [set() for _ in range(cov.n_x)]
    # (-gain bound, x, lab, version[lab] when the bound was computed);
    # every (x, lab) still open sits in the heap exactly once.
    heap = [
        (-size, xi, lab, 0)
        for xi, size in enumerate(mask.bit_count() for mask in masks)
        for lab in range(k)
    ]
    heapify(heap)

    def refresh(neg: int, xi: int, lab: int, ver: int) -> int:
        if ver == version[lab]:
            return -neg
        return (masks[xi] & ~covered[lab]).bit_count()

    objective = 0
    # seeded only: every open (x, lab) pair in (x, lab) order, once the
    # best gain is 0 and so every open pair ties for the rest of the run
    tail: list[tuple[int, int]] | None = None
    total_picks = cov.n_x * sigma
    for iteration in range(1, total_picks + 1):
        if tail is None:
            while True:
                neg, xi, lab, ver = heappop(heap)
                if len(labels[xi]) >= sigma:
                    continue
                gain = refresh(neg, xi, lab, ver)
                if gain == -neg:
                    break
                heappush(heap, (-gain, xi, lab, version[lab]))
            if rng is not None and gain == 0:
                tail = sorted(
                    [(xi, lab)]
                    + [(tx, tlab) for _, tx, tlab, _ in heap if len(labels[tx]) < sigma]
                )
        if tail is not None:  # gain stays 0
            xi, lab = tail.pop(rng.randrange(len(tail)) if len(tail) > 1 else 0)
            if len(labels[xi]) == sigma - 1:
                del tail[bisect_left(tail, (xi,)):bisect_left(tail, (xi + 1,))]
        elif rng is not None:
            # Every other pair of maximal gain has a bound equal to it, so
            # it is still in the heap and pops next, in (x, lab) order.
            ties = [(xi, lab)]
            while heap and -heap[0][0] >= gain:
                neg, tx, tlab, ver = heappop(heap)
                if len(labels[tx]) >= sigma:
                    continue
                other = refresh(neg, tx, tlab, ver)
                if other == gain:
                    ties.append((tx, tlab))
                else:
                    heappush(heap, (-other, tx, tlab, version[tlab]))
            if len(ties) > 1:
                xi, lab = ties.pop(rng.randrange(len(ties)))
                for tx, tlab in ties:
                    heappush(heap, (-gain, tx, tlab, version[tlab]))
        labels[xi].add(lab)
        covered[lab] |= masks[xi]
        version[lab] += 1
        objective += gain
        yield GreedyPick(iteration, xi, lab, gain, objective)
