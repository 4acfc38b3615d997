"""Greedy label assignment: one best (device, slot) pick at a time.

Each iteration adds the label that most increases the number of newly
covered (slot, Y-element) pairs, until every device holds exactly sigma
labels. Zero-gain picks still happen near the end; they are assigned in
lexicographic order so results stay deterministic.

The greedy is lazy (Minoux's accelerated greedy). Each slot keeps the Y
elements it already covers as an int bitset, and a pick's gain is the
device's Y count less the Y elements of its mask already in that bitset.
Slots only fill up, so a gain computed earlier is an upper bound on the
gain now (the objective is monotone submodular over (device, slot)
picks). A max-heap of those bounds therefore only has to recompute the
entries that reach its top: a top entry whose gain is still current
beats every other pair. The picks are exactly those of re-scanning every
pair on every iteration, including both tie-break rules: the lowest
(device index, slot) by default, and a seeded uniform draw over all
pairs of maximal gain, listed in (device index, slot) order.

The pairs of maximal gain are kept in one list, in that order, across
picks; the heap refills it only when it empties (unseeded, with just its
exact top). A pick in slot s changes only slot s's covered set, so only
s's entries in the list are re-scored, and those whose gain fell go back
to the heap; a gain of 0 cannot fall, so a zero-gain pick re-scores
nothing. Late in a run thousands of pairs tie, and no pick pops and
re-pushes them. The greedy domatic partition in `domination` is this
greedy at k = sigma = 1.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from typing import Iterator, NamedTuple

from .schedule import Labeling, ProblemInstance
from .seeds import derive_rng


class GreedyPick(NamedTuple):
    """Device x takes slot label, newly covering gain (slot, Y-element)
    pairs; objective is the running total of the gains."""

    x: int
    label: int
    gain: int
    objective: int


class GreedyResult(NamedTuple):
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
    for no more of them. A pick's iteration is its 1-based position here.
    """
    cov = inst.coverage
    k, sigma = inst.k, inst.sigma
    rng = derive_rng(seed, "greedy-tiebreak") if seed is not None else None

    masks = cov.masks
    sizes = [mask.bit_count() for mask in masks]
    covered = [0] * k  # per slot: bitset of the Y elements covered so far
    version = [0] * k  # bumped whenever covered[lab] grows
    labels: list[set[int]] = [set() for _ in range(cov.n_x)]

    def current(xi: int, lab: int) -> int:
        return sizes[xi] - (masks[xi] & covered[lab]).bit_count()

    # (-gain bound, x, lab, version[lab] when the bound was computed)
    heap = [(-size, xi, lab, 0) for xi, size in enumerate(sizes) for lab in range(k)]
    heapify(heap)
    # open pairs of exact gain `gain` in (x, lab) order; an open pair sits
    # in the heap or here, never both. Seeded, every pair of maximal gain
    # is here and every gain left in the heap is lower.
    ties: list[tuple[int, int]] = []
    gain = 0

    objective = 0
    for _ in range(cov.n_x * sigma):
        # refill: pop to the exact top (its bound is its current gain, so it
        # beats every bound below it), then, seeded, every pair that ties it
        while heap:
            neg, xi, lab, ver = heap[0]
            if ties and (rng is None or -neg < gain):
                break
            if len(labels[xi]) >= sigma:
                heappop(heap)
                continue
            fresh = -neg if ver == version[lab] else current(xi, lab)
            if fresh == -neg:
                heappop(heap)
                ties.append((xi, lab))
                gain = fresh
            else:
                heapreplace(heap, (-fresh, xi, lab, version[lab]))
        draw = rng is not None and len(ties) > 1
        xi, lab = ties.pop(rng.randrange(len(ties)) if draw else 0)
        labels[xi].add(lab)
        covered[lab] |= masks[xi]
        version[lab] += 1
        objective += gain
        yield GreedyPick(xi, lab, gain, objective)
        if len(labels[xi]) == sigma:
            del ties[bisect_left(ties, (xi,)):bisect_left(ties, (xi + 1,))]
        if gain:  # only slot lab's ties can have lost gain, and a gain of 0 cannot
            for tx in [tx for tx, tlab in ties if tlab == lab]:
                fresh = current(tx, lab)
                if fresh < gain:
                    del ties[bisect_left(ties, (tx, lab))]
                    heappush(heap, (-fresh, tx, lab, version[lab]))
