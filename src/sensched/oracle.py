"""The exact ground-truth solver for tiny instances.

`exact_optimal_schedule` runs one depth-first branch and bound (Land and
Doig, 1960) over the canonical labelings, whose labels enter in order (a
value-symmetry break for interchangeable values): the objective does not
change when the k slots are permuted, so this finds the best potential
of the whole space. No slot permutation is listed. The first optimum of
the whole space in lexicographic order is canonical, so it is the first
canonical optimum, and the number of optima is a sum of closed-form
class sizes over the canonical optima (`_class_size`). A subtree is cut
only when it cannot change the result, so the first optimum, the count
and the truncation flag are those of enumerating every labeling. It is
the reference every heuristic is measured against, and the optimum that
`verify.reduction_check` compares with the max-cut formula; the same
search proves or refutes (k, sigma) label configurations in
`domination.search_config`. All comparisons are exact (integers and
fractions); there is no floating point anywhere on this path.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .errors import SearchSpaceError
from .schedule import Labeling, ProblemInstance, ScheduleReport, rescored

SPACE_LIMIT = 10_000_000  # labelings; larger spaces are refused


class OracleResult(NamedTuple):
    """The optimum of the whole space; `report` holds its potential and score."""

    optimum: Labeling  # the first optimum in lexicographic order
    n_optima: int  # the number of optima, capped at max_optima
    space: int
    truncated: bool  # more than max_optima optima
    report: ScheduleReport  # schedule.rescored of optimum against the search's best


class _SearchResult(NamedTuple):
    best: int  # the floor when no labeling reached it
    optima: tuple[Labeling, ...]
    truncated: bool
    capped: bool  # the node cap stopped the walk; nothing is proven
    nodes: int  # label sets tried


def _branch_and_bound(
    inst: ProblemInstance,
    floor: int,
    max_optima: int,
    node_cap: float = math.inf,
    first: bool = False,
    canonical: bool = False,
) -> _SearchResult:
    """Depth-first search over exactly-sigma labelings in lexicographic order.

    Devices are assigned in index order, each trying the label sets of
    combinations(range(k), sigma) in turn. Only labelings with potential
    >= floor are kept: the highest potential reached and, in visiting
    order, up to max_optima labelings that reach it (`truncated` if more
    did). Before device x is assigned, its subtree is cut when
    phi + min(sum_j |R_x & ~covered_j|, sigma * sum_{x' >= x} |mask(x')|)
    is strictly below the best so far, where R_x is the OR of the masks of
    devices x.. and covered_j is slot j's covered set. Each term caps
    what devices x.. can still add, so no labeling that ties the best is
    cut while a tie can still change the result; once `truncated` is set
    only a strictly better labeling can, and the cut is one tighter.
    A device that is not cut computes its gain |mask(x) & ~covered_j| in
    each slot once, and a label set gains the sum of its sigma entries;
    the last device's label sets are scored in its own loop, so a
    complete labeling costs no call and no update of covered.

    With `first`, the walk stops at the first labeling that reaches the
    floor. With `canonical`, only labelings whose labels enter in order
    are walked: when devices before x use exactly labels 0..m-1, the new
    labels of device x must be m, m+1, ... Every labeling is a slot
    permutation of such a canonical one with the same potential, so the
    best potential is that of the whole space, and the optima are the
    first canonical optima in lexicographic order (`_class_size` counts
    the labelings each stands for).
    Each label set tried counts one node; past node_cap the walk stops
    and `capped` is set.
    """
    cov = inst.coverage
    n, k = cov.n_x, inst.k
    actions = list(combinations(range(k), inst.sigma))
    # choices[m]: with labels 0..m-1 in use, each label set after which
    # the labels in use are again 0..m'-1, with that m'; for m = k, all
    choices = []
    for m in range(k + 1):
        after = ((a, m + sum(lab >= m for lab in a)) for a in actions)
        choices.append([(a, m_after) for a, m_after in after if a[-1] < m_after])
    masks = cov.masks
    reach = [0] * (n + 1)  # OR of masks[x:]
    room = [0] * (n + 1)  # sigma * sum of |masks[x']| for x' >= x
    for x in range(n - 1, -1, -1):
        reach[x] = reach[x + 1] | masks[x]
        room[x] = room[x + 1] + inst.sigma * masks[x].bit_count()
    covered = [0] * k  # per slot: bitset of the Y elements covered so far
    current: list[tuple[int, ...]] = [()] * n
    best = floor
    optima: list[tuple[tuple[int, ...], ...]] = []
    truncated = False
    nodes = 0
    last = n - 1

    def walk(x: int, phi: int, used: int) -> bool:
        """Search below device x with labels 0..used-1 in use; True stops the walk."""
        nonlocal best, truncated, nodes
        slack = best - phi + truncated
        if room[x] < slack:
            return False
        rest = reach[x]
        if sum((rest & ~c).bit_count() for c in covered) < slack:
            return False
        mask = masks[x]
        gains = [(mask & ~c).bit_count() for c in covered]
        for action, now_used in choices[used]:
            nodes += 1
            if nodes > node_cap:
                return True
            current[x] = action
            value = phi
            for lab in action:
                value += gains[lab]
            if x < last:
                saved = [covered[lab] for lab in action]
                for lab in action:
                    covered[lab] |= mask
                stop = walk(x + 1, value, now_used)
                for lab, before in zip(action, saved):
                    covered[lab] = before
                if stop:
                    return True
            elif value > best:
                best = value
                optima[:] = [tuple(current)]
                truncated = False
                if first:
                    return True
            elif value == best and len(optima) < max_optima:
                optima.append(tuple(current))
                if first:
                    return True
            elif value == best:
                truncated = True
        return False

    walk(0, 0, 0 if canonical else k)
    labelings = tuple(Labeling(tuple(map(frozenset, a))) for a in optima)
    return _SearchResult(best, labelings, truncated, nodes > node_cap, nodes)


def _class_size(canonical: Labeling, k: int) -> int:
    """How many labelings rename by first use into this canonical labeling.

    Renaming by first use keeps a label's new name once it is used and
    gives the unused labels of a device the next unused names in
    increasing order. In a canonical labeling, device x meets labels
    0..u_x-1 in use and brings the j_x new labels u_x..u_x+j_x-1. A
    labeling renames into it when each device holds the labels named like
    the canonical device's old ones and any j_x of the k - u_x labels
    still unused, so the class has prod_x C(k - u_x, j_x) labelings.
    """
    size, used = 1, 0
    for labels in canonical.by_x:
        top = max(labels) + 1
        if top > used:
            size *= math.comb(k - used, top - used)
            used = top
    return size


def exact_optimal_schedule(
    inst: ProblemInstance, max_optima: int = 64
) -> OracleResult:
    """First optimum, its checked report and the number of optima of the exactly-sigma labelings.

    The space has C(k, sigma)^|X| points; anything above SPACE_LIMIT is
    refused with the size in the message. At sigma = k the space is one
    labeling, every device in every slot, which is returned without a
    walk at any device count. Otherwise one pass of the branch and
    bound walks the canonical labelings only (labels enter in order); it
    finds the best potential without its up to k! slot permutations and
    keeps the first max_optima canonical optima. Renaming a labeling's
    labels by first use gives its canonical form, which has the same
    potential and is never later in lexicographic order over (device,
    label-set rank). So the first optimum of the whole space renames into
    an optimum no later than itself, which is itself: it is canonical,
    and it is the first canonical optimum. The number of optima is
    sum over the canonical optima of prod_x C(k - u_x, j_x), where u_x
    labels are in use before device x and j_x are new at x
    (`_class_size`). It is capped at max_optima, with `truncated` set
    when the canonical pass overflowed or the sum exceeds max_optima.
    The first optimum is checked by `schedule.rescored` against the
    best potential of the search (VerificationError if they differ), and
    the result carries that report: `report.potential` and
    `report.score` are the optimum's.
    """
    cov = inst.coverage
    n_actions = math.comb(inst.k, inst.sigma)
    space = n_actions**cov.n_x
    if space > SPACE_LIMIT:
        raise SearchSpaceError(
            f"search space {n_actions}^{cov.n_x} = {space} exceeds limit {SPACE_LIMIT}"
        )

    if n_actions == 1:
        # the walk would recurse once per device, past Python's stack limit
        union = 0
        for mask in cov.masks:
            union |= mask
        only = Labeling((frozenset(range(inst.k)),) * cov.n_x)
        search = _SearchResult(inst.k * union.bit_count(), (only,), False, False, 1)
    else:
        search = _branch_and_bound(inst, floor=-1, max_optima=max_optima, canonical=True)
    # an overflowed pass kept max_optima classes of at least one labeling
    # each, so the sum reaches the cap either way
    count = sum(_class_size(labeling, inst.k) for labeling in search.optima)
    optimum = search.optima[0]
    return OracleResult(
        optimum=optimum,
        n_optima=min(count, max_optima),
        space=space,
        truncated=search.truncated or count > max_optima,
        report=rescored(inst, optimum, search.best, "oracle"),
    )
