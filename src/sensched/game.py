"""Potential-game view of the labeling problem and its stochastic solvers.

Players are devices; an action is a site (a candidate location) plus
an exactly-sigma set of slot labels. Scheduling at fixed locations is
the same game with every site taken, so no player can move. The global
objective (the game's potential) is the number of covered
(slot, Y-element) pairs; a player's utility is the number of such pairs
for which it is the sole provider. A unilateral change in any player's
action moves utility and potential by exactly the same integer amount,
which is what lets noisy best-response dynamics climb the global
objective.

The solver is binary log-linear learning: repeatedly pick a random
player and a random trial action, then switch with probability
b^U(trial) / (b^U(trial) + b^U(current)) where b = 1/epsilon > 1, so
higher-utility actions are favored and the noise epsilon occasionally
accepts downhill moves.

One step is scored from the per-slot provider counts alone: the
player's mask is borrowed out of its slots (the Y elements that lose
their last provider are its current utility), the trial's utility is
its gain against what stays covered, and whichever action wins is
rippled back in. A trial label set makes exactly the random draws of
`frozenset(rng.sample(range(k), sigma))`, and a joint-placement trial
site those of `open_sites(player)[randrange(len)]`, but neither builds
a list. Label sets, here as in randnet's Monte-Carlo trials, come from
`seeds.label_sampler`, which decodes sample's own draws
(`getrandbits(r.bit_length())`, redrawn while >= r, for r = k, k - 1,
...) through a table filled on first use. The site is read off the
sorted free-site list that GameState keeps (GameState.open_site), and
the player and site indices are drawn by `seeds.randbelow`, randrange's
own getrandbits loop. So seeded runs give the same results as sampling
afresh on every step.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import islice
from random import Random
from typing import Callable

from .coverage import CoverageGraph
from .errors import InputError, VerificationError
from .greedy import greedy_picks
from .schedule import Labeling, ProblemInstance
from .seeds import derive_rng, label_sampler, randbelow

# accepted moves between full recounts of the provider counts
AUDIT_INTERVAL = 1000
# above this many exactly-sigma label sets, trials swap a single label
UNIFORM_PROPOSAL_LIMIT = 1_000_000


@dataclass(frozen=True)
class BlllParams:
    """Knobs for a binary log-linear learning run.

    raw_epsilon_rule selects the acceptance ratio with epsilon itself as
    the base (which favors lower-utility actions for epsilon < 1);
    the default uses 1/epsilon. stop_at_potential lets callers that
    know the global maximum (the configuration search) end a chain as
    soon as it is reached; the default is a fixed iteration budget.
    """

    epsilon: float = 0.015
    iterations: int = 20_000
    seed: int = 0
    trace_stride: int = 1
    raw_epsilon_rule: bool = False
    stop_at_potential: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise InputError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.iterations < 0:
            raise InputError("iterations must be >= 0")
        if self.trace_stride < 1:
            raise InputError("trace_stride must be >= 1")

    def log_base(self) -> float:
        return math.log(self.epsilon) if self.raw_epsilon_rule else -math.log(self.epsilon)


def _ripple_add(planes: list[int], mask: int) -> None:
    """Add 1 at every bit of mask to the counts held as bit planes."""
    carry = mask
    for i, plane in enumerate(planes):
        if not carry:
            return
        planes[i] = plane ^ carry
        carry &= plane
    if carry:
        planes.append(carry)


def _borrow(planes: list[int], mask: int, lab: int) -> int:
    """Subtract 1 at every bit of mask from slot lab's counts held as bit planes.

    Returns the Y elements still covered (the OR of the planes left);
    raises VerificationError if some bit of mask had a zero count.
    """
    borrow = mask
    covered = 0
    for i, plane in enumerate(planes):
        planes[i] = left = plane ^ borrow
        borrow &= ~plane
        covered |= left
    if borrow:
        raise VerificationError(f"removed a provider that slot {lab + 1} does not count")
    return covered


def _aligned(
    sites: list[int], actions: list[frozenset[int]]
) -> tuple[tuple[int, ...], Labeling]:
    """Sorted sites and the labeling aligned to that order."""
    ordered = sorted(zip(sites, actions))
    return tuple(s for s, _ in ordered), Labeling(tuple(a for _, a in ordered))


def _check_device_count(cov: CoverageGraph, device_count: int) -> None:
    if device_count > cov.n_x:
        raise InputError(
            f"cannot place {device_count} devices on {cov.n_x} candidate sites"
        )
    if device_count < 1:
        raise InputError("device_count must be >= 1")


class GameState:
    """Mutable game position with incrementally maintained counters.

    Each player owns a distinct site (an index into the coverage's X
    side) and an action. Omitting `sites` puts one player on every site,
    in site order: the fixed-location game, where every site is taken
    and so no player can move. free_sites lists the untaken sites in
    increasing order, kept by bisection on every site move, so a move's
    occupancy check and open_site() cost a binary search, not a scan
    over the players or the candidates. Per slot, the number of active
    providers of each Y element is kept as bit planes over the Y bitsets
    of `cov.masks`: bit y of planes[lab][i] is bit i of y's provider count
    in slot lab. Adding a device is a ripple carry of its mask through
    the planes, removing one is a borrow, and covered[lab] (the OR of
    the planes) holds the Y elements with at least one provider. phi,
    the number of covered (slot, y) pairs, is kept in lockstep with
    every move.
    """

    def __init__(
        self,
        cov: CoverageGraph,
        k: int,
        sigma: int,
        actions: list[frozenset[int]],
        sites: list[int] | None = None,
    ):
        self.cov = cov
        self.k = k
        self.sigma = sigma
        if sites is None:
            sites = range(cov.n_x)
        if len(sites) != len(actions):
            raise InputError("need one action per site")
        if len(set(sites)) != len(sites):
            raise InputError("players must occupy distinct sites")
        for s in sites:
            if not 0 <= s < cov.n_x:
                raise InputError(f"unknown site index: {s}")
        for a in actions:
            self._check_action(a)
        self.actions = list(actions)
        self.sites = list(sites)
        self.free_sites = sorted(set(range(cov.n_x)).difference(sites))
        # a count never exceeds the players, nor the devices that cover y:
        # ripple-add the masks until len(totals), the bit length of the
        # largest provider count so far, reaches the players' bit length
        # (it only grows, so the min cannot change after that)
        enough = self.n_players.bit_length()
        totals: list[int] = []
        for mask in cov.masks:
            if len(totals) >= enough:
                break
            _ripple_add(totals, mask)
        self.n_planes = min(enough, len(totals))
        self._rebuild()

    def _rebuild(self) -> None:
        self.planes = [[0] * self.n_planes for _ in range(self.k)]
        self.covered = [0] * self.k
        self.phi = 0
        for x, action in zip(self.sites, self.actions):
            self._add(x, action)

    def _check_action(self, action: frozenset[int]) -> None:
        if len(action) != self.sigma:
            raise InputError(f"action must hold exactly {self.sigma} labels")
        for lab in action:
            if not 0 <= lab < self.k:
                raise InputError(f"label {lab} outside 0..{self.k - 1}")

    @property
    def n_players(self) -> int:
        return len(self.actions)

    def open_sites(self, player: int) -> list[int]:
        """The player's own site plus the free ones, in increasing order."""
        out = list(self.free_sites)
        insort(out, self.sites[player])
        return out

    def open_site(self, player: int, i: int) -> int:
        """open_sites(player)[i] for 0 <= i <= len(free_sites), without the list."""
        own = self.sites[player]
        at = bisect_left(self.free_sites, own)
        if i < at:
            return self.free_sites[i]
        return own if i == at else self.free_sites[i - 1]

    def _relocate(self, player: int, site: int) -> None:
        """Move the player to a free site, keeping free_sites sorted."""
        free = self.free_sites
        del free[bisect_left(free, site)]
        insort(free, self.sites[player])
        self.sites[player] = site

    def _add(self, x: int, labels: frozenset[int]) -> None:
        mask = self.cov.masks[x]
        for lab in labels:
            _ripple_add(self.planes[lab], mask)
            self.phi += (mask & ~self.covered[lab]).bit_count()
            self.covered[lab] |= mask

    def _remove(self, x: int, labels: frozenset[int]) -> None:
        mask = self.cov.masks[x]
        for lab in labels:
            covered = _borrow(self.planes[lab], mask, lab)
            self.phi -= (self.covered[lab] & ~covered).bit_count()
            self.covered[lab] = covered

    def gain(self, x: int, labels: frozenset[int]) -> int:
        """Covered (slot, y) pairs that device x would add in the given slots."""
        mask = self.cov.masks[x]
        return sum((mask & ~self.covered[lab]).bit_count() for lab in labels)

    def utility(self, player: int) -> int:
        """Covered (slot, y) pairs this player alone provides."""
        x, action = self.sites[player], self.actions[player]
        self._remove(x, action)
        alone = self.gain(x, action)
        self._add(x, action)
        return alone

    def move(
        self, player: int, labels: frozenset[int], site: int | None = None
    ) -> None:
        """Unilateral deviation: replace the player's action (and site)."""
        self._check_action(labels)
        old_site = self.sites[player]
        new_site = old_site if site is None else site
        if new_site != old_site:
            if not 0 <= new_site < self.cov.n_x:
                raise InputError(f"unknown site index: {new_site}")
            free = self.free_sites
            at = bisect_left(free, new_site)
            if at == len(free) or free[at] != new_site:
                raise InputError(f"site {new_site} already occupied")
        self._remove(old_site, self.actions[player])
        if new_site != old_site:
            self._relocate(player, new_site)
        self.actions[player] = labels
        self._add(new_site, labels)

    def recount(self) -> int:
        """Potential recomputed from scratch (audit path).

        Rebuilds the planes from the players' actions and raises
        VerificationError if the incrementally kept ones diverged.
        """
        kept = (self.planes, self.covered, self.phi)
        self._rebuild()
        if kept != (self.planes, self.covered, self.phi):
            raise VerificationError(
                f"incremental provider counts diverged from recount "
                f"(potential {kept[2]} kept, {self.phi} recounted)"
            )
        return self.phi

    def labeling(self) -> Labeling:
        """Label sets in site order (a fixed game's device order)."""
        return self.placement()[1]

    def placement(self) -> tuple[tuple[int, ...], Labeling]:
        """Sorted occupied sites and the labeling aligned to that order."""
        return _aligned(self.sites, self.actions)


def random_state(cov: CoverageGraph, k: int, sigma: int, rng: Random) -> GameState:
    """Every device draws a uniform exactly-sigma label set."""
    draw = label_sampler(k, sigma)(rng)
    actions = [draw() for _ in range(cov.n_x)]
    return GameState(cov, k, sigma, actions)


def random_placement_state(
    cov: CoverageGraph, k: int, sigma: int, device_count: int, rng: Random
) -> GameState:
    """Uniform random distinct sites plus uniform label sets."""
    _check_device_count(cov, device_count)
    sites = rng.sample(range(cov.n_x), device_count)
    draw = label_sampler(k, sigma)(rng)
    actions = [draw() for _ in range(device_count)]
    return GameState(cov, k, sigma, actions, sites=sites)


def potential(state: GameState) -> int:
    """Global objective: covered Y elements summed over slots.

    Recounted from scratch and checked against the incrementally kept
    value (see GameState.recount); the two are equal for every state.
    """
    return state.recount()


def utility(state: GameState, player: int) -> int:
    """Labels this player alone makes available to its covered Y elements."""
    if not 0 <= player < state.n_players:
        raise InputError(f"unknown player: {player}")
    return state.utility(player)


def check_potential_identity(
    state: GameState,
    player: int,
    labels: frozenset[int],
    site: int | None = None,
) -> tuple[int, int]:
    """Apply a unilateral deviation, measure (dU, dPhi), and revert.

    Both deltas come from full recounts around the move, so this is an
    executable check that utility changes track the potential exactly.
    """
    if not 0 <= player < state.n_players:
        raise InputError(f"unknown player: {player}")
    old_labels = state.actions[player]
    old_site = state.sites[player]
    u_before = state.utility(player)
    phi_before = state.recount()
    state.move(player, labels, site=site)
    u_after = state.utility(player)
    phi_after = state.recount()
    state.move(player, old_labels, site=old_site)
    if state.phi != phi_before:
        raise VerificationError(
            f"reverting a deviation left potential {state.phi}, was {phi_before}"
        )
    return u_after - u_before, phi_after - phi_before


def _action_proposer(
    rng: Random, k: int, sigma: int
) -> Callable[[frozenset[int]], frozenset[int]]:
    """Trial label sets for a fixed-location player, given its current set.

    A uniform exactly-sigma set other than the current one, or the
    current one when it is the only set; above UNIFORM_PROPOSAL_LIMIT
    sets, the current set with one uniform label swapped for an unused one.
    """
    n_actions = math.comb(k, sigma)
    if n_actions == 1:
        return lambda current: current
    if n_actions <= UNIFORM_PROPOSAL_LIMIT:
        draw = label_sampler(k, sigma)(rng)

        def resample(current: frozenset[int]) -> frozenset[int]:
            while True:
                cand = draw()
                if cand != current:
                    return cand

        return resample

    def swap(current: frozenset[int]) -> frozenset[int]:
        inside = sorted(current)
        outside = sorted(set(range(k)) - current)
        drop = inside[rng.randrange(len(inside))]
        add = outside[rng.randrange(len(outside))]
        return (current - {drop}) | {add}

    return swap


@dataclass(frozen=True)
class BlllResult:
    labeling: Labeling
    best_labeling: Labeling
    final_potential: int
    best_potential: int
    trace: tuple[tuple[int, int], ...]
    accepted: int


@dataclass(frozen=True)
class PlacementResult:
    sites: tuple[int, ...]
    labeling: Labeling
    best_sites: tuple[int, ...]
    best_labeling: Labeling
    final_potential: int
    best_potential: int
    trace: tuple[tuple[int, int], ...]
    accepted: int


def _run_chain(
    state: GameState,
    params: BlllParams,
    rng: Random,
    propose: Callable[[int], tuple[int, frozenset[int]]],
) -> tuple[list[tuple[int, int]], int, int, tuple[tuple[int, ...], Labeling]]:
    """Shared BLLL loop; propose(player) returns a (site, labels) trial.

    Returns the trace, the best potential, the accepted-move count and
    the best state seen as placement() gives it.
    """
    log_base = params.log_base()
    iterations, stride = params.iterations, params.trace_stride
    stop = params.stop_at_potential
    audit_interval = AUDIT_INTERVAL
    below, random, exp = randbelow(rng), rng.random, math.exp
    masks = state.cov.masks
    n_players, sites, actions = state.n_players, state.sites, state.actions
    planes, covered, phi = state.planes, state.covered, state.phi
    trace: list[tuple[int, int]] = [(0, phi)]
    best_phi = phi
    best_snapshot = (list(sites), list(actions))
    accepted = 0
    for i in range(1, iterations + 1):
        player = below(n_players)
        site = sites[player]
        labels = actions[player]
        new_site, new_labels = propose(player)

        # the Y elements that lose their last provider are the player's utility
        mask = masks[site]
        u_cur = 0
        for lab in labels:
            left = _borrow(planes[lab], mask, lab)
            u_cur += (mask & ~left).bit_count()
            covered[lab] = left
        new_mask = masks[new_site]
        u_new = 0
        for lab in new_labels:
            u_new += (new_mask & ~covered[lab]).bit_count()
        x = (u_new - u_cur) * log_base
        if x >= 0:
            p = 1.0 / (1.0 + exp(-x))
        else:
            e = exp(x)
            p = e / (1.0 + e)
        accept = random() < p
        if accept:
            if new_site != site:
                state._relocate(player, new_site)
            actions[player] = labels = new_labels
            mask = new_mask
            phi += u_new - u_cur
            accepted += 1
        for lab in labels:
            _ripple_add(planes[lab], mask)
            covered[lab] |= mask
        if accept and accepted % audit_interval == 0:
            state.phi = phi
            state.recount()
            planes, covered = state.planes, state.covered

        if phi > best_phi:
            best_phi = phi
            best_snapshot = (list(sites), list(actions))
        if i % stride == 0 or i == iterations:
            trace.append((i, phi))
        if stop is not None and phi >= stop:
            if trace[-1][0] != i:
                trace.append((i, phi))
            break
    state.phi = phi
    return trace, best_phi, accepted, _aligned(*best_snapshot)


def blll_schedule(inst: ProblemInstance, params: BlllParams | None = None) -> BlllResult:
    """Binary log-linear learning over exactly-sigma labelings.

    Reproducible given the seed; the trace holds (iteration, potential)
    pairs at the configured stride, and the best state seen anywhere in
    the chain is returned alongside the final one.
    """
    params = params or BlllParams()
    cov = inst.coverage
    rng = derive_rng(params.seed, "blll-schedule")
    state = random_state(cov, inst.k, inst.sigma, rng)
    next_action = _action_proposer(rng, inst.k, inst.sigma)
    sites, actions = state.sites, state.actions

    def propose(player: int) -> tuple[int, frozenset[int]]:
        return sites[player], next_action(actions[player])

    trace, best_phi, accepted, (_, best_labeling) = _run_chain(
        state, params, rng, propose
    )
    return BlllResult(
        labeling=state.labeling(),
        best_labeling=best_labeling,
        final_potential=state.phi,
        best_potential=best_phi,
        trace=tuple(trace),
        accepted=accepted,
    )


def blll_place_and_schedule(
    inst: ProblemInstance, device_count: int, params: BlllParams | None = None
) -> PlacementResult:
    """Joint site selection and scheduling for a fixed device count.

    inst.coverage must span every candidate site. A trial move draws a
    site uniformly from the unoccupied candidates plus the player's own
    site, together with a fresh uniform label set.
    """
    params = params or BlllParams()
    cov = inst.coverage
    rng = derive_rng(params.seed, "blll-placement")
    state = random_placement_state(cov, inst.k, inst.sigma, device_count, rng)
    draw = label_sampler(inst.k, inst.sigma)(rng)
    below = randbelow(rng)
    n_open = len(state.free_sites) + 1

    def propose(player: int) -> tuple[int, frozenset[int]]:
        return state.open_site(player, below(n_open)), draw()

    trace, best_phi, accepted, (best_sites, best_labeling) = _run_chain(
        state, params, rng, propose
    )
    sites, labeling = state.placement()
    return PlacementResult(
        sites=sites,
        labeling=labeling,
        best_sites=best_sites,
        best_labeling=best_labeling,
        final_potential=state.phi,
        best_potential=best_phi,
        trace=tuple(trace),
        accepted=accepted,
    )


def greedy_max_coverage_placement(cov: CoverageGraph, device_count: int) -> tuple[int, ...]:
    """Greedy maximum-coverage site pick (Nemhauser, Wolsey and Fisher).

    Each pick adds the site that covers the most Y elements not yet
    covered, ties to the lowest index. That is greedy_schedule on the
    one-slot, one-label instance, so the sites are the first
    device_count devices it labels, sorted; it stops after those picks.
    """
    _check_device_count(cov, device_count)
    picks = greedy_picks(ProblemInstance(cov, k=1, sigma=1))
    return tuple(sorted(pick.x for pick in islice(picks, device_count)))
