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

GameState alone reads and writes the per-slot provider counts. The
chain scores a trial with GameState.deviation, which changes nothing,
and only an accepted trial writes, through the _apply that move() uses
too. Most trials are rejected. A fixed-location trial costs the chain
two calls: the label draw and deviation. The player index is drawn in
the chain by randrange's own loop (`getrandbits(n.bit_length())`,
redrawn while >= n), and each integer change in utility gets its
acceptance probability computed once per chain.

A trial label set makes exactly the random draws of
`frozenset(rng.sample(range(k), sigma))`, redrawn while it equals the
player's current set in the fixed-location game, and a joint-placement
trial site those of randrange over the player's own site plus the free
ones, in increasing order, but neither builds a list. Label sets, here
as in randnet's Monte-Carlo trials, come from `seeds.label_sampler`,
which decodes sample's own draws through a table filled on first use.
The site is read off the sorted free-site list that GameState keeps
(GameState.open_site). So seeded runs give the same results as sampling
afresh on every step.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import islice
from random import Random
from typing import Callable, Iterable, NamedTuple

from .coverage import CoverageGraph
from .errors import InputError, VerificationError
from .greedy import greedy_picks
from .schedule import Labeling, ProblemInstance
from .seeds import derive_rng, label_sampler

# accepted moves between full recounts of the provider counts
AUDIT_INTERVAL = 1000
# above this many exactly-sigma label sets, trials swap a single label
UNIFORM_PROPOSAL_LIMIT = 1_000_000


@dataclass(frozen=True)
class BlllParams:
    """Knobs for a binary log-linear learning run.

    full_trace records the potential after every iteration; without it
    the trace holds only the first and the last iteration run.
    stop_at_potential lets callers that know the global maximum (the
    configuration search) end a chain as soon as it is reached; the
    default is a fixed iteration budget.
    """

    epsilon: float = 0.015
    iterations: int = 20_000
    seed: int = 0
    full_trace: bool = True
    stop_at_potential: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise InputError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.iterations < 0:
            raise InputError("iterations must be >= 0")

    def log_base(self) -> float:
        return -math.log(self.epsilon)


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


def _borrow(planes: list[int], mask: int, lab: int) -> tuple[int, int]:
    """Subtract 1 at every bit of mask from slot lab's counts held as bit planes.

    Top planes left at zero are popped. Returns the Y elements still
    counted once or more and twice or more (the OR of the planes left,
    and of those above the first); raises VerificationError if some bit
    of mask had a zero count.
    """
    borrow = mask
    covered = multi = 0
    for i, plane in enumerate(planes):
        planes[i] = left = plane ^ borrow
        borrow &= ~plane
        covered |= left
        if i:
            multi |= left
    if borrow:
        raise VerificationError(f"removed a provider that slot {lab + 1} does not count")
    while planes and not planes[-1]:
        planes.pop()
    return covered, multi


def _union(planes: Iterable[int]) -> int:
    """The OR of the planes."""
    out = 0
    for plane in planes:
        out |= plane
    return out


def _aligned(
    sites: list[int], actions: list[frozenset[int]]
) -> tuple[tuple[int, ...], Labeling]:
    """Sorted sites and the labeling aligned to that order."""
    ordered = sorted(zip(sites, actions))
    return tuple(s for s, _ in ordered), Labeling(tuple(a for _, a in ordered))


def check_device_count(device_count: int) -> None:
    """InputError unless at least one device is to be placed."""
    if device_count < 1:
        raise InputError("device_count must be >= 1")


def _check_device_count(cov: CoverageGraph, device_count: int) -> None:
    if device_count > cov.n_x:
        raise InputError(
            f"cannot place {device_count} devices on {cov.n_x} candidate sites"
        )
    check_device_count(device_count)


class GameState:
    """Mutable game position with incrementally maintained counters.

    Each player owns a distinct site (an index into inst.coverage's X
    side) and an action, exactly sigma of the k labels; inst has checked
    k and sigma. Omitting `sites` puts one player on every site, in
    site order: the fixed-location game, where every site is taken and
    so no player can move. free_sites lists the untaken sites in
    increasing order, kept by bisection on every site move, so a move's
    occupancy check and open_site() cost a binary search, not a scan
    over the players or the candidates.

    Per slot, the number of active providers of each Y element is kept
    as bit planes over the Y bitsets of `inst.coverage.masks`: bit y of
    planes[lab][i] is bit i of y's provider count in slot lab. A slot
    holds as many planes as its largest count needs, so its list is
    empty or ends in a nonzero plane. covered[lab]
    (the OR of the planes) holds the Y elements with at least one
    provider, multi[lab] (the OR of the planes above the first) those
    with two or more, and phi the number of covered (slot, y) pairs.
    Only this class reads or writes them: utility() and deviation() read
    them without a change, _apply() (adding a device is a ripple carry of
    its mask through the planes, removing one a borrow) writes them, and
    recount() checks them against a rebuild from the actions.
    """

    def __init__(
        self,
        inst: ProblemInstance,
        actions: list[frozenset[int]],
        sites: list[int] | None = None,
    ):
        self.cov = cov = inst.coverage
        self.k, self.sigma = inst.k, inst.sigma
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
        self.masks = cov.masks
        self.sizes = [mask.bit_count() for mask in self.masks]
        self._rebuild()

    def _rebuild(self) -> None:
        """Ripple every action into fresh planes and derive covered, multi and phi."""
        masks = self.masks
        self.planes = planes = [[] for _ in range(self.k)]
        for x, action in zip(self.sites, self.actions):
            for lab in action:
                _ripple_add(planes[lab], masks[x])
        self.covered = [_union(p) for p in planes]
        self.multi = [_union(islice(p, 1, None)) for p in planes]
        self.phi = sum(c.bit_count() for c in self.covered)

    def _check_player(self, player: int) -> None:
        if not 0 <= player < self.n_players:
            raise InputError(f"unknown player: {player}")

    def _check_action(self, action: frozenset[int]) -> None:
        if len(action) != self.sigma:
            raise InputError(f"action must hold exactly {self.sigma} labels")
        for lab in action:
            if not 0 <= lab < self.k:
                raise InputError(f"label {lab} outside 0..{self.k - 1}")

    @property
    def n_players(self) -> int:
        return len(self.actions)

    def open_site(self, player: int, i: int) -> int:
        """Entry i of the player's own site plus the free ones, sorted; no list is built."""
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

    def utility(self, player: int) -> int:
        """Covered (slot, y) pairs this player alone provides.

        That is what the player would lose by holding no labels at all.
        """
        self._check_player(player)
        return -self.deviation(player, frozenset(), self.sites[player])

    def deviation(self, player: int, labels: frozenset[int], site: int) -> int:
        """The player's change in utility (= in phi) on switching to labels at site.

        Read off the counts without changing them. The player alone
        provides, in each of its slots, its mask outside multi. The trial
        would provide, in each of its slots, what its mask newly covers
        plus, in a slot the player holds now, the part of the mask that
        only the player covers. Each count is a mask size minus the
        popcount of an AND, so no |Y|-bit int is negated.

        At the player's own site a kept slot's terms cancel (its mask is
        inside covered there), so only the slots in held ^ labels are read:
        a gained slot adds what the mask newly covers, a dropped one takes
        off what the player alone provides.
        """
        x, held = self.sites[player], self.actions[player]
        masks, sizes, multi, covered = self.masks, self.sizes, self.multi, self.covered
        mask, size = masks[x], sizes[x]
        delta = 0
        if site == x:
            for lab in labels:
                if lab not in held:
                    delta += size - (mask & covered[lab]).bit_count()
            for lab in held:
                if lab not in labels:
                    delta -= size - (mask & multi[lab]).bit_count()
            return delta
        new_mask, new_size = masks[site], sizes[site]
        for lab in held:
            delta -= size - (mask & multi[lab]).bit_count()
        for lab in labels:
            delta += new_size - (new_mask & covered[lab]).bit_count()
            if lab in held:
                delta += (new_mask & (mask ^ (mask & multi[lab]))).bit_count()
        return delta

    def _apply(self, player: int, labels: frozenset[int], site: int, delta: int) -> None:
        """Write the player's switch to labels at a free or its own site.

        delta is the switch's deviation(). The old action is borrowed out
        of its slots (VerificationError on an uncounted provider) and the
        new one rippled in; at the same site only the slots that change
        are touched, since the kept ones end as they were.
        """
        planes, covered, multi = self.planes, self.covered, self.multi
        held = self.actions[player]
        mask = new_mask = self.masks[self.sites[player]]
        if site == self.sites[player]:
            out, into = held - labels, labels - held
        else:
            out, into = held, labels
            new_mask = self.masks[site]
            self._relocate(player, site)
        for lab in out:
            covered[lab], multi[lab] = _borrow(planes[lab], mask, lab)
        for lab in into:
            _ripple_add(planes[lab], new_mask)
            # a Y element that had a provider here now has two or more
            multi[lab] |= new_mask & covered[lab]
            covered[lab] |= new_mask
        self.actions[player] = labels
        self.phi += delta

    def move(
        self, player: int, labels: frozenset[int], site: int | None = None
    ) -> None:
        """Unilateral deviation: replace the player's action (and site)."""
        self._check_player(player)
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
        self._apply(player, labels, new_site, self.deviation(player, labels, new_site))

    def recount(self) -> int:
        """Potential recomputed from scratch (audit path).

        Rebuilds the counts from the players' actions and raises
        VerificationError if the incrementally kept ones diverged.
        """
        kept = (self.planes, self.covered, self.multi, self.phi)
        self._rebuild()
        if kept != (self.planes, self.covered, self.multi, self.phi):
            raise VerificationError(
                f"incremental provider counts diverged from recount "
                f"(potential {kept[3]} kept, {self.phi} recounted)"
            )
        return self.phi


def random_state(inst: ProblemInstance, draw: Callable[[], frozenset[int]]) -> GameState:
    """Every device takes a label set from draw, a bound `seeds.label_sampler`."""
    actions = [draw() for _ in range(inst.coverage.n_x)]
    return GameState(inst, actions)


def random_placement_state(
    inst: ProblemInstance,
    device_count: int,
    rng: Random,
    draw: Callable[[], frozenset[int]],
) -> GameState:
    """Uniform random distinct sites from rng, then label sets from draw
    (a `seeds.label_sampler` bound to rng)."""
    _check_device_count(inst.coverage, device_count)
    sites = rng.sample(range(inst.coverage.n_x), device_count)
    actions = [draw() for _ in range(device_count)]
    return GameState(inst, actions, sites=sites)


def check_potential_identity(
    state: GameState,
    player: int,
    labels: frozenset[int],
    site: int | None = None,
) -> tuple[int, int]:
    """Apply a unilateral deviation, measure (dU, dPhi), and revert.

    dPhi comes from full recounts around the move, and each utility is
    read off freshly recounted provider counts, so this is an executable
    check that utility changes track the potential exactly. The
    deviation() the BLLL chain scores trials with must equal dPhi too.
    """
    state._check_player(player)
    old_labels = state.actions[player]
    old_site = state.sites[player]
    phi_before = state.recount()
    u_before = state.utility(player)
    predicted = state.deviation(player, labels, old_site if site is None else site)
    state.move(player, labels, site=site)
    phi_after = state.recount()
    u_after = state.utility(player)
    state.move(player, old_labels, site=old_site)
    if state.phi != phi_before:
        raise VerificationError(
            f"reverting a deviation left potential {state.phi}, was {phi_before}"
        )
    if predicted != phi_after - phi_before:
        raise VerificationError(
            f"deviation read {predicted} off the counts, recounts gave dPhi="
            f"{phi_after - phi_before}"
        )
    return u_after - u_before, phi_after - phi_before


def _action_proposer(
    rng: Random, k: int, sigma: int, draw: Callable[..., frozenset[int]]
) -> Callable[[frozenset[int]], frozenset[int]]:
    """Trial label sets for a fixed-location player, given its current set.

    A uniform exactly-sigma set other than the current one (draw itself,
    a `seeds.label_sampler` bound to rng, which redraws while it draws
    the set passed), or the current one when it is the only set; above
    UNIFORM_PROPOSAL_LIMIT sets, the current set with one uniform label
    swapped for an unused one.
    """
    n_actions = math.comb(k, sigma)
    if n_actions == 1:
        return lambda current: current
    if n_actions <= UNIFORM_PROPOSAL_LIMIT:
        return draw

    def swap(current: frozenset[int]) -> frozenset[int]:
        inside = sorted(current)
        outside = sorted(set(range(k)) - current)
        drop = inside[rng.randrange(len(inside))]
        add = outside[rng.randrange(len(outside))]
        return (current - {drop}) | {add}

    return swap


def _accept_probability(x: float) -> float:
    """b^U(trial) / (b^U(trial) + b^U(current)), the logistic of x = delta * ln b."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class BlllResult(NamedTuple):
    """A BLLL run's best state, its best and final potentials and its trace.

    best_sites are the occupied sites in increasing order and
    best_labeling is aligned to them; a fixed-location run holds every
    site. trace holds (iteration, potential) pairs and ends at the last
    iteration run.
    """

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
    next_labels: Callable[[frozenset[int]], frozenset[int]],
    next_site: Callable[[int], int] | None = None,
) -> BlllResult:
    """Shared BLLL loop over a random player's trial actions.

    A trial draws the player as rng.randrange(n_players) does, then
    next_site(player) (the player's own site when next_site is None),
    then next_labels(current labels). It is scored by state.deviation,
    which leaves the counts as they are; only an accepted trial writes,
    through state._apply. The acceptance probability of each delta is
    computed on its first trial and kept for the rest of this chain.
    The best state is an undo log of the accepted moves since the last
    best, replayed backwards at the end. The trace gets a point after
    every iteration with params.full_trace, else only after the last one
    run (the budget's last, or where the chain reached
    params.stop_at_potential).

    Returns the best state seen, the best and final potentials, the
    trace and the accepted-move count; state is left at the final one.
    """
    log_base = params.log_base()
    iterations, full_trace = params.iterations, params.full_trace
    stop = params.stop_at_potential
    audit_interval = AUDIT_INTERVAL
    getrandbits, random = rng.getrandbits, rng.random
    deviation, apply = state.deviation, state._apply
    n_players, sites, actions = state.n_players, state.sites, state.actions
    player_bits = n_players.bit_length()
    # delta -> acceptance probability, for this chain's log_base only
    accept: dict[int, float] = {}
    phi = state.phi
    trace: list[tuple[int, int]] = [(0, phi)]
    best_phi = phi
    # (player, site, labels) before each accepted move since the best state
    undo: list[tuple[int, int, frozenset[int]]] = []
    accepted = 0
    for i in range(1, iterations + 1):
        player = getrandbits(player_bits)
        while player >= n_players:
            player = getrandbits(player_bits)
        site = sites[player]
        new_site = site if next_site is None else next_site(player)
        labels = actions[player]
        new_labels = next_labels(labels)
        delta = deviation(player, new_labels, new_site)
        p = accept.get(delta)
        if p is None:
            p = accept[delta] = _accept_probability(delta * log_base)
        if random() < p:
            undo.append((player, site, labels))
            apply(player, new_labels, new_site, delta)
            phi = state.phi
            accepted += 1
            if accepted % audit_interval == 0:
                state.recount()
            if phi > best_phi:
                best_phi = phi
                undo.clear()

        if full_trace or i == iterations:
            trace.append((i, phi))
        if stop is not None and phi >= stop:
            if trace[-1][0] != i:
                trace.append((i, phi))
            break
    best_sites, best_actions = list(sites), list(actions)
    for player, site, labels in reversed(undo):
        best_sites[player] = site
        best_actions[player] = labels
    best_sites, best_labeling = _aligned(best_sites, best_actions)
    return BlllResult(
        best_sites=best_sites,
        best_labeling=best_labeling,
        final_potential=phi,
        best_potential=best_phi,
        trace=tuple(trace),
        accepted=accepted,
    )


def blll_schedule(inst: ProblemInstance, params: BlllParams | None = None) -> BlllResult:
    """Binary log-linear learning over exactly-sigma labelings.

    Reproducible given the seed; the trace holds (iteration, potential)
    pairs, every iteration's or (without params.full_trace) the first
    and last, and the best state seen anywhere in the chain is returned
    with the final potential.
    """
    params = params or BlllParams()
    rng = derive_rng(params.seed, "blll-schedule")
    # one label table per run, for the initial state and the trials
    draw = label_sampler(inst.k, inst.sigma)(rng)
    state = random_state(inst, draw)
    return _run_chain(
        state, params, rng, _action_proposer(rng, inst.k, inst.sigma, draw)
    )


def blll_place_and_schedule(
    inst: ProblemInstance, device_count: int, params: BlllParams | None = None
) -> BlllResult:
    """Joint site selection and scheduling for a fixed device count.

    inst.coverage must span every candidate site. A trial move draws a
    site uniformly from the unoccupied candidates plus the player's own
    site, together with a fresh uniform label set.
    """
    params = params or BlllParams()
    rng = derive_rng(params.seed, "blll-placement")
    # one label table per run, for the initial state and the trials
    draw = label_sampler(inst.k, inst.sigma)(rng)
    state = random_placement_state(inst, device_count, rng, draw)
    getrandbits, open_site = rng.getrandbits, state.open_site
    n_open = len(state.free_sites) + 1
    bits = n_open.bit_length()

    def next_site(player: int) -> int:
        # rng.randrange(n_open)'s draws
        i = getrandbits(bits)
        while i >= n_open:
            i = getrandbits(bits)
        return open_site(player, i)

    return _run_chain(state, params, rng, lambda _: draw(), next_site)


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
