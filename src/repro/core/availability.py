"""Availability analysis: the other side of the paper's dilemma.

Section 3.1 and the discussion in Section 5 frame an explicit trade-off:
administrators delegate to geographically and administratively remote
secondaries to survive failures, but every server they (transitively) lean
on is also a place their namespace can be hijacked from.  The security side
is quantified by the TCB and bottleneck analyses; this module quantifies the
availability side so the trade-off can be studied on the same graphs.

Resolution of a name succeeds when, for *every* zone on its delegation path,
at least one of the zone's nameservers is reachable — where "reachable"
itself requires the server to be up and its hostname to be resolvable
(recursively).  Over the delegation graph this is the same AND/OR structure
as the bottleneck analysis.  A dependency loop (mutual secondaries, an
in-bailiwick server) resolves unless something outside it fails — glue
records make it so — which is the *greatest* fixpoint of that structure.

The analyzer runs on the integer core of any
:class:`~repro.core.delegation.DelegationView`
(:meth:`~repro.core.delegation.DelegationView.int_core`): the survey
engine's zero-copy :class:`~repro.core.delegation.TCBView` or a
materialised :class:`~repro.core.delegation.DelegationGraph`, which builds a
private universe on first use.  Four evaluation modes are provided:

* :meth:`AvailabilityAnalyzer.resolution_probability` — analytic evaluation
  under independent per-server failure probabilities::

      avail(name)  = product over zones Z on the chain of avail_zone(Z)
      avail_zone(Z) = 1 - product over nameservers H of (1 - up(H) * avail(H))

  with a looping branch contributing only the server's own up-probability.
  It is an approximation in both directions: shared dependencies are
  multiplied as if independent, and loops are cut wherever the recursion
  happens to enter them.  Against exact enumeration of every failure state on
  3,000 random tiny topologies (``tests/test_core_oracles.py``) it was
  above the exact value in 9 worlds (by up to 0.094) and below it in 344
  (by up to 0.671).
* :meth:`AvailabilityAnalyzer.resolvable_with_failures` — exact: does the
  name resolve with a given set of servers down?
* :meth:`AvailabilityAnalyzer.monte_carlo` — sample failure draws and score
  each one exactly.  The sweep is *bit-parallel*: every server gets one
  up/down bitmask over all samples and one evaluation scores them all.
* :meth:`AvailabilityAnalyzer.single_points_of_failure` — the servers whose
  individual loss makes the name unresolvable, scored in one bit-parallel
  evaluation whose scenario *s* fails NS slot *s* alone.

The exact modes share :meth:`AvailabilityAnalyzer._alive`, which settles
each strongly connected component of the dependency graph to its greatest
fixpoint, so its values do not depend on the path that reached a node.

Both the analytic and the single-failure values can be shared across names
(*shared memos*).  Single-failure masks are exact and always publishable;
analytic values follow the clean/tainted discipline of
:class:`~repro.core.mincut.BottleneckAnalyzer`: only values computed without
truncating a dependency cycle (and without consuming a truncation-tainted
value) are published, because those are the only values independent of the
path the recursion took to reach the node.
"""

from __future__ import annotations

import dataclasses
import random
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.dns.name import DomainName
from repro.core.delegation import DelegationView
from repro.core.graphcore import NS_CODE

#: A per-server up-probability map or a single probability applied to all.
UpModel = Union[float, Mapping[DomainName, float]]


@dataclasses.dataclass
class AvailabilityReport:
    """Availability estimate for one name."""

    name: DomainName
    analytic: float
    monte_carlo: Optional[float] = None
    samples: int = 0
    single_points_of_failure: FrozenSet[DomainName] = frozenset()

    @property
    def has_single_point_of_failure(self) -> bool:
        """True if one server's loss alone makes the name unresolvable."""
        return bool(self.single_points_of_failure)


class AvailabilityAnalyzer:
    """Evaluates resolution availability over delegation views.

    Parameters
    ----------
    up_probability:
        Either a single probability applied to every server, or a mapping
        from hostname to up-probability (servers missing from the mapping
        get ``default_up``).
    default_up:
        Up-probability for servers not listed in the mapping.
    shared_memo:
        Optional cross-name memo for analytic availabilities, keyed by
        integer node id.  Only cycle-independent ("clean") values are
        published.  The survey engine registers it with the builder's
        :class:`~repro.core.delegation.ClosureIndex` so universe growth
        purges exactly the entries whose subtree changed.  Valid only while
        the analyzer's up-model is unchanged.
    shared_spof_memo:
        Optional cross-name memo for the exact single-failure masks behind
        :meth:`single_points_of_failure` and the all-up
        :meth:`resolvable_with_failures`, keyed by node id, same
        invalidation contract.

    Node ids are local to one universe, so both shared memos are cleared in
    place whenever the analyzer is handed a view over a different universe
    (every :class:`~repro.core.delegation.DelegationGraph` has its own).
    """

    def __init__(self, up_probability: UpModel = 0.99,
                 default_up: float = 0.99,
                 shared_memo: Optional[Dict] = None,
                 shared_spof_memo: Optional[Dict] = None):
        if isinstance(up_probability, float):
            if not 0.0 <= up_probability <= 1.0:
                raise ValueError("up_probability must be within [0, 1]")
            self._per_server: Dict[DomainName, float] = {}
            self.default_up = up_probability
        else:
            self._per_server = {DomainName(host): float(p)
                                for host, p in up_probability.items()}
            self.default_up = default_up
        if not 0.0 <= self.default_up <= 1.0:
            raise ValueError("default_up must be within [0, 1]")
        self.shared_memo = shared_memo
        self.shared_spof_memo = shared_spof_memo
        #: Constant up-probability when no per-server map is configured —
        #: lets the hot loops skip the per-slot lookup entirely.
        self._up_const: Optional[float] = \
            self.default_up if not self._per_server else None
        self._slot_up: Dict[int, float] = {}
        self._universe: Optional[object] = None
        self._taint_events = 0
        self._tainted: Set = set()
        self._prefix_state: Optional[tuple] = None
        # Per-recursion zone-term replay state, active only while a
        # prefix-resumed evaluation runs (see _prefix_cache): `_avail_zc`
        # maps a zone id to its (term, taint-event delta) when the term was
        # computed purely from snapshot-resident memo hits — such terms are
        # identical for every chain sharing the snapshot — and
        # `_avail_base` is the snapshot memo used for that purity test.
        self._avail_zc: Optional[Dict[int, tuple]] = None
        self._avail_base: Optional[Dict[int, float]] = None

    def _core(self, graph: DelegationView):
        """``graph.int_core()``, resetting universe-local state on a switch.

        Slots and node ids are universe-local: the slot up-probability
        cache and the shared memos are cleared in place (keeping any
        closure-index companion registrations) when the universe changes.
        """
        core = graph.int_core()
        if self._universe is not core[0]:
            self._universe = core[0]
            self._slot_up = {}
            for memo in (self.shared_memo, self.shared_spof_memo):
                if memo is not None:
                    memo.clear()
        return core

    def _prefix_cache(self, universe, closures) -> Dict[int, tuple]:
        """Per-first-zone resume snapshots, valid for one closure version.

        A surveyed name's node has no in-edges, so evaluating its first
        direct zone (the TLD) — the walk, its memo contents, its
        taint-event count — is independent of the name.  Snapshotting that
        state after the first zone and resuming later chains from a copy
        removes the dominant per-chain cost (re-walking the TLD subtree,
        which in-bailiwick NS cycles keep out of the clean-only shared
        memo) without changing a single arithmetic step of the recursion.
        """
        state = self._prefix_state
        if state is None or state[0] is not universe \
                or state[1] != closures.version:
            state = (universe, closures.version, {})
            self._prefix_state = state
        return state[2]

    # -- probability model ---------------------------------------------------------

    def up_probability(self, hostname: DomainName) -> float:
        """The probability that ``hostname`` is reachable."""
        return self._per_server.get(hostname, self.default_up)

    def _up_slot(self, universe, slot: int) -> float:
        """Slot-indexed up-probability (the up-model is fixed per analyzer)."""
        cache = self._slot_up
        probability = cache.get(slot)
        if probability is None:
            probability = self._per_server.get(universe.slot_hosts[slot],
                                               self.default_up)
            cache[slot] = probability
        return probability

    # -- analytic evaluation -----------------------------------------------------------

    def resolution_probability(self, graph: DelegationView) -> float:
        """Probability that the view's target name resolves (analytic).

        Shared dependencies are treated as independent and loops are
        truncated, so the value is an approximation that can land on
        either side of the exact probability (see the module docstring for
        measured error); :meth:`monte_carlo` samples the exact structure.
        """
        universe, closures, target_id = self._core(graph)
        zones = closures.split_ids(target_id)[0]
        if not zones:
            # Nothing is known about the name's delegation chain at all.
            return 0.0
        self._taint_events = 0
        self._tainted = set()
        shared = self.shared_memo
        if shared is not None:
            hit = shared.get(target_id)
            if hit is not None:
                return hit
        split_ids = closures.split_ids
        ns_slots = universe.ns_slots
        prefix = self._prefix_cache(universe, closures)
        first = zones[0]
        entry = prefix.get(first)
        in_progress = frozenset((target_id,))
        memo: Dict[int, float] = {}
        probability = 1.0
        start = 0
        self._avail_zc = self._avail_base = None
        if entry is not None:
            probability, snap_memo, snap_tainted, snap_events, broke, \
                zone_cache = entry
            memo = dict(snap_memo)
            self._tainted = set(snap_tainted)
            self._taint_events = snap_events
            self._avail_zc = zone_cache
            self._avail_base = snap_memo
            start = len(zones) if broke else 1
        up_const = self._up_const
        for index in range(start, len(zones)):
            zone = zones[index]
            nameservers = split_ids(zone)[1]
            if not nameservers:
                probability = 0.0
                if index == 0:
                    prefix[first] = (probability, dict(memo),
                                     set(self._tainted),
                                     self._taint_events, True, {})
                break
            all_down = 1.0
            memo_get = memo.get
            tainted = self._tainted
            for ns in nameservers:
                value = memo_get(ns)
                if value is None:
                    value = self._avail_int(universe, closures, ns, memo,
                                            in_progress, shared)
                elif ns in tainted:
                    self._taint_events += 1
                up = up_const if up_const is not None else \
                    self._up_slot(universe, ns_slots[ns])
                all_down *= (1.0 - up * value)
            probability *= (1.0 - all_down)
            if index == 0:
                prefix[first] = (probability, dict(memo),
                                 set(self._tainted), self._taint_events,
                                 False, {})
        memo[target_id] = probability
        if self._taint_events == 0:
            if shared is not None:
                shared[target_id] = probability
        else:
            self._tainted.add(target_id)
        return probability

    def _avail_int(self, universe, closures, node: int,
                   memo: Dict[int, float], in_progress: FrozenSet[int],
                   shared: Optional[Dict[int, float]]) -> float:
        """Analytic availability of one name/host node (memoised recursion)."""
        cached = memo.get(node)
        if cached is not None:
            if node in self._tainted:
                # The consumer inherits this value's context-dependence.
                self._taint_events += 1
            return cached
        if shared is not None:
            hit = shared.get(node)
            if hit is not None:
                return hit
        if node in in_progress:
            # A dependency loop cannot improve reachability.
            self._taint_events += 1
            return 1.0
        in_progress = in_progress | {node}
        events_before = self._taint_events
        split_ids = closures.split_ids
        zones = split_ids(node)[0]
        if not zones:
            # No recorded chain (e.g. glued hostname inside an already
            # covered zone): treat as reachable so the parent term reduces
            # to the server's own up-probability.
            memo[node] = 1.0
            if shared is not None:
                shared[node] = 1.0
            return 1.0
        ns_slots = universe.ns_slots
        up_const = self._up_const
        tainted = self._tainted
        memo_get = memo.get
        zone_cache = self._avail_zc
        base = self._avail_base
        probability = 1.0
        for zone in zones:
            if zone_cache is not None:
                replay = zone_cache.get(zone)
                if replay is not None:
                    term, delta = replay
                    if delta:
                        self._taint_events += delta
                    probability *= term
                    continue
            nameservers = split_ids(zone)[1]
            if not nameservers:
                probability = 0.0
                break
            all_down = 1.0
            pure = zone_cache is not None
            events_zone = self._taint_events
            for ns in nameservers:
                value = memo_get(ns)
                if value is None:
                    value = self._avail_int(universe, closures, ns, memo,
                                            in_progress, shared)
                    pure = False
                else:
                    if ns in tainted:
                        self._taint_events += 1
                    if pure and ns not in base:
                        pure = False
                up = up_const if up_const is not None else \
                    self._up_slot(universe, ns_slots[ns])
                all_down *= (1.0 - up * value)
            term = 1.0 - all_down
            if pure:
                zone_cache[zone] = (term, self._taint_events - events_zone)
            probability *= term
        memo[node] = probability
        if self._taint_events == events_before:
            if shared is not None:
                shared[node] = probability
        else:
            self._tainted.add(node)
        return probability

    # -- exact evaluation ----------------------------------------------------------------

    def monte_carlo(self, graph: DelegationView, samples: int = 500,
                    rng: Optional[random.Random] = None) -> float:
        """Estimate availability by sampling failure scenarios.

        The draw order is fixed: per sample, one ``rng.random()`` per TCB
        host in sorted order, the host being down when the draw is at least
        its up-probability.  Bit *s* of each server's up-mask is sample
        *s*'s draw, and one exact evaluation of the masks scores every
        sample at once, so sample *s* succeeds exactly when
        :meth:`resolvable_with_failures` does for its down set.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        rng = rng or random.Random(0)
        universe, closures, target_id = self._core(graph)
        hosts = sorted(graph.tcb())
        probabilities = [self.up_probability(host) for host in hosts]
        down_masks = [0] * len(hosts)
        rand = rng.random
        for sample in range(samples):
            bit = 1 << sample
            for index, probability in enumerate(probabilities):
                if rand() >= probability:
                    down_masks[index] |= bit
        full = (1 << samples) - 1
        ns_slots = universe.ns_slots
        up_by_slot: Dict[int, int] = {}
        for index, host in enumerate(hosts):
            node_id = universe.find_id(NS_CODE, host)
            if node_id is not None:
                up_by_slot[ns_slots[node_id]] = full & ~down_masks[index]
        if not closures.split_ids(target_id)[0]:
            # No known delegation chain: the name resolves in no sample.
            return 0.0
        value = self._alive(closures, target_id, {}, up_by_slot, full)
        return value.bit_count() / samples

    def resolvable_with_failures(self, graph: DelegationView,
                                 failed: Set[DomainName]) -> bool:
        """Exact check: does the name resolve when ``failed`` servers are down?"""
        universe, closures, target_id = self._core(graph)
        if not closures.split_ids(target_id)[0]:
            return False
        if not failed:
            return self._single_failures(closures, target_id) < 0
        up_by_slot: Dict[int, int] = {}
        ns_slots = universe.ns_slots
        for host in failed:
            node_id = universe.find_id(NS_CODE, host)
            if node_id is not None:
                up_by_slot[ns_slots[node_id]] = 0
        return self._alive(closures, target_id, {}, up_by_slot, 1) != 0

    def single_points_of_failure(self, graph: DelegationView
                                 ) -> FrozenSet[DomainName]:
        """Servers whose individual loss makes the name unresolvable.

        These are exactly the size-one bottlenecks of the availability
        structure: names served by a single machine anywhere on their chain.
        One exact evaluation scores every single-server failure at once
        (see :meth:`_alive`), instead of one evaluation per TCB member.
        """
        universe, closures, target_id = self._core(graph)
        alive = 0
        if closures.split_ids(target_id)[0]:
            alive = self._single_failures(closures, target_id)
        if alive >= 0:
            # The name does not resolve even with every server up: any
            # single failure "also" leaves it unresolvable.
            return graph.tcb_frozen()
        kills = ~alive & closures.closure_mask_id(target_id)
        if not kills:
            return frozenset()
        return frozenset(universe.mask_to_hosts(kills))

    def _single_failures(self, closures, target_id: int) -> int:
        """:meth:`_alive` under the single-failure model (shared memo)."""
        memo = self.shared_spof_memo
        return self._alive(closures, target_id, {} if memo is None else memo,
                           None, -1)

    @staticmethod
    def _alive(closures, root: int, memo: Dict[int, int],
               up_by_slot: Optional[Dict[int, int]], full: int) -> int:
        """Bitmask of the scenarios in which ``root`` resolves, exactly.

        A node resolves in a scenario when every zone on its chain has a
        nameserver that is up and itself resolves; a node without a chain
        (a glued host) always resolves.  ``up_by_slot`` maps an NS slot to
        the scenarios its server is up in (absent: ``full``).  ``None``
        selects the single-failure model: scenario *s* fails slot *s* and
        nothing else, ``full`` is ``-1``, and the infinite run of high bits
        is the all-up scenario.

        Dependency loops (mutual secondaries, in-bailiwick self-loops) get
        the greatest fixpoint: a loop resolves unless a failure outside it
        starves it.  Each strongly connected component is settled only
        once it is closed (iterative Tarjan): its members start at ``full``
        and are re-evaluated until no mask changes.  A settled mask does
        not depend on the path that reached the node, so ``memo`` may be
        shared across roots.
        """
        settled = memo.get(root)
        if settled is not None:
            return settled
        split_ids = closures.split_ids
        ns_slots = closures.universe.ns_slots
        up_get = up_by_slot.get if up_by_slot is not None else None

        def evaluate(node: int) -> int:
            value = full
            for zone in split_ids(node)[0]:
                nameservers = split_ids(zone)[1]
                if not nameservers:
                    return 0
                zone_up = 0
                for ns in nameservers:
                    slot = ns_slots[ns]
                    up = ~(1 << slot) if up_get is None else up_get(slot, full)
                    zone_up |= up & memo[ns]
                value &= zone_up
            return value

        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        stack: List[int] = []
        looped: Set[int] = set()
        work: List[Tuple[int, Iterator[int]]] = []

        def open_node(node: int) -> None:
            index[node] = low[node] = len(index)
            stack.append(node)
            work.append((node, iter([ns for zone in split_ids(node)[0]
                                     for ns in split_ids(zone)[1]])))

        open_node(root)
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ in memo:
                    continue
                if succ not in index:
                    open_node(succ)
                    break
                # Visited but unsettled: still on the Tarjan stack.
                if succ == node:
                    looped.add(node)
                elif index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] != index[node]:
                    continue
                members: List[int] = []
                while True:
                    member = stack.pop()
                    members.append(member)
                    if member == node:
                        break
                if len(members) == 1 and node not in looped:
                    memo[node] = evaluate(node)
                    continue
                for member in members:
                    memo[member] = full
                changed = True
                while changed:
                    changed = False
                    for member in members:
                        value = evaluate(member)
                        if value != memo[member]:
                            memo[member] = value
                            changed = True
        return memo[root]

    def single_points_of_failure_exhaustive(self, graph: DelegationView
                                            ) -> FrozenSet[DomainName]:
        """Reference implementation: re-evaluate resolution per TCB member.

        One exact evaluation per server — O(TCB × graph) versus the single
        bit-parallel walk of :meth:`single_points_of_failure`.  Kept as the
        slow reference the pass tests and benches compare against.
        """
        culprits = set()
        for hostname in graph.tcb():
            if not self.resolvable_with_failures(graph, {hostname}):
                culprits.add(hostname)
        return frozenset(culprits)

    def report(self, graph: DelegationView, samples: int = 0,
               rng: Optional[random.Random] = None) -> AvailabilityReport:
        """Full availability report (analytic, optional Monte Carlo, SPOFs)."""
        analytic = self.resolution_probability(graph)
        monte_carlo = None
        if samples:
            monte_carlo = self.monte_carlo(graph, samples=samples, rng=rng)
        return AvailabilityReport(
            name=graph.target, analytic=analytic, monte_carlo=monte_carlo,
            samples=samples,
            single_points_of_failure=self.single_points_of_failure(graph))


def availability_security_tradeoff(graphs, up_probability: float = 0.95,
                                   vulnerability_map: Optional[Mapping] = None
                                   ) -> Dict[str, float]:
    """Summarise the paper's dilemma over a collection of delegation views.

    Returns the mean TCB size (the security cost), the mean analytic
    availability under independent failures (the availability benefit), and
    the fraction of names with at least one single point of failure.
    """
    analyzer = AvailabilityAnalyzer(up_probability)
    sizes = []
    availabilities = []
    spof_names = 0
    for graph in graphs:
        sizes.append(graph.tcb_size())
        availabilities.append(analyzer.resolution_probability(graph))
        if analyzer.single_points_of_failure(graph):
            spof_names += 1
    count = max(1, len(sizes))
    return {
        "names": float(len(sizes)),
        "mean_tcb_size": sum(sizes) / count,
        "mean_availability": sum(availabilities) / count,
        "fraction_with_spof": spof_names / count,
    }
