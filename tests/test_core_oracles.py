"""The delegation-graph analyses against brute-force oracles.

Every analysis in :mod:`repro.core.mincut` and :mod:`repro.core.availability`
runs one integer implementation.  These tests check it against references
that are obviously correct because they are slow: plain reachability, a
fixpoint over explicit failure sets, and enumeration of every server subset
or failure state.  The oracles live here and share no code with the program.

Worlds are random tiny delegation topologies: up to four zones and five
nameservers, a zone may have no nameservers (a dead zone), and a host's own
chain may be empty (glue), may loop through a zone it serves (in-bailiwick
self-loop), through another zone whose servers need it back (mutual
secondaries), or through a dead zone (a never-resolvable NS).  Lame servers
are servers that are always down: every failure subset is enumerated, and
the availability tests give some servers an up-probability of 0.  The
hand-built ``TOPOLOGIES`` of ``test_core_graphcore`` are pinned as explicit
examples.  Hypothesis runs derandomized, so every run checks the same
worlds.

Resolution semantics: a name resolves when every zone on its chain has a
nameserver that is up and itself resolves.  Dependency loops take the
*greatest* fixpoint — a loop resolves unless something outside it fails,
which is what glue records provide.

Measured on the first 3,000 worlds this strategy derandomizes to (1,469 of
them resolve with every server up; per-server up-probabilities drawn from
``UP_CHOICES``):

* ``resolvable_with_failures`` and ``single_points_of_failure`` matched the
  greatest-fixpoint oracle in every world and every failure subset.  A
  least-fixpoint oracle (loops never resolve) disagrees in 955 worlds
  (32%), so the choice of fixpoint is observable.
* the min-cut was a valid complete-hijack set in every resolving world and
  larger than the brute-force optimum in 155 of 1,469 (the documented
  upper bound).
* analytic ``resolution_probability`` was above the exact availability in
  9 worlds (by at most 0.094) and below it in 344 (by at most 0.671): it
  errs in both directions, see ``test_analytic_probability_can_overestimate``.
"""

import itertools
import math
import random
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dns.name import DomainName
from repro.core.availability import AvailabilityAnalyzer
from repro.core.delegation import DelegationGraph, name_node, ns_node, zone_node
from repro.core.graphcore import KeyGraph
from repro.core.mincut import BottleneckAnalyzer

from test_core_graphcore import TOPOLOGIES, VULNERABLE

Edges = List[Tuple[tuple, tuple]]

ORACLE_SETTINGS = settings(max_examples=150, derandomize=True,
                           database=None, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])

ZONES = [zone_node(f"z{i}.test") for i in range(4)]
HOSTS = [ns_node(f"ns{i}.test") for i in range(5)]
TARGET = name_node("www.t.test")

#: Per-host up-probabilities drawn by the availability tests (0.0 = lame).
UP_CHOICES = (0.0, 0.5, 0.9, 1.0)


@st.composite
def worlds(draw) -> Edges:
    """A random tiny topology as a NodeKey edge list (successor order)."""
    zones = ZONES[:draw(st.integers(1, len(ZONES)))]
    hosts = HOSTS[:draw(st.integers(1, len(HOSTS)))]
    edges = [(TARGET, zone) for zone in draw(
        st.lists(st.sampled_from(zones), min_size=1, max_size=3,
                 unique=True))]
    for zone in zones:
        for host in draw(st.lists(st.sampled_from(hosts), max_size=3,
                                  unique=True)):
            edges.append((zone, host))
    for host in hosts:
        for zone in draw(st.lists(st.sampled_from(zones), max_size=2,
                                  unique=True)):
            edges.append((host, zone))
    return edges


# -- oracles ------------------------------------------------------------------------

def _target(edges: Edges) -> tuple:
    return next(source for source, _ in edges if source[0] == "name")


def _successors(edges: Edges) -> Dict[tuple, List[tuple]]:
    succ: Dict[tuple, List[tuple]] = {}
    for source, target in edges:
        succ.setdefault(source, []).append(target)
    return succ


def _graph(edges: Edges) -> DelegationGraph:
    graph = KeyGraph()
    for source, target in edges:
        graph.add_edge(source, target)
    return DelegationGraph(_target(edges)[1], graph)


def oracle_tcb(edges: Edges) -> FrozenSet[DomainName]:
    """Every nameserver reachable from the target (breadth-first search)."""
    succ = _successors(edges)
    seen = {_target(edges)}
    frontier = list(seen)
    while frontier:
        node = frontier.pop(0)
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(key[1] for key in seen if key[0] == "ns")


def oracle_resolves(edges: Edges, failed: Iterable[DomainName],
                    greatest: bool = True) -> bool:
    """Does the target resolve with ``failed`` down?  (Kleene iteration.)

    Greatest fixpoint: start from "every server that is up resolves" and
    drop servers with a starved zone until nothing changes.  Least
    fixpoint (``greatest=False``): start from "only glued servers
    resolve" and add servers whose every zone has a live server.
    """
    succ = _successors(edges)
    failed = set(failed)
    hosts = {key for edge in edges for key in edge if key[0] == "ns"}

    def satisfied(node, alive) -> bool:
        return all(any(ns in alive for ns in succ.get(zone, ()))
                   for zone in succ.get(node, ()))

    if greatest:
        alive = {host for host in hosts if host[1] not in failed}
        while True:
            keep = {host for host in alive if satisfied(host, alive)}
            if keep == alive:
                break
            alive = keep
    else:
        alive = set()
        while True:
            grow = {host for host in hosts if host[1] not in failed
                    and satisfied(host, alive)}
            if grow == alive:
                break
            alive = grow
    target = _target(edges)
    return bool(succ.get(target)) and satisfied(target, alive)


def _subsets(items) -> Iterable[Set[DomainName]]:
    items = sorted(items)
    for size in range(len(items) + 1):
        for subset in itertools.combinations(items, size):
            yield set(subset)


def oracle_availability(edges: Edges, up: Dict[DomainName, float]) -> float:
    """Exact availability: sum over all 2^|TCB| up/down states."""
    tcb = sorted(oracle_tcb(edges))
    total = 0.0
    for states in itertools.product((True, False), repeat=len(tcb)):
        weight = 1.0
        down = set()
        for host, is_up in zip(tcb, states):
            weight *= up[host] if is_up else 1.0 - up[host]
            if not is_up:
                down.add(host)
        if weight and oracle_resolves(edges, down):
            total += weight
    return total


# -- tests ------------------------------------------------------------------------------

def _pinned(test):
    """Pin every hand-built topology as an explicit example."""
    for name in sorted(TOPOLOGIES):
        test = example(TOPOLOGIES[name])(test)
    return test


def _pinned_mincut(test):
    for name in sorted(TOPOLOGIES):
        test = example(TOPOLOGIES[name], VULNERABLE[name])(test)
    return test


@ORACLE_SETTINGS
@given(worlds())
@_pinned
def test_tcb_is_plain_reachability(edges):
    assert _graph(edges).tcb_frozen() == oracle_tcb(edges)


@ORACLE_SETTINGS
@given(worlds())
@_pinned
def test_resolvable_with_failures_is_the_greatest_fixpoint(edges):
    """Every failure subset of the TCB; measured 0 mismatching worlds of
    3,000, against 955 for a least-fixpoint oracle."""
    graph = _graph(edges)
    analyzer = AvailabilityAnalyzer(0.9)
    for failed in _subsets(oracle_tcb(edges)):
        assert analyzer.resolvable_with_failures(graph, failed) == \
            oracle_resolves(edges, failed), sorted(map(str, failed))


def test_fixpoint_choice_is_observable():
    """An in-bailiwick self-loop resolves only under the greatest fixpoint."""
    edges = TOPOLOGIES["self_loop"]
    assert oracle_resolves(edges, {DomainName("offsite.b.test")})
    assert not oracle_resolves(edges, {DomainName("offsite.b.test")},
                               greatest=False)
    assert AvailabilityAnalyzer(0.9).resolvable_with_failures(
        _graph(edges), {DomainName("offsite.b.test")})


def test_loop_assumption_does_not_leak_into_later_zones():
    """With ns4 down, z1 starves, so ns3, z0, ns0 and ns1 all die.  A walk
    that reaches ns1 while ns0 is still being evaluated sees ns1 resolve
    under the assumption that ns0 does; reusing that answer for the
    target's z2 wrongly resolves the name, as a memoised depth-first walk
    without component settling does."""
    ns0, ns1, ns3, ns4 = (ns_node(f"ns{i}.test") for i in (0, 1, 3, 4))
    z0, z1, z2 = ZONES[:3]
    edges = [(TARGET, z2), (z2, ns0), (z2, ns1), (ns0, z0), (ns0, z2),
             (ns1, z2), (ns1, z0), (z0, ns3), (ns3, z1), (ns3, z2),
             (z1, ns4), (ns4, z1)]
    failed = {DomainName("ns4.test")}
    assert not oracle_resolves(edges, failed)
    graph = _graph(edges)
    analyzer = AvailabilityAnalyzer(1.0)
    assert not analyzer.resolvable_with_failures(graph, failed)
    assert DomainName("ns4.test") in analyzer.single_points_of_failure(graph)


@ORACLE_SETTINGS
@given(worlds())
@_pinned
def test_single_points_of_failure_delete_one_server(edges):
    tcb = oracle_tcb(edges)
    expected = frozenset(host for host in tcb
                         if not oracle_resolves(edges, {host}))
    graph = _graph(edges)
    assert AvailabilityAnalyzer(0.9).single_points_of_failure(graph) == \
        expected
    assert AvailabilityAnalyzer(0.9).single_points_of_failure_exhaustive(
        graph) == expected


@ORACLE_SETTINGS
@given(worlds(), st.sets(st.sampled_from([host[1] for host in HOSTS])))
@_pinned_mincut
def test_mincut_is_a_valid_hijack_set_bounded_by_the_optimum(edges,
                                                            vulnerable):
    """The cut must disconnect the name; its cost is an upper bound.

    Measured: valid in all 1,469 resolving worlds of 3,000; above the
    brute-force optimum in 155 of them (a server shared by two branches is
    paid in both).
    """
    if not oracle_resolves(edges, ()):
        return
    graph = _graph(edges)
    vulnerability = {DomainName(host): True for host in vulnerable}
    tcb = oracle_tcb(edges)
    valid = [failed for failed in _subsets(tcb)
             if not oracle_resolves(edges, failed)]
    for aware in (False, True):
        result = BottleneckAnalyzer(vulnerability,
                                    vulnerability_aware=aware).analyze(graph)
        assert result.feasible
        assert result.cut_servers <= tcb
        assert not oracle_resolves(edges, result.cut_servers)
        if aware:
            best = min((sum(1 for host in failed
                            if host not in vulnerability), len(failed))
                       for failed in valid)
            assert (result.safe_in_cut, result.size) >= best
        else:
            assert result.size >= min(len(failed) for failed in valid)


def _up_model(edges, draw_up) -> Dict[DomainName, float]:
    return {host: draw_up(host) for host in sorted(oracle_tcb(edges))}


@ORACLE_SETTINGS
@given(worlds(), st.lists(st.sampled_from(UP_CHOICES), min_size=5,
                          max_size=5), st.integers(0, 2 ** 32 - 1))
def test_monte_carlo_within_hoeffding_bound_of_exact(edges, ups, seed):
    """With n samples the estimate of an exact probability p lies within
    sqrt(ln(2/delta) / 2n) of p except with probability delta = 1e-6."""
    up = {DomainName(f"ns{i}.test"): ups[i] for i in range(5)}
    up.update({host: 0.9 for host in oracle_tcb(edges) if host not in up})
    exact = oracle_availability(edges, up)
    samples = 400
    estimate = AvailabilityAnalyzer(up, default_up=0.9).monte_carlo(
        _graph(edges), samples=samples, rng=random.Random(seed))
    bound = math.sqrt(math.log(2 / 1e-6) / (2 * samples))
    assert abs(estimate - exact) <= bound


def test_analytic_probability_can_overestimate():
    """The analytic recursion is not a lower bound.

    ns1 is z1's second server, but its own chain needs z2, which only ns0
    serves: z1 is reachable exactly when ns0 is up (0.9).  The recursion
    treats ns1 and ns0 as independent alternatives and credits ns1 with an
    availability of its own (0.81), giving 0.9639.  Measured over 3,000
    worlds: above exact in 9 (by up to 0.094), below in 344.
    """
    ns0, ns1 = HOSTS[:2]
    z1, z2 = ZONES[1:3]
    edges = [(TARGET, z1), (z1, ns1), (z1, ns0), (z2, ns0), (ns0, z2),
             (ns0, z1), (ns1, z2)]
    up = {DomainName("ns0.test"): 0.9, DomainName("ns1.test"): 1.0}
    analytic = AvailabilityAnalyzer(up).resolution_probability(_graph(edges))
    assert oracle_availability(edges, up) == pytest.approx(0.9)
    assert analytic == pytest.approx(0.9639)
