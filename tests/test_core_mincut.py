"""Tests for :mod:`repro.core.mincut`.

Besides exercising the analyzer on resolver-built graphs, these tests build
delegation graphs by hand so the expected minimum attack sets are known
exactly.
"""

import networkx as nx

from repro.dns.name import DomainName
from repro.core.delegation import (
    DelegationGraph,
    DelegationGraphBuilder,
    name_node,
    ns_node,
    zone_node,
)
from repro.core.mincut import BottleneckAnalyzer, BottleneckResult


def hand_built_graph():
    """name -> [com zone -> 3 registry NS], [site zone -> ns1, ns2].

    The site's two nameservers live at a provider whose own zone is served
    by the same two servers (a self-contained provider), so the cheapest
    complete takeover is {ns1, ns2} with cost 2.
    """
    graph = nx.DiGraph()
    target = name_node("www.site.com")
    com = zone_node("com")
    site = zone_node("site.com")
    provider = zone_node("provider.com")
    graph.add_edge(target, com)
    graph.add_edge(target, site)
    for index in range(1, 4):
        graph.add_edge(com, ns_node(f"ns{index}.registry.net"))
        graph.add_edge(ns_node(f"ns{index}.registry.net"), com)
    for index in (1, 2):
        host = ns_node(f"ns{index}.provider.com")
        graph.add_edge(site, host)
        graph.add_edge(host, com)
        graph.add_edge(host, provider)
        graph.add_edge(provider, host)
    return DelegationGraph("www.site.com", graph)


def test_unweighted_mincut_is_the_weakest_zone():
    graph = hand_built_graph()
    analyzer = BottleneckAnalyzer(vulnerability_aware=False)
    result = analyzer.analyze(graph)
    assert result.feasible
    assert result.size == 2
    assert {str(host) for host in result.cut_servers} == {
        "ns1.provider.com", "ns2.provider.com"}


def test_vulnerability_aware_cut_counts_safe_servers():
    graph = hand_built_graph()
    vulnerability_map = {DomainName("ns1.provider.com"): True}
    analyzer = BottleneckAnalyzer(vulnerability_map)
    result = analyzer.analyze(graph)
    assert result.size == 2
    assert result.vulnerable_in_cut == 1
    assert result.safe_in_cut == 1
    assert result.one_safe_server
    assert not result.fully_vulnerable


def test_fully_vulnerable_cut_detected():
    graph = hand_built_graph()
    vulnerability_map = {DomainName("ns1.provider.com"): True,
                         DomainName("ns2.provider.com"): True}
    result = BottleneckAnalyzer(vulnerability_map).analyze(graph)
    assert result.fully_vulnerable
    assert result.safe_in_cut == 0
    assert result.vulnerable_in_cut == 2


def test_vulnerability_aware_prefers_vulnerable_route():
    """A vulnerable registry makes attacking the (larger) TLD zone cheaper in
    safe-server terms than attacking the (smaller) safe leaf zone."""
    graph = nx.DiGraph()
    target = name_node("www.x.tld")
    tld = zone_node("tld")
    leaf = zone_node("x.tld")
    graph.add_edge(target, tld)
    graph.add_edge(target, leaf)
    graph.add_edge(tld, ns_node("a.registry.tld"))
    graph.add_edge(ns_node("a.registry.tld"), tld)
    for index in (1, 2):
        host = ns_node(f"ns{index}.x.tld")
        graph.add_edge(leaf, host)
        graph.add_edge(host, tld)
    delegation_graph = DelegationGraph("www.x.tld", graph)
    vulnerability_map = {DomainName("a.registry.tld"): True}
    aware = BottleneckAnalyzer(vulnerability_map).analyze(delegation_graph)
    assert aware.safe_in_cut == 0
    assert {str(h) for h in aware.cut_servers} == {"a.registry.tld"}
    unaware = BottleneckAnalyzer(vulnerability_map,
                                 vulnerability_aware=False).analyze(
        delegation_graph)
    assert unaware.size == 1


def test_indirect_attack_through_nameserver_hostname():
    """Blocking a nameserver by hijacking its hostname's own zone.

    The leaf zone has two NS; one of them can be neutralised by compromising
    the single server of the zone its hostname lives in, so the optimal cut
    is {other NS, that single upstream server}.
    """
    graph = nx.DiGraph()
    target = name_node("www.leaf.org")
    leaf = zone_node("leaf.org")
    upstream = zone_node("upstream.net")
    graph.add_edge(target, leaf)
    ns_local = ns_node("ns1.leaf.org")
    ns_remote = ns_node("ns.remote.upstream.net")
    graph.add_edge(leaf, ns_local)
    graph.add_edge(leaf, ns_remote)
    graph.add_edge(ns_remote, upstream)
    single = ns_node("only.upstream.net")
    graph.add_edge(upstream, single)
    delegation_graph = DelegationGraph("www.leaf.org", graph)
    result = BottleneckAnalyzer(vulnerability_aware=False).analyze(
        delegation_graph)
    assert result.size == 2
    cut = {str(h) for h in result.cut_servers}
    assert "ns1.leaf.org" in cut
    # The second server is either the remote NS itself or the single server
    # controlling its address resolution -- both are minimum-cost choices.
    assert cut - {"ns1.leaf.org"} <= {"ns.remote.upstream.net",
                                      "only.upstream.net"}


def test_cycles_do_not_blow_up():
    """Mutual secondaries form dependency cycles; the analyzer must still
    terminate and fall back to direct attacks."""
    graph = nx.DiGraph()
    target = name_node("www.a.edu")
    zone_a = zone_node("a.edu")
    zone_b = zone_node("b.edu")
    graph.add_edge(target, zone_a)
    ns_a = ns_node("dns.a.edu")
    ns_b = ns_node("dns.b.edu")
    graph.add_edge(zone_a, ns_a)
    graph.add_edge(zone_a, ns_b)
    graph.add_edge(zone_b, ns_b)
    graph.add_edge(zone_b, ns_a)
    graph.add_edge(ns_a, zone_a)
    graph.add_edge(ns_b, zone_b)
    graph.add_edge(ns_a, zone_b)
    graph.add_edge(ns_b, zone_a)
    delegation_graph = DelegationGraph("www.a.edu", graph)
    result = BottleneckAnalyzer(vulnerability_aware=False).analyze(
        delegation_graph)
    assert result.feasible
    assert result.size == 2


def test_shared_memo_follows_the_view_universe():
    """Memo keys are universe-local node ids and every DelegationGraph has
    its own universe: a shared-memo analyzer alternating between graphs
    must match fresh analyzers."""
    vulnerability_map = {DomainName("ns1.provider.com"): True}
    shared = BottleneckAnalyzer(vulnerability_map, shared_memo={})
    narrow = nx.DiGraph()
    narrow.add_edge(name_node("www.site.com"), zone_node("site.com"))
    narrow.add_edge(zone_node("site.com"), ns_node("ns9.other.net"))
    graphs = [hand_built_graph(), DelegationGraph("www.site.com", narrow)]
    for graph in graphs + graphs:
        got = shared.analyze(graph)
        want = BottleneckAnalyzer(vulnerability_map).analyze(graph)
        assert (got.cut_servers, got.safe_in_cut) == \
            (want.cut_servers, want.safe_in_cut)


def test_empty_graph_is_infeasible():
    graph = DelegationGraph("www.nowhere.zz", nx.DiGraph())
    result = BottleneckAnalyzer().analyze(graph)
    assert not result.feasible
    assert result.size == 0
    assert not result.fully_vulnerable


def test_result_to_dict():
    graph = hand_built_graph()
    result = BottleneckAnalyzer(
        {DomainName("ns1.provider.com"): True}).analyze(graph)
    payload = result.to_dict()
    assert payload["size"] == 2
    assert payload["safe_in_cut"] == 1
    assert payload["feasible"] is True
    assert len(payload["servers"]) == 2


# -- against resolver-built graphs -------------------------------------------------------

def test_mini_internet_hosted_name_cut(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.example.com")
    result = BottleneckAnalyzer(vulnerability_aware=False).analyze(graph)
    # The mini Internet has two-server zones at every level, so the minimum
    # cut has size two: either the hosting provider's pair or the (equally
    # small) com registry pair.
    assert result.size == 2
    cut = {str(h) for h in result.cut_servers}
    assert cut in ({"ns1.hostco.com", "ns2.hostco.com"},
                   {"ns1.gtld.net", "ns2.gtld.net"})


def test_mini_internet_cut_never_exceeds_tcb(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    for name in ("www.example.com", "www.uni.edu", "www.partner.edu",
                 "www.hostco.com"):
        graph = builder.build(name)
        result = BottleneckAnalyzer(vulnerability_aware=False).analyze(graph)
        assert result.feasible
        assert 0 < result.size <= graph.tcb_size()
        assert result.cut_servers <= graph.tcb()


def test_analyze_unweighted_helper(mini_internet):
    builder = DelegationGraphBuilder(mini_internet.make_resolver())
    graph = builder.build("www.example.com")
    vulnerability_map = {DomainName("ns1.hostco.com"): True,
                         DomainName("ns2.hostco.com"): True}
    analyzer = BottleneckAnalyzer(vulnerability_map)
    aware = analyzer.analyze(graph)
    unweighted = analyzer.analyze_unweighted(graph)
    assert aware.fully_vulnerable
    assert unweighted.size <= aware.size or unweighted.size == aware.size
