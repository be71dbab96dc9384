"""Tests for :mod:`repro.topology.churn` (the seeded churn model).

The load-bearing property is determinism: the same seed and rates over the
same world must produce the identical journal event sequence, epoch after
epoch — that is what makes a churn timeline a reproducible experiment.
"""

import pytest

from repro.dns.name import DomainName, name_key
from repro.topology.changes import (
    ChangeJournal,
    nameserver_union_index,
    zone_nameserver_union,
)
from repro.topology.churn import (
    ChurnModel,
    ChurnRates,
    DOWNGRADE_BANNERS,
    INFRASTRUCTURE_SUFFIXES,
    PINNED_HOME_ZONE_KINDS,
    UPGRADE_BANNERS,
)
from repro.topology.generator import GeneratorConfig, InternetGenerator

CONFIG = GeneratorConfig(seed=4242, sld_count=60, directory_name_count=90,
                         university_count=12, hosting_provider_count=6,
                         isp_count=4, alexa_count=15)

RATES = ChurnRates(transfer=2.0, death=1.0, upgrade=2.0, downgrade=1.0,
                   region=1.0, dnssec=0.1)


def _world():
    return InternetGenerator(CONFIG).generate()


def _event_fingerprint(event):
    """A comparable identity for one journal event."""
    return (event.kind, str(event.zone) if event.zone else None,
            tuple(str(h) for h in event.hosts_before),
            tuple(str(h) for h in event.hosts_after),
            {key: value for key, value in event.details.items()
             if key != "deployment"})


def _run_epochs(world, seed, epochs=3, rates=RATES):
    model = ChurnModel(world, rates, seed=seed)
    sequence = []
    for _ in range(epochs):
        journal = ChangeJournal(world)
        for event in model.advance(journal):
            sequence.append(_event_fingerprint(event))
    return sequence


# -- determinism -----------------------------------------------------------------------

def test_same_seed_and_rates_reproduce_the_event_sequence():
    first = _run_epochs(_world(), seed=7)
    second = _run_epochs(_world(), seed=7)
    assert first == second
    assert len(first) > 0


def test_different_seeds_diverge():
    assert _run_epochs(_world(), seed=7) != _run_epochs(_world(), seed=8)


def test_different_rates_diverge():
    quiet = ChurnRates(transfer=0.0, death=0.0, upgrade=1.0, downgrade=0.0,
                       region=0.0, dnssec=0.0)
    assert _run_epochs(_world(), seed=7) != \
        _run_epochs(_world(), seed=7, rates=quiet)


def test_zero_rates_produce_no_events():
    world = _world()
    model = ChurnModel(world, ChurnRates(transfer=0, death=0, upgrade=0,
                                         downgrade=0, region=0, dnssec=0))
    journal = ChangeJournal(world)
    assert model.advance(journal) == []
    assert journal.changes().empty


# -- event semantics -------------------------------------------------------------------

def test_infrastructure_is_never_churned():
    """Root / gTLD / TLD-serving hosts and zones stay untouched."""
    world = _world()
    model = ChurnModel(world, RATES, seed=3)
    infrastructure = tuple(DomainName(s) for s in INFRASTRUCTURE_SUFFIXES)

    def is_infra(name):
        return any(name.is_subdomain_of(suffix) for suffix in infrastructure)

    tld_hosts = {host for apex in world.zones if apex.depth <= 1
                 for host in zone_nameserver_union(world, apex)}
    for _ in range(6):
        journal = ChangeJournal(world)
        for event in model.advance(journal):
            if event.zone is not None:
                assert event.zone.depth >= 2
                assert not is_infra(event.zone)
            for host in event.touched_hosts:
                assert not is_infra(host)
            if event.kind in ("software", "region", "server-remove"):
                assert not event.touched_hosts & tld_hosts


def test_death_replaces_before_removing():
    """A death event leaves every affected zone served, by the replacement."""
    world = _world()
    model = ChurnModel(world, ChurnRates(transfer=0, death=1.0, upgrade=0,
                                         downgrade=0, region=0, dnssec=0),
                       seed=1)
    journal = ChangeJournal(world)
    events = model.advance(journal)
    assert events, "death rate 1.0 must kill a server every epoch"
    removal = next(e for e in events if e.kind == "server-remove")
    victim = next(iter(removal.touched_hosts))
    addition = next(e for e in events if e.kind == "server-add")
    replacement = addition.hosts_after[0]
    assert replacement.parent() == victim.parent()
    for apex in removal.details["zones"]:
        union = zone_nameserver_union(world, DomainName(apex))
        assert victim not in union
        assert replacement in union
    assert world.servers[replacement].software == \
        addition.details["software"]


def test_software_churn_draws_from_the_catalogues():
    world = _world()
    model = ChurnModel(world, ChurnRates(transfer=0, death=0, upgrade=2.0,
                                         downgrade=2.0, region=0, dnssec=0),
                       seed=2)
    banners = set()
    for _ in range(5):
        journal = ChangeJournal(world)
        for event in model.advance(journal):
            assert event.kind == "software"
            banners.add(event.details["after"])
    assert banners <= set(UPGRADE_BANNERS) | set(DOWNGRADE_BANNERS)
    assert banners & set(UPGRADE_BANNERS)
    assert banners & set(DOWNGRADE_BANNERS)


def test_region_migration_changes_the_region():
    world = _world()
    model = ChurnModel(world, ChurnRates(transfer=0, death=0, upgrade=0,
                                         downgrade=0, region=1.0, dnssec=0),
                       seed=4)
    journal = ChangeJournal(world)
    event = model.advance(journal)[0]
    assert event.kind == "region"
    assert event.details["before"] != event.details["after"]


def test_dnssec_adoption_is_monotone_and_saturates():
    world = _world()
    model = ChurnModel(world, ChurnRates(transfer=0, death=0, upgrade=0,
                                         downgrade=0, region=0, dnssec=0.4),
                       seed=5)
    fractions = []
    for _ in range(4):
        journal = ChangeJournal(world)
        model.advance(journal)
        fractions.append(model.dnssec_fraction)
    assert fractions == [0.4, 0.8, 1.0, 1.0]
    # Saturated: the fourth epoch journals no further deployment.
    journal = ChangeJournal(world)
    assert model.advance(journal) == []


def test_transfer_moves_zone_to_another_operator():
    world = _world()
    model = ChurnModel(world, ChurnRates(transfer=3.0, death=0, upgrade=0,
                                         downgrade=0, region=0, dnssec=0),
                       seed=6)
    journal = ChangeJournal(world)
    events = model.advance(journal)
    assert events, "transfer rate 3.0 over a 60-SLD world must land one"
    organizations = world.organizations
    for event in events:
        assert event.kind == "zone-ns"
        new_operator = organizations.operator_of(event.hosts_after[0])
        assert new_operator is not None
        assert event.hosts_after != event.hosts_before


# -- the world's NS-union index --------------------------------------------------------

def _rebuilt_unions(world):
    return {apex: tuple(zone_nameserver_union(world, apex))
            for apex in world.zones}


def _rebuilt_pools(model, world):
    """The candidate pools recomputed from every zone, as from scratch."""
    unions = _rebuilt_unions(world)
    served = {}
    for apex, hosts in unions.items():
        for host in hosts:
            served.setdefault(host, []).append(apex)
    suffixes = [DomainName(s) for s in INFRASTRUCTURE_SUFFIXES]

    def infra(name):
        return any(name.is_subdomain_of(suffix) for suffix in suffixes)

    def backbone(host):
        return any(apex.depth <= 1 or infra(apex)
                   for apex in served.get(host, ()))

    def pinned(apex):
        owner = world.organizations.by_domain(apex)
        return owner is not None and bool(owner.nameservers) and \
            owner.kind in PINNED_HOME_ZONE_KINDS

    transferable = sorted(
        apex for apex in world.zones
        if apex.depth >= 2 and not infra(apex) and not pinned(apex)
        and not any(backbone(host) for host in unions[apex]))
    mortal = sorted(
        host for host in world.servers
        if not infra(host) and not backbone(host)
        and 0 < len(served.get(host, ())) <= model.death_fanout_limit)
    mutable = sorted(host for host in world.servers
                     if served.get(host) and not infra(host)
                     and not backbone(host))
    return served, (transferable, mortal, mutable)


def _cut_nested_zones(world, journal):
    """Cut lab.dept.<sld>, then dept.<sld> between it and its parent."""
    sld = min((apex for apex in world.zones if apex.depth == 2),
              key=name_key)
    hosts = zone_nameserver_union(world, sld)
    deep = journal.set_zone_nameservers(f"lab.dept.{sld}", hosts[:1])
    middle = journal.set_zone_nameservers(f"dept.{sld}", hosts)
    assert deep.created_zone and middle.created_zone


@pytest.mark.parametrize("seed", [2, 5, 13])
def test_union_index_and_pools_match_a_rebuild_every_epoch(seed):
    """The incrementally kept index equals a from-scratch rebuild after
    churn epochs, nested zone cuts and an explicit server removal."""
    world = _world()
    model = ChurnModel(world, RATES, seed=seed)
    index = nameserver_union_index(world)
    deaths = 0
    for epoch in range(4):
        journal = ChangeJournal(world)
        events = model.advance(journal)
        if epoch == 1:
            _cut_nested_zones(world, journal)
            victim = next(host for host in model.candidate_pools().mutable
                          if all(len(index.unions[apex]) > 1
                                 for apex in index.served_by(host)))
            journal.remove_server(victim)
        # The same object, kept current: never rebuilt behind our back.
        assert world.nameserver_unions is index
        served, pools = _rebuilt_pools(model, world)
        assert index.unions == _rebuilt_unions(world)
        assert list(index.unions) == list(world.zones)
        assert {host: index.served_by(host) for host in served} == served
        assert not any(index.served.get(host) for host in world.servers
                       if host not in served)
        assert tuple(model.candidate_pools()) == pools
        deaths += sum(event.kind == "server-remove" for event in events)
    assert deaths


# -- rates -----------------------------------------------------------------------------

def test_rates_parse_defaults_and_overrides():
    assert ChurnRates.parse(None) == ChurnRates()
    assert ChurnRates.parse("  ") == ChurnRates()
    rates = ChurnRates.parse("transfer=2,death=0.25, dnssec=0.05")
    assert rates.transfer == 2.0
    assert rates.death == 0.25
    assert rates.dnssec == 0.05
    assert rates.upgrade == ChurnRates().upgrade


@pytest.mark.parametrize("spec, message", [
    ("transfer", "malformed churn rate"),
    ("warp=1", "unknown churn class"),
    ("death=fast", "must be a number"),
    ("death=-1", "must be >= 0"),
    ("dnssec=1.5", "per-epoch fraction increment"),
])
def test_rates_parse_rejects_bad_specs(spec, message):
    with pytest.raises(ValueError, match=message):
        ChurnRates.parse(spec)


def test_rates_to_dict_round_trips():
    rates = ChurnRates(transfer=1.5, dnssec=0.02)
    assert ChurnRates(**rates.to_dict()) == rates
