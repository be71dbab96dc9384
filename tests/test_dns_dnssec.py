"""Tests for the simplified DNSSEC model (:mod:`repro.dns.dnssec`)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.dnssec import (
    ChainValidator,
    ZoneSigner,
    rrset_signature,
    zone_key,
)
from repro.dns.name import DomainName
from repro.dns.rdtypes import RRType
from repro.dns.records import ResourceRecord, RRSet
from repro.dns.zone import Zone


# -- primitives ------------------------------------------------------------------

def test_zone_key_is_deterministic_and_zone_specific():
    assert zone_key("example.com") == zone_key("EXAMPLE.COM.")
    assert zone_key("example.com") != zone_key("other.com")
    assert zone_key("example.com", seed="a") != zone_key("example.com",
                                                         seed="b")


def test_rrset_signature_changes_with_content():
    key = zone_key("example.com")
    base = RRSet("www.example.com", RRType.A, records=[
        ResourceRecord.create("www.example.com", RRType.A, "10.0.0.80")])
    forged = RRSet("www.example.com", RRType.A, records=[
        ResourceRecord.create("www.example.com", RRType.A, "6.6.6.6")])
    assert rrset_signature("example.com", base, key) != \
        rrset_signature("example.com", forged, key)
    # Signature does not depend on record order.
    multi_a = RRSet("www.example.com", RRType.A, records=[
        ResourceRecord.create("www.example.com", RRType.A, "10.0.0.80"),
        ResourceRecord.create("www.example.com", RRType.A, "10.0.0.81")])
    multi_b = RRSet("www.example.com", RRType.A, records=[
        ResourceRecord.create("www.example.com", RRType.A, "10.0.0.81"),
        ResourceRecord.create("www.example.com", RRType.A, "10.0.0.80")])
    assert rrset_signature("example.com", multi_a, key) == \
        rrset_signature("example.com", multi_b, key)


# -- zone signing -----------------------------------------------------------------------

def test_sign_zone_adds_dnskey_and_rrsigs():
    zone = Zone("example.com")
    zone.set_apex_nameservers(["ns1.example.com"])
    zone.add("www.example.com", RRType.A, "10.0.0.80")
    signer = ZoneSigner()
    key = signer.sign_zone(zone)
    assert signer.is_signed("example.com")
    dnskey = zone.get_rrset("example.com", RRType.DNSKEY)
    assert dnskey and str(dnskey.records[0].rdata) == key
    rrsig = zone.get_rrset("www.example.com", RRType.RRSIG)
    assert rrsig is not None
    assert any(str(record.rdata).startswith("A ") for record in rrsig)


def test_sign_zone_is_idempotent_and_refreshes_new_records():
    zone = Zone("example.com")
    zone.set_apex_nameservers(["ns1.example.com"])
    signer = ZoneSigner()
    signer.sign_zone(zone)
    count_first = zone.record_count()
    signer.sign_zone(zone)
    assert zone.record_count() == count_first
    zone.add("new.example.com", RRType.A, "10.0.0.81")
    signer.sign_zone(zone)
    assert zone.get_rrset("new.example.com", RRType.RRSIG) is not None


def test_publish_ds_requires_signed_parent():
    parent = Zone("com")
    parent.set_apex_nameservers(["ns1.gtld.net"])
    child_apex = "example.com"
    signer = ZoneSigner()
    assert signer.publish_ds(parent, child_apex) is None
    signer.sign_zone(parent)
    ds_value = signer.publish_ds(parent, child_apex)
    assert ds_value is not None
    ds_rrset = parent.get_rrset(child_apex, RRType.DS)
    assert ds_rrset and str(ds_rrset.records[0].rdata) == ds_value
    # The DS RRSet itself is signed.
    assert parent.get_rrset(child_apex, RRType.RRSIG) is not None
    # Publishing twice does not duplicate the DS record.
    signer.publish_ds(parent, child_apex)
    assert len(parent.get_rrset(child_apex, RRType.DS)) == 1


# -- clean marks: skipping a pass never changes a zone ------------------------------------------

_OWNERS = ("example.com", "www.example.com", "sub.example.com",
           "a.sub.example.com", "deep.a.sub.example.com")
_CHILDREN = ("sub.example.com", "a.sub.example.com", "other.example.com")
_SEEDS = ("s1", "s2")

_operations = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_OWNERS),
              st.sampled_from(("10.0.0.1", "10.0.0.2", "10.0.0.3"))),
    st.tuples(st.just("replace_ns"),
              st.lists(st.sampled_from(("ns1.example.com", "ns2.example.com",
                                        "ns.hoster.net")),
                       max_size=3, unique=True)),
    st.tuples(st.just("extract"), st.sampled_from(_CHILDREN)),
    st.tuples(st.just("publish_ds"), st.sampled_from(_SEEDS),
              st.sampled_from(_CHILDREN)),
    st.tuples(st.just("sign"), st.sampled_from(_SEEDS)),
), max_size=30)


def _zone_content(zone):
    return [(rrset.name, rrset.rtype, rrset.records)
            for rrset in zone.iter_rrsets()]


@settings(max_examples=150, deadline=None)
@given(_operations)
def test_clean_marks_match_a_full_signing_pass(operations):
    """Every RRSet, RRSIG included and in order, equals a twin's that
    gets a full signing pass on every sign and DS publication."""
    zone, twin = Zone("example.com"), Zone("example.com")
    signers = {seed: ZoneSigner(seed=seed) for seed in _SEEDS}
    twin_signers = {seed: ZoneSigner(seed=seed) for seed in _SEEDS}
    for operation in operations:
        kind, *args = operation
        for target, signer_map in ((zone, signers), (twin, twin_signers)):
            if target is twin:
                target.signed_mark = None  # forget every clean pass
            if kind == "add":
                target.add(args[0], RRType.A, args[1])
            elif kind == "replace_ns":
                target.replace_apex_nameservers(args[0])
            elif kind == "extract":
                target.extract_subtree(args[0])
            elif kind == "publish_ds":
                signer_map[args[0]].publish_ds(target, args[1])
            else:
                signer_map[args[0]].sign_zone(target)
        assert _zone_content(zone) == _zone_content(twin)


def test_unchanged_zone_is_not_walked_again():
    zone = Zone("example.com")
    zone.add("www.example.com", RRType.A, "10.0.0.80")
    signer = ZoneSigner()
    signer.sign_zone(zone)
    revision = zone.revision
    assert zone.signed_mark == (zone_key("example.com"), revision)
    signer.sign_zone(zone)
    assert zone.revision == revision
    zone.add("new.example.com", RRType.A, "10.0.0.81")
    assert zone.signed_mark != (zone_key("example.com"), zone.revision)


# -- chain validation on the mini Internet ----------------------------------------------------

def _sign_chain(mini_internet, apexes):
    signer = ZoneSigner()
    for apex in apexes:
        signer.sign_zone(mini_internet.zones[DomainName(apex)])
    return signer


def test_unsigned_chain_is_insecure(mini_internet):
    validator = ChainValidator(mini_internet.make_resolver())
    result = validator.validate("www.example.com")
    assert result.status == "insecure"
    assert not result.is_secure
    assert result.broken_zone == DomainName("com")


def test_fully_signed_chain_is_secure(mini_internet):
    signer = _sign_chain(mini_internet, ["com", "example.com", "hostco.com"])
    signer.publish_ds(mini_internet.zones[DomainName("com")], "example.com")
    signer.publish_ds(mini_internet.zones[DomainName("com")], "hostco.com")
    validator = ChainValidator(mini_internet.make_resolver())
    result = validator.validate("www.example.com")
    assert result.is_secure, result.detail


def test_missing_ds_makes_island_insecure(mini_internet):
    _sign_chain(mini_internet, ["com", "example.com"])
    validator = ChainValidator(mini_internet.make_resolver())
    result = validator.validate("www.example.com")
    assert result.status == "insecure"
    assert "DS" in result.detail or "no DS" in result.detail


def test_unsigned_leaf_zone_is_insecure(mini_internet):
    _sign_chain(mini_internet, ["com"])
    validator = ChainValidator(mini_internet.make_resolver())
    result = validator.validate("www.example.com")
    assert result.status == "insecure"
    assert result.broken_zone == DomainName("example.com")


def test_hijacked_answer_is_detected_as_bogus(mini_internet):
    signer = _sign_chain(mini_internet, ["com", "example.com", "hostco.com"])
    signer.publish_ds(mini_internet.zones[DomainName("com")], "example.com")
    signer.publish_ds(mini_internet.zones[DomainName("com")], "hostco.com")
    # Attacker compromises the first provider server and forges the answer.
    attacker = mini_internet.servers[DomainName("ns1.hostco.com")]
    attacker.compromise()
    attacker.hijack("www.example.com", "6.6.6.6")
    validator = ChainValidator(mini_internet.make_resolver())
    result = validator.validate("www.example.com")
    assert result.forgery_detected
    assert result.status == "bogus"


def test_forged_addresses_from_resolution_are_detected(mini_internet):
    signer = _sign_chain(mini_internet, ["com", "example.com", "hostco.com"])
    signer.publish_ds(mini_internet.zones[DomainName("com")], "example.com")
    signer.publish_ds(mini_internet.zones[DomainName("com")], "hostco.com")
    validator = ChainValidator(mini_internet.make_resolver())
    result = validator.validate("www.example.com",
                                expected_addresses=["6.6.6.6"])
    assert result.status == "bogus"
    honest = validator.validate("www.example.com",
                                expected_addresses=["10.2.0.80"])
    assert honest.is_secure


def test_unknown_name_is_insecure(mini_internet):
    validator = ChainValidator(mini_internet.make_resolver())
    result = validator.validate("www.nonexistent.zz")
    assert result.status == "insecure"
    assert "no delegation chain" in result.detail
