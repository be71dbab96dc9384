"""Authoritative zones and delegations.

A :class:`Zone` owns a contiguous region of the namespace rooted at its apex.
It stores authoritative data for names inside that region and *delegations*
for child zones: the NS records naming the child's authoritative servers,
together with any glue addresses for nameservers that live inside the child
zone (glue is required when the server name would otherwise be unresolvable
without first consulting the child — the classic chicken-and-egg case).

The paper's central observation is about what happens when the delegation's
nameserver names live *outside* the delegating zone: resolving them requires
entirely separate delegation chains, which is how transitive trust spreads.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.dns.errors import ZoneError
from repro.dns.name import DomainName, NameLike
from repro.dns.rdtypes import DEFAULT_TTL, RRClass, RRType
from repro.dns.records import ResourceRecord, RRSet, SOAData


@dataclasses.dataclass
class Delegation:
    """A delegation from a parent zone to a child zone.

    Attributes
    ----------
    child:
        Apex of the delegated child zone.
    nameservers:
        Hostnames of the child's authoritative nameservers, in the parent's
        preferential order.
    glue:
        Mapping from nameserver hostname to its glue addresses.  Only
        in-bailiwick nameservers normally carry glue; the paper notes that
        glue is a lookup optimisation, not an authoritative statement, so the
        delegation-graph analysis can be configured to ignore it.
    """

    child: DomainName
    nameservers: List[DomainName] = dataclasses.field(default_factory=list)
    glue: Dict[DomainName, List[str]] = dataclasses.field(default_factory=dict)

    def add_nameserver(self, nameserver: NameLike,
                       glue_addresses: Optional[Iterable[str]] = None) -> None:
        """Add a nameserver (and optional glue) to the delegation."""
        nameserver = DomainName(nameserver)
        if nameserver not in self.nameservers:
            self.nameservers.append(nameserver)
        if glue_addresses:
            self.glue.setdefault(nameserver, [])
            for address in glue_addresses:
                if address not in self.glue[nameserver]:
                    self.glue[nameserver].append(address)

    def set_nameservers(self, nameservers: Iterable[NameLike],
                        glue: Optional[Dict[DomainName, List[str]]] = None
                        ) -> None:
        """Replace the delegation's NS set (and glue) wholesale.

        The change-journal path for re-delegating an existing child: the
        new preferential order is exactly the given order, and stale glue
        for dropped servers is discarded.
        """
        self.nameservers = []
        self.glue = {}
        glue = glue or {}
        for nameserver in nameservers:
            nameserver = DomainName(nameserver)
            self.add_nameserver(nameserver, glue.get(nameserver))

    def ns_records(self, ttl: int = DEFAULT_TTL) -> List[ResourceRecord]:
        """The delegation as NS resource records (for referral responses)."""
        return [ResourceRecord.create(self.child, RRType.NS, ns, ttl=ttl)
                for ns in self.nameservers]

    def glue_records(self, ttl: int = DEFAULT_TTL) -> List[ResourceRecord]:
        """The glue addresses as A resource records."""
        records = []
        for nameserver, addresses in self.glue.items():
            for address in addresses:
                records.append(
                    ResourceRecord.create(nameserver, RRType.A, address, ttl=ttl))
        return records

    def offsite_nameservers(self) -> List[DomainName]:
        """Nameservers whose own names are *not* under the child apex.

        These are exactly the delegations that force additional resolution
        work and extend the trusted computing base beyond the child domain.
        """
        return [ns for ns in self.nameservers
                if not ns.is_subdomain_of(self.child)]


class Zone:
    """An authoritative DNS zone.

    Parameters
    ----------
    apex:
        The zone's apex (origin) name, e.g. ``cornell.edu``.
    soa:
        Optional start-of-authority data; a default SOA is synthesised if
        omitted so that every zone is well-formed.

    ``revision`` counts RRSet mutations: every method that changes an
    RRSet bumps it, so a signer can tell whether anything changed since
    its last full pass (``signed_mark``, see
    :meth:`repro.dns.dnssec.ZoneSigner.sign_zone`).  RRSets must change
    only through these methods, never by mutating a returned RRSet.
    """

    def __init__(self, apex: NameLike, soa: Optional[SOAData] = None):
        self.apex = DomainName(apex)
        self._rrsets: Dict[Tuple[DomainName, RRType, RRClass], RRSet] = {}
        self._delegations: Dict[DomainName, Delegation] = {}
        self.revision = 0
        #: ``(key, revision)`` of the last full signing pass, if any.
        self.signed_mark: Optional[Tuple[str, int]] = None
        if soa is None:
            soa = SOAData(mname=self.apex.child("ns1") if not self.apex.is_root
                          else DomainName("a.root-servers.net"),
                          rname=DomainName("hostmaster").concatenate(self.apex)
                          if not self.apex.is_root
                          else DomainName("hostmaster.root-servers.net"))
        self.add_record(ResourceRecord.create(self.apex, RRType.SOA, soa))

    # -- record management -----------------------------------------------------

    def add_record(self, record: ResourceRecord) -> None:
        """Add an authoritative record to the zone.

        Raises :class:`ZoneError` if the owner name is outside the zone.
        """
        if not record.name.is_subdomain_of(self.apex):
            raise ZoneError(
                f"record owner {record.name} is outside zone {self.apex}")
        key = record.key()
        rrset = self._rrsets.get(key)
        if rrset is None:
            rrset = RRSet(record.name, record.rtype, record.rclass)
            self._rrsets[key] = rrset
        rrset.add(record)
        self.revision += 1

    def add(self, name: NameLike, rtype: Union[RRType, str], rdata: object,
            ttl: int = DEFAULT_TTL) -> ResourceRecord:
        """Convenience wrapper: build and add a record in one call."""
        record = ResourceRecord.create(name, rtype, rdata, ttl=ttl)
        self.add_record(record)
        return record

    def get_rrset(self, name: NameLike, rtype: Union[RRType, str],
                  rclass: Union[RRClass, str] = RRClass.IN) -> Optional[RRSet]:
        """Return the RRSet for (name, type, class), or ``None``."""
        if isinstance(rtype, str):
            rtype = RRType.from_text(rtype)
        if isinstance(rclass, str):
            rclass = RRClass.from_text(rclass)
        return self._rrsets.get((DomainName(name), rtype, rclass))

    def has_name(self, name: NameLike) -> bool:
        """True if the zone holds any record (of any type) at ``name``."""
        name = DomainName(name)
        return any(key[0] == name for key in self._rrsets)

    def iter_rrsets(self) -> Iterator[RRSet]:
        """Iterate over every RRSet in the zone."""
        return iter(self._rrsets.values())

    def iter_records(self) -> Iterator[ResourceRecord]:
        """Iterate over every record in the zone."""
        for rrset in self._rrsets.values():
            yield from rrset

    def record_count(self) -> int:
        """Total number of records held by the zone."""
        return sum(len(rrset) for rrset in self._rrsets.values())

    # -- apex nameservers --------------------------------------------------------

    def set_apex_nameservers(self, nameservers: Iterable[NameLike],
                             ttl: int = DEFAULT_TTL) -> None:
        """Declare the zone's own authoritative nameserver set (apex NS)."""
        for nameserver in nameservers:
            self.add(self.apex, RRType.NS, nameserver, ttl=ttl)

    def replace_apex_nameservers(self, nameservers: Iterable[NameLike],
                                 ttl: int = DEFAULT_TTL) -> None:
        """Replace the zone's apex NS RRSet with the given set (in order).

        Unlike :meth:`set_apex_nameservers` (which is additive, mirroring
        zone-file loading), this drops the previous NS set first — the
        primitive zone-handover mutations are built on.
        """
        self._rrsets.pop((self.apex, RRType.NS, RRClass.IN), None)
        self.revision += 1
        self.set_apex_nameservers(nameservers, ttl=ttl)

    def apex_nameservers(self) -> List[DomainName]:
        """The zone's apex NS targets, in declaration order."""
        rrset = self.get_rrset(self.apex, RRType.NS)
        if rrset is None:
            return []
        return [r.rdata for r in rrset if isinstance(r.rdata, DomainName)]

    @property
    def soa(self) -> Optional[SOAData]:
        """The zone's SOA data."""
        rrset = self.get_rrset(self.apex, RRType.SOA)
        if not rrset:
            return None
        rdata = rrset.records[0].rdata
        return rdata if isinstance(rdata, SOAData) else None

    # -- delegations -------------------------------------------------------------

    def delegate(self, child: NameLike, nameservers: Iterable[NameLike],
                 glue: Optional[Dict[str, List[str]]] = None) -> Delegation:
        """Delegate ``child`` to ``nameservers``.

        Parameters
        ----------
        child:
            Apex of the child zone; must be a proper subdomain of this zone's
            apex.
        nameservers:
            Hostnames of the child's authoritative servers.
        glue:
            Optional mapping from nameserver hostname to glue addresses.
        """
        child = DomainName(child)
        if not child.is_subdomain_of(self.apex, proper=True):
            raise ZoneError(
                f"cannot delegate {child}: not a proper subdomain of {self.apex}")
        delegation = self._delegations.get(child)
        if delegation is None:
            delegation = Delegation(child=child)
            self._delegations[child] = delegation
        glue = glue or {}
        for nameserver in nameservers:
            nameserver = DomainName(nameserver)
            delegation.add_nameserver(
                nameserver, glue.get(str(nameserver)) or glue.get(nameserver))
        return delegation

    def get_delegation(self, child: NameLike) -> Optional[Delegation]:
        """The delegation for exactly ``child``, or ``None``."""
        return self._delegations.get(DomainName(child))

    def extract_subtree(self, apex: NameLike) -> Tuple[List[RRSet],
                                                       List[Delegation]]:
        """Remove and return everything this zone holds under ``apex``.

        Used when a new child zone is cut out of this one: the records and
        deeper delegations below the new apex move into the child so the
        namespace keeps answering.  ``apex`` must be a proper subdomain of
        this zone's apex.  SOA records are left behind (each zone owns its
        own), and the returned RRSets/Delegations are in this zone's
        insertion order.
        """
        apex = DomainName(apex)
        if not apex.is_subdomain_of(self.apex, proper=True):
            raise ZoneError(
                f"cannot extract {apex}: not a proper subdomain of {self.apex}")
        moved_keys = [key for key in self._rrsets
                      if key[0].is_subdomain_of(apex) and
                      key[1] is not RRType.SOA]
        rrsets = [self._rrsets.pop(key) for key in moved_keys]
        self.revision += 1
        moved_children = [child for child in self._delegations
                          if child.is_subdomain_of(apex, proper=True)]
        delegations = [self._delegations.pop(child)
                       for child in moved_children]
        return rrsets, delegations

    def find_covering_delegation(self, name: NameLike) -> Optional[Delegation]:
        """The deepest delegation whose child zone contains ``name``.

        This is the delegation a server follows when answering a query for a
        name below one of its zone cuts.
        """
        if not isinstance(name, DomainName):
            name = DomainName(name)
        delegations = self._delegations
        labels = name.labels
        # Deepest-first suffix walk: O(depth) dictionary probes instead of
        # scanning every delegation (a TLD zone holds one per SLD).
        for start in range(len(labels) + 1):
            delegation = delegations.get(DomainName._from_labels(labels[start:]))
            if delegation is not None:
                return delegation
        return None

    def iter_delegations(self) -> Iterator[Delegation]:
        """Iterate over all delegations in the zone."""
        return iter(self._delegations.values())

    def delegation_count(self) -> int:
        """Number of child delegations."""
        return len(self._delegations)

    def is_authoritative_for(self, name: NameLike) -> bool:
        """True if ``name`` lies in this zone and is not delegated away."""
        name = DomainName(name)
        if not name.is_subdomain_of(self.apex):
            return False
        return self.find_covering_delegation(name) is None

    def validate(self) -> List[str]:
        """Return a list of human-readable consistency problems.

        An empty list means the zone is well-formed: it has an SOA, at least
        one apex NS record, and every delegation names at least one server.
        """
        problems: List[str] = []
        if self.soa is None:
            problems.append(f"zone {self.apex}: missing SOA")
        if not self.apex_nameservers():
            problems.append(f"zone {self.apex}: no apex NS records")
        for delegation in self._delegations.values():
            if not delegation.nameservers:
                problems.append(
                    f"zone {self.apex}: empty delegation for {delegation.child}")
            for nameserver in delegation.nameservers:
                in_child = nameserver.is_subdomain_of(delegation.child)
                if in_child and nameserver not in delegation.glue:
                    problems.append(
                        f"zone {self.apex}: delegation for {delegation.child} "
                        f"needs glue for in-bailiwick server {nameserver}")
        return problems

    def __repr__(self) -> str:
        return (f"Zone({self.apex!s}, {self.record_count()} records, "
                f"{self.delegation_count()} delegations)")
