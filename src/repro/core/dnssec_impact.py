"""DNSSEC deployment experiments (the paper's Section 5 discussion).

The paper's closing argument: DNSSEC "can help, but continues to rely on the
same physical delegation chains as DNS during lookups.  While DNSSEC enables
detection of integrity violations, malicious agents could still easily
disrupt name service."  This module turns that qualitative statement into an
experiment:

1. :class:`DNSSECDeployment` signs a configurable fraction of the synthetic
   Internet's zones (TLD registries first, then leaf zones) and publishes DS
   records wherever the parent is also signed — modelling partial,
   island-ridden deployment.
2. :class:`DNSSECImpactAnalyzer` combines chain validation with the hijack
   classification of each surveyed name and reports, per deployment level,
   how many hijackable names become *detectable* (the attacker can no longer
   forge data unnoticed) versus how many remain silently hijackable — and
   notes that even detectable names remain subject to denial of service
   because the delegation chain itself is unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Dict, Iterable, List, Optional

from repro.dns.dnssec import ChainValidator, ZoneSigner
from repro.dns.name import DomainName, NameLike, ROOT_NAME, name_key
from repro.dns.rdtypes import RRType
from repro.core.hijack import HIJACKABLE_CLASSIFICATIONS
from repro.core.survey import SurveyResults


@dataclasses.dataclass
class DNSSECDeployment:
    """Record of which zones were signed in one deployment experiment."""

    signer: ZoneSigner
    signed_zones: List[DomainName]
    ds_published: int
    fraction_requested: float
    #: Zones this deployment signed that carried no DNSKEY before it.
    newly_signed: List[DomainName]

    @property
    def signed_count(self) -> int:
        """Number of zones signed."""
        return len(self.signed_zones)


@functools.lru_cache(maxsize=1 << 15)
def _deployment_score(seed: str, apex: DomainName) -> float:
    """A stable per-zone adoption score in [0, 1).

    A zone is signed by a ``fraction=f`` deployment iff its score is below
    ``f``.  Scoring each zone independently (instead of shuffling the zone
    list and taking a prefix) makes deployments *monotone under namespace
    growth*: raising the fraction with the same seed always signs a
    superset, even if zones were created or re-delegated in between — the
    property the incremental re-survey's journalled deployment progress
    relies on.  The score is pure in ``(seed, apex)``, so it is memoised
    (bounded: a churn run re-scores the same zones every epoch).
    """
    return random.Random(f"{seed}|deploy|{apex}").random()


def deploy_dnssec(internet, fraction: float = 1.0,
                  always_sign_tlds: bool = True,
                  seed: str = "repro-dnssec") -> DNSSECDeployment:
    """Sign ``fraction`` of the Internet's zones and publish DS records.

    TLD zones (and the root) are signed first when ``always_sign_tlds`` is
    true, mirroring how real deployment proceeded top-down; each lower zone
    adopts iff its stable per-zone score (seeded by ``seed`` and the apex)
    falls below ``fraction``, so roughly that share of zones signs and a
    larger fraction always signs a superset.  DS records are only
    published where the parent zone is itself signed, so partial deployment
    naturally produces "islands of security".

    Signing is additive and cannot be undone, so deploying is only allowed
    when every zone an *earlier* deployment signed is signed by this one
    too (re-deploying the same fraction/seed is idempotent, and extending
    the fraction models deployment progress); a smaller or
    differently-seeded deployment over an already-signed Internet would
    validate against the old, larger deployment while reporting the new
    fraction, and is rejected instead.  Zones whose content is unchanged
    since their last signing pass cost one comparison (see
    :meth:`~repro.dns.dnssec.ZoneSigner.sign_zone`).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    signer = ZoneSigner(seed=seed)

    zones = internet.zones
    by_order = sorted(zones, key=name_key)
    if always_sign_tlds:
        to_sign = [apex for apex in by_order if apex.depth <= 1]
        to_sign.extend(apex for apex in by_order if apex.depth > 1 and
                       _deployment_score(seed, apex) < fraction)
    else:
        to_sign = [apex for apex in by_order
                   if _deployment_score(seed, apex) < fraction]

    planned = set(to_sign)
    already = {apex for apex, zone in zones.items()
               if zone.get_rrset(apex, RRType.DNSKEY) is not None}
    stale = already - planned
    if stale:
        raise ValueError(
            f"{len(stale)} zone(s) (e.g. {min(stale, key=name_key)}) "
            f"already carry DNSKEYs from a larger or different deployment; "
            f"signing is additive, so this fraction={fraction} deployment "
            f"would misreport the world it validates — use a fresh Internet")

    for apex in to_sign:
        signer.sign_zone(zones[apex])

    ds_published = 0
    for apex in to_sign:
        if apex.is_root:
            continue
        parent_apex = _enclosing_signed_parent(apex, signer)
        if parent_apex is None:
            continue
        parent_zone = zones.get(parent_apex)
        if parent_zone is None:
            continue
        if signer.publish_ds(parent_zone, apex) is not None:
            ds_published += 1

    return DNSSECDeployment(
        signer=signer, signed_zones=sorted(to_sign, key=name_key),
        ds_published=ds_published, fraction_requested=fraction,
        newly_signed=[apex for apex in by_order
                      if apex in planned and apex not in already])


def _enclosing_signed_parent(apex: DomainName,
                             signer: ZoneSigner) -> Optional[DomainName]:
    """The nearest signed ancestor zone that could hold the DS record."""
    for ancestor in apex.ancestors(include_root=True):
        if ancestor == apex:
            continue
        if signer.is_signed(ancestor) or ancestor == ROOT_NAME:
            return ancestor if signer.is_signed(ancestor) else None
    return None


@dataclasses.dataclass
class DNSSECImpactReport:
    """Aggregate outcome of a deployment experiment over surveyed names."""

    deployment_fraction: float
    names_checked: int
    secure: int
    insecure: int
    hijackable: int
    hijackable_detected: int
    hijackable_undetected: int

    @property
    def fraction_secure(self) -> float:
        """Fraction of checked names with a full chain of trust."""
        return self.secure / self.names_checked if self.names_checked else 0.0

    @property
    def fraction_hijackable_undetected(self) -> float:
        """Fraction of checked names still silently hijackable."""
        if not self.names_checked:
            return 0.0
        return self.hijackable_undetected / self.names_checked

    def to_dict(self) -> Dict[str, float]:
        """Flat representation for reports and benches."""
        return {
            "deployment_fraction": self.deployment_fraction,
            "names_checked": float(self.names_checked),
            "fraction_secure": self.fraction_secure,
            "hijackable": float(self.hijackable),
            "hijackable_detected": float(self.hijackable_detected),
            "hijackable_undetected": float(self.hijackable_undetected),
        }


def impact_report_from_results(results: SurveyResults,
                               deployment_fraction: Optional[float] = None
                               ) -> DNSSECImpactReport:
    """Aggregate a :class:`DNSSECImpactReport` from engine-pass columns.

    When the survey ran with the ``dnssec`` analysis pass, every record
    already carries ``dnssec_status`` / ``dnssec_detected`` extras; this
    folds them into the same report :class:`DNSSECImpactAnalyzer` produces,
    without re-validating a single chain.  ``deployment_fraction`` defaults
    to the fraction recorded in the survey metadata (if any).
    """
    if deployment_fraction is None:
        deployment_fraction = float(
            results.metadata.get("dnssec_fraction", 1.0))
    records = [record for record in results.resolved_records()
               if "dnssec_status" in record.extras]
    secure = insecure = 0
    hijackable = detected = undetected = 0
    for record in records:
        is_secure = record.extras["dnssec_status"] == "secure"
        if is_secure:
            secure += 1
        else:
            insecure += 1
        if record.classification in HIJACKABLE_CLASSIFICATIONS:
            hijackable += 1
            if is_secure:
                detected += 1
            else:
                undetected += 1
    return DNSSECImpactReport(
        deployment_fraction=deployment_fraction,
        names_checked=len(records), secure=secure, insecure=insecure,
        hijackable=hijackable, hijackable_detected=detected,
        hijackable_undetected=undetected)


class DNSSECImpactAnalyzer:
    """Measures what a DNSSEC deployment buys against the survey's findings."""

    def __init__(self, internet, deployment: DNSSECDeployment):
        self.internet = internet
        self.deployment = deployment
        self._validator = ChainValidator(internet.make_resolver(),
                                         seed=deployment.signer.seed)

    def validate_name(self, name: NameLike):
        """Chain-of-trust validation for a single name."""
        return self._validator.validate(name)

    def analyze(self, results: SurveyResults,
                names: Optional[Iterable[NameLike]] = None,
                max_names: Optional[int] = None) -> DNSSECImpactReport:
        """Combine chain validation with the survey's hijack classification.

        A name counts as *hijackable* if the survey classified it as
        completely hijackable or DoS-assisted; it counts as *detected* if
        its chain of trust is secure (a forged answer would fail
        validation), and *undetected* otherwise.
        """
        records = results.resolved_records()
        if names is not None:
            wanted = {DomainName(name) for name in names}
            records = [record for record in records if record.name in wanted]
        if max_names is not None:
            records = records[:max_names]

        secure = insecure = 0
        hijackable = detected = undetected = 0
        for record in records:
            validation = self.validate_name(record.name)
            if validation.is_secure:
                secure += 1
            else:
                insecure += 1
            is_hijackable = record.classification in \
                HIJACKABLE_CLASSIFICATIONS
            if is_hijackable:
                hijackable += 1
                if validation.is_secure:
                    detected += 1
                else:
                    undetected += 1
        return DNSSECImpactReport(
            deployment_fraction=self.deployment.fraction_requested,
            names_checked=len(records), secure=secure, insecure=insecure,
            hijackable=hijackable, hijackable_detected=detected,
            hijackable_undetected=undetected)
