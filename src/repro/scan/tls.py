"""HTTPS certificate analysis (Section III).

For every port-443 service found open, fetch the certificate and classify:

* self-signed with a common name that does not match the requested onion —
  the paper saw 1,225 of these, 1,168 of them bearing the TorHost hosting
  service's onion as CN;
* certificates whose common names are public DNS names — 34 services whose
  operators can be deanonymised by simply reading the certificate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.crypto.onion import OnionAddress
from repro.io import Header
from repro.net.transport import TorTransport
from repro.population.webserver import TlsCertificate
from repro.sim.clock import Timestamp


def collect_certificates(
    transport: TorTransport,
    https_onions: List[OnionAddress],
    when: Timestamp,
    port: int = 443,
) -> Dict[OnionAddress, TlsCertificate]:
    """TLS handshake with every HTTPS service; returns the certs obtained."""
    certificates: Dict[OnionAddress, TlsCertificate] = {}
    for onion in https_onions:
        result = transport.connect(onion, port, when)
        if not result.ok or result.endpoint is None:
            continue
        application = result.endpoint.application
        certificate = getattr(application, "certificate", None)
        if certificate is not None:
            certificates[onion] = certificate
    return certificates


@dataclass
class CertificateAnalysis:
    """Aggregated certificate findings."""

    codec_header = Header("certificate-analysis")

    total_certificates: int = 0
    self_signed_mismatch: int = 0
    dominant_cn: str = ""
    dominant_cn_count: int = 0
    public_dns_onions: List[OnionAddress] = field(default_factory=list)
    cn_histogram: Counter = field(default_factory=Counter)

    @property
    def deanonymizable_count(self) -> int:
        """Services whose cert CN names a clearnet DNS host."""
        return len(self.public_dns_onions)


def analyze_certificates(
    certificates: Dict[OnionAddress, TlsCertificate],
) -> CertificateAnalysis:
    """Run the Section III classification over collected certificates."""
    analysis = CertificateAnalysis(total_certificates=len(certificates))
    mismatch_cns: Counter = Counter()
    for onion, certificate in certificates.items():
        analysis.cn_histogram[certificate.common_name] += 1
        if certificate.self_signed and not certificate.matches_host(onion):
            analysis.self_signed_mismatch += 1
            mismatch_cns[certificate.common_name] += 1
        if certificate.names_public_dns:
            analysis.public_dns_onions.append(onion)
    if mismatch_cns:
        cn, count = mismatch_cns.most_common(1)[0]
        analysis.dominant_cn = cn
        analysis.dominant_cn_count = count
    analysis.public_dns_onions.sort()
    return analysis
