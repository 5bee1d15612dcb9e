"""A TLS-like secure channel with an OpenSSL/LibreSSL-style API.

LibSEAL terminates TLS on behalf of the service (§4). The reproduction
implements the full *shape* of TLS 1.2 with real cryptographic primitives:

- :mod:`repro.tls.cert` — X.509-style certificates, a certificate
  authority, chain verification;
- :mod:`repro.tls.record` — the record layer: sequence-numbered AEAD
  records, replay/reorder/tamper detection;
- :mod:`repro.tls.handshake` — ECDHE-ECDSA handshake state machines with
  transcript-bound Finished messages and optional client authentication
  (used against client impersonation, §6.3);
- :mod:`repro.tls.bio` — memory BIOs, the I/O abstraction OpenSSL uses
  (and which LibSEAL deliberately leaves *outside* the enclave, §4.1);
- :mod:`repro.tls.connection` — the connection state machine tying the
  pieces together;
- :mod:`repro.tls.api` — the OpenSSL-compatible function-style API
  (``SSL_read``/``SSL_write``/``SSL_accept``/…) that applications link
  against; LibSEAL's enclave build exposes this exact API (§4.1).

It is *not* wire-compatible with real TLS; it is protocol-shaped, with the
same security structure (authenticated key exchange, AEAD records, replay
protection, transcript binding).
"""

from repro.tls.bio import BIO, bio_pair
from repro.tls.cert import Certificate, CertificateAuthority
from repro.tls.connection import TLSConfig, TLSConnection, pump_handshake
from repro.tls.record import RecordLayer

__all__ = [
    "BIO",
    "bio_pair",
    "Certificate",
    "CertificateAuthority",
    "TLSConfig",
    "TLSConnection",
    "pump_handshake",
    "RecordLayer",
]
