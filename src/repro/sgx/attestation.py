"""Remote attestation: quoting enclave and attestation service.

A relying party verifies an enclave by checking a *quote*: the enclave's
measurement signed with a CPU-resident attestation key, validated through
Intel's attestation service (§2.5). LibSEAL uses this to provision the TLS
certificate private key into a *genuine* LibSEAL enclave only, defeating
the "link against a normal TLS library instead" bypass (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Reader, encode_parts
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature
from repro.crypto.hashing import sha256
from repro.errors import (
    AttestationError,
    AttestationUnavailableError,
    MeasurementPolicyError,
    QuoteInvalidError,
    TcbRevokedError,
    TLSError,
)
from repro.faults import hooks as _faults
from repro.sgx.enclave import Enclave

# TCB (trusted computing base) levels the service reports per platform,
# mirroring IAS/DCAP appraisal statuses. The relying-party policy ladder
# is fixed: UP_TO_DATE → accept, OUT_OF_DATE → accept but count a
# warning, REVOKED → fail closed.
TCB_UP_TO_DATE = "up-to-date"
TCB_OUT_OF_DATE = "out-of-date"
TCB_REVOKED = "revoked"

TCB_STATUSES = (TCB_UP_TO_DATE, TCB_OUT_OF_DATE, TCB_REVOKED)


@dataclass(frozen=True)
class Quote:
    """A signed attestation statement about one enclave."""

    measurement: bytes
    signer_measurement: bytes
    report_data: bytes  # caller-chosen 64-byte binding (e.g. key hash)
    platform_id: bytes
    signature: EcdsaSignature

    def signed_payload(self) -> bytes:
        return (
            b"SGX-QUOTE\x00"
            + self.measurement
            + self.signer_measurement
            + self.report_data
            + self.platform_id
        )

    def encode(self) -> bytes:
        return encode_parts(
            self.measurement,
            self.signer_measurement,
            self.report_data,
            self.platform_id,
            self.signature.encode(),
        )

    @classmethod
    def decode(cls, data: bytes) -> "Quote":
        try:
            reader = Reader(data)
            measurement = reader.read_bytes()
            signer = reader.read_bytes()
            report_data = reader.read_bytes()
            platform_id = reader.read_bytes()
            signature = EcdsaSignature.decode(reader.read_bytes())
            reader.expect_end()
        except (TLSError, ValueError) as exc:
            raise QuoteInvalidError(f"malformed quote: {exc}") from exc
        if len(report_data) != 64:
            raise QuoteInvalidError("quote report_data is not 64 bytes")
        return cls(measurement, signer, report_data, platform_id, signature)


class QuotingEnclave:
    """The platform's quoting enclave: signs measurements with the CPU key."""

    def __init__(self, platform_seed: bytes = b"platform-0"):
        drbg = HmacDrbg(seed=sha256(b"qe" + platform_seed))
        self._attestation_key = EcdsaPrivateKey.generate(drbg)
        self.platform_id = sha256(platform_seed)[:16]

    @property
    def attestation_public_key(self) -> EcdsaPublicKey:
        return self._attestation_key.public_key()

    def quote(self, enclave: Enclave, report_data: bytes = b"") -> Quote:
        """Produce a quote for ``enclave`` binding ``report_data``."""
        if enclave.destroyed:
            raise AttestationError("cannot quote a destroyed enclave")
        padded = report_data.ljust(64, b"\x00")[:64]
        quote = Quote(
            measurement=enclave.measurement(),
            signer_measurement=enclave.signer_measurement(),
            report_data=padded,
            platform_id=self.platform_id,
            signature=EcdsaSignature(0, 0),  # placeholder, replaced below
        )
        signature = self._attestation_key.sign(quote.signed_payload())
        return Quote(
            quote.measurement,
            quote.signer_measurement,
            quote.report_data,
            quote.platform_id,
            signature,
        )


class AttestationService:
    """Verification service (the IAS role): validates quotes from known CPUs.

    Beyond the original verify-or-raise API the service now reports a
    per-platform TCB status (:data:`TCB_UP_TO_DATE` /
    :data:`TCB_OUT_OF_DATE` / :data:`TCB_REVOKED`) and is
    fault-injectable: an *outage* makes every appraisal raise
    :class:`AttestationUnavailableError` until :meth:`restore` — the
    verifier layer above decides whether a cached verdict may stand in.
    ``revocation_generation`` increments on every TCB change so cached
    verdicts can be invalidated without polling.
    """

    FAULT_SITE = "attest.verify"

    def __init__(self) -> None:
        self._known_platforms: dict[bytes, EcdsaPublicKey] = {}
        self._tcb_status: dict[bytes, str] = {}
        self.available = True
        self._outage_rounds = 0
        self.revocation_generation = 0
        self.appraisals = 0
        self.unavailable_calls = 0

    def register_platform(
        self, quoting_enclave: QuotingEnclave, tcb_status: str = TCB_UP_TO_DATE
    ) -> None:
        """Enroll a platform's attestation key (Intel provisioning)."""
        if tcb_status not in TCB_STATUSES:
            raise ValueError(f"unknown TCB status {tcb_status!r}")
        self._known_platforms[quoting_enclave.platform_id] = (
            quoting_enclave.attestation_public_key
        )
        self._tcb_status[quoting_enclave.platform_id] = tcb_status

    def set_tcb_status(self, platform_id: bytes, tcb_status: str) -> None:
        """Change a platform's TCB level (e.g. a security advisory lands).

        Bumps ``revocation_generation`` so relying parties re-appraise
        cached identities instead of trusting stale verdicts."""
        if tcb_status not in TCB_STATUSES:
            raise ValueError(f"unknown TCB status {tcb_status!r}")
        if platform_id not in self._known_platforms:
            raise ValueError("cannot set TCB status for an unknown platform")
        self._tcb_status[platform_id] = tcb_status
        self.revocation_generation += 1

    def outage(self, rounds: int | None = None) -> None:
        """Take the service down: indefinitely, or for ``rounds`` calls."""
        if rounds is None:
            self.available = False
        else:
            self._outage_rounds = rounds

    def restore(self) -> None:
        self.available = True
        self._outage_rounds = 0

    def _check_available(self) -> None:
        for event in _faults.check(self.FAULT_SITE):
            if event.kind == "outage":
                self._outage_rounds = max(
                    self._outage_rounds, int(event.params.get("rounds", 1))
                )
            elif event.kind == "restore":
                self.restore()
        if self._outage_rounds > 0:
            self._outage_rounds -= 1
            self.unavailable_calls += 1
            raise AttestationUnavailableError(
                "attestation service unavailable (transient outage)"
            )
        if not self.available:
            self.unavailable_calls += 1
            raise AttestationUnavailableError("attestation service unavailable")

    def appraise(self, quote: Quote) -> str:
        """Validate ``quote`` and return the platform's TCB status.

        Raises :class:`QuoteInvalidError` for unknown platforms or bad
        attestation-key signatures, :class:`TcbRevokedError` for revoked
        platforms, and :class:`AttestationUnavailableError` during an
        outage (an availability condition, not a verdict)."""
        self._check_available()
        self.appraisals += 1
        public_key = self._known_platforms.get(quote.platform_id)
        if public_key is None:
            raise QuoteInvalidError("quote from unknown platform")
        if not public_key.verify(quote.signed_payload(), quote.signature):
            raise QuoteInvalidError("quote signature invalid")
        status = self._tcb_status.get(quote.platform_id, TCB_UP_TO_DATE)
        if status == TCB_REVOKED:
            raise TcbRevokedError("attesting platform TCB is revoked")
        return status

    def verify(self, quote: Quote, expected_measurement: bytes | None = None) -> None:
        """Validate ``quote``; raises :class:`AttestationError` on failure.

        The original strict API: appraisal plus an optional exact
        MRENCLAVE match. Kept for callers that do not need the TCB
        ladder."""
        self.appraise(quote)
        if (
            expected_measurement is not None
            and quote.measurement != expected_measurement
        ):
            raise MeasurementPolicyError(
                "enclave measurement does not match the expected LibSEAL build"
            )
