"""Golden AEAD vectors: the ciphertext bytes themselves are pinned.

Every sealed byte in the system (TLS records, sealed envelopes, ROTE
replica state) is a function of ``AEAD.seal``, so its output must never
move under a rewrite of the keystream or the tag. The literals below are
the sha256 of each output, captured from the per-block HMAC-CTR
implementation this module was written against, with::

    PYTHONPATH=src python tests/crypto/test_aead_vectors.py

which prints the three tables in the form they appear here. Lengths sit
on and around the 32-byte keystream block edges, plus one multi-record
TLS sequence and one sealed envelope. Every vector also round-trips.
"""

import hashlib

import pytest

from repro.crypto import aead as aead_module
from repro.crypto.aead import AEAD, AEADKey, NONCE_LEN
from repro.errors import IntegrityError, SealingError
from repro.sgx import Enclave, EnclaveConfig, SealedBlob, SigningAuthority
from repro.tls.record import RECORD_APPDATA, RecordLayer, parse_records

MASTER = b"aead-vectors/master"
LABEL = b"vectors"
NONCE = bytes(range(1, NONCE_LEN + 1))
AD = b"aead-vectors/associated-data"
LENGTHS = (0, 1, 31, 32, 33, 63, 64, 65, 1000, 16 * 1024 + 5, 64 * 1024)
RECORD_LENGTHS = (5, 64, 16 * 1024 + 5)

SEAL_SHA256 = {
    0: "1046c42ea987e8d8018d01c46b683ab54b91c99a6b98acc1a58a38a4a72acf11",
    1: "1ab5ce76a5b87d018f6b2831b64523411aa39120c5e3a973feeace4ef9e152d2",
    31: "a1a323774e2e1a689b6bb592965c255be236f4665ab761cb24fa1491f6a387e2",
    32: "c7d3df97b9a0e9945c7c5deb5d2f9f0dd8e4a862626b8c7780f4dfd1cb223ea3",
    33: "beede3ca990ce486c273db6906c276b7a73f79812dbd8df9c1c364a96d74a0f3",
    63: "121e37b02a4572d26e2a21ccd6429e7d77624f30826b94a2d427e9b15297db5b",
    64: "3dc3d6fcfd0377eea30d4aba7a73a8bb6481017dffcd2b36ac5151d16e9e5203",
    65: "9aba52405ad4f310d6b9c3dd290660058060e7f9909a23d5f4f3ba443b1190ff",
    1000: "97c9483f31c2c5a179fd5dd70e71739bb649c777641d65ad60adb05e371a871c",
    16389: "4f01fae253649e86c2b33f595e017f1cc5e1a437df3da973a09f0b61197c17d5",
    65536: "ac7e14432c42efa59703e183deb2ce4738700eb1c42649477f1ade1d7f39a6c4",
}

RECORDS_SHA256 = "82aaf3012a6ff016914f4493550fdb002feb0a2410f8881cdcd2055069bc6c75"

SEALED_BLOB_SHA256 = "cff763ffc6b4908b0bfd188415e87f14d443fef4e18da6d16beb3aeab58832e5"


def plaintext(length: int) -> bytes:
    return hashlib.shake_256(b"aead-vectors/plaintext").digest(length)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def vector_aead() -> AEAD:
    return AEAD(AEADKey.derive(MASTER, label=LABEL))


def seal_records() -> bytes:
    layer = RecordLayer()
    layer.enable_send(MASTER)
    return b"".join(
        layer.seal(RECORD_APPDATA, plaintext(length)) for length in RECORD_LENGTHS
    )


def sealing_fixture() -> tuple[SigningAuthority, Enclave]:
    enclave = Enclave(EnclaveConfig(code_identity="libseal", signer_name="acme"))
    enclave.interface.register_ecall("run", lambda fn: fn())
    return SigningAuthority("acme", seed=b"aead-vectors/authority"), enclave


def seal_blob(authority: SigningAuthority, enclave: Enclave) -> SealedBlob:
    return enclave.interface.ecall(
        "run", lambda: authority.seal(enclave, plaintext(100), associated_data=AD)
    )


@pytest.mark.parametrize("length", LENGTHS)
def test_seal_matches_golden_and_round_trips(length):
    aead = vector_aead()
    sealed = aead.seal(NONCE, plaintext(length), AD)
    assert len(sealed) == length + aead_module.TAG_LEN
    assert sha(sealed) == SEAL_SHA256[length]
    assert aead.open(NONCE, sealed, AD) == plaintext(length)


def test_record_sequence_matches_golden_and_round_trips():
    wire = seal_records()
    assert sha(wire) == RECORDS_SHA256
    receiver = RecordLayer()
    receiver.enable_recv(MASTER)
    records = parse_records(bytearray(wire))
    assert [receiver.open(record) for record in records] == [
        plaintext(length) for length in RECORD_LENGTHS
    ]


def test_sealed_blob_matches_golden_and_round_trips():
    authority, enclave = sealing_fixture()
    blob = seal_blob(authority, enclave)
    assert sha(blob.encode()) == SEALED_BLOB_SHA256
    decoded = SealedBlob.decode(blob.encode())
    opened = enclave.interface.ecall(
        "run", lambda: authority.unseal(enclave, decoded, associated_data=AD)
    )
    assert opened == plaintext(100)
    with pytest.raises(SealingError):
        enclave.interface.ecall(
            "run", lambda: authority.unseal(enclave, decoded, associated_data=b"")
        )


class TestFailClosed:
    def test_keystream_beyond_the_counter_space_is_refused_before_any_work(self):
        class Huge:
            """Claims more than 2**32 keystream blocks; holds no bytes."""

            def __len__(self):
                return (1 << 32) * 32 + 1

        with pytest.raises(ValueError, match="keystream"):
            vector_aead().seal(NONCE, Huge())

    def test_one_block_inputs_never_reach_pbkdf2(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pbkdf2_hmac called for a one-block input")

        monkeypatch.setattr(aead_module.hashlib, "pbkdf2_hmac", refuse)
        aead = vector_aead()
        for length in range(33):
            sealed = aead.seal(NONCE, plaintext(length), AD)
            if length in SEAL_SHA256:
                assert sha(sealed) == SEAL_SHA256[length]
            assert aead.open(NONCE, sealed, AD) == plaintext(length)
        with pytest.raises(AssertionError, match="pbkdf2_hmac"):
            aead.seal(NONCE, plaintext(33), AD)

    @pytest.mark.parametrize("length", (0, 33, 16 * 1024 + 5))
    def test_damaged_blobs_raise_integrity_error(self, length):
        aead = vector_aead()
        sealed = aead.seal(NONCE, plaintext(length), AD)
        flipped = bytearray(sealed)
        flipped[len(sealed) // 2] ^= 0x01
        attempts = (
            (NONCE, sealed[:-1], AD),  # truncated
            (NONCE, sealed[: aead_module.TAG_LEN - 1], AD),  # shorter than a tag
            (NONCE, bytes(flipped), AD),  # tampered
            (bytes(NONCE_LEN), sealed, AD),  # wrong nonce
            (NONCE, sealed, AD + b"!"),  # wrong associated data
        )
        for nonce, blob, associated in attempts:
            with pytest.raises(IntegrityError):
                aead.open(nonce, blob, associated)


if __name__ == "__main__":
    aead = vector_aead()
    print("SEAL_SHA256 = {")
    for length in LENGTHS:
        print(f'    {length}: "{sha(aead.seal(NONCE, plaintext(length), AD))}",')
    print("}\n")
    print(f'RECORDS_SHA256 = "{sha(seal_records())}"\n')
    print(f'SEALED_BLOB_SHA256 = "{sha(seal_blob(*sealing_fixture()).encode())}"')
