"""Golden signing vectors: public points and signature bytes are pinned.

RFC 6979 makes every signature a function of the scalar arithmetic's
result, and every ROTE attestation a function of the epoch's derived
keys, so none of these bytes may move under a rewrite
of the fixed-base multiplier or of key derivation. The literals are the
sha256 of each encoding, captured from the 4-bit fixed-base table and the
per-call HKDF this module was written against, with::

    PYTHONPATH=src python tests/crypto/test_ecdsa_vectors.py

which prints the tables in the form they appear here. Scalars sit on the
signed 8-bit digit edges (127, 128, 129, 255, 256), at ``n - 1`` and at
three DRBG draws; the records are one signed log head, one seal intent
record and one ROTE counter attestation, taken across a key
rotation. Every signature also verifies. (Replicas no longer seal their
counters, so the sealed replica blob once pinned next to it is gone.)

The seal intent is the one vector not captured from that tree. It is the
log image's intent record — two tuples as their :func:`encode_tuple`
bytes behind their row ids, MAC'd with HMAC under a key derived from the
record key's scalar, chained onto a head — which replaced the
``INTENT2`` seal intent (itself the successor of the ECDSA-signed
``INTENT1``); ``SEAL_INTENT_SHA256`` was captured with the same command
from the tree that introduced the record format (``LIBSEAL-LOG/3``).

The head records are the other two: one unsigned (counter 41) and one a
cadence seal's (counter 48, a multiple of ``SIGN_EVERY``), which stores
its signature behind a "signed" flag, each chained onto ``HEAD_HASH``.
``HEAD_RECORD_SHA256`` was captured with the same command from the tree
that introduced that flag (``LIBSEAL-LOG/4``). The signed head's
payload and signature are ``SIGNED_HEAD_SHA256``'s, which did not move.
"""

import hashlib
import json

import pytest

from repro.audit.hashchain import SignedHead, encode_tuple
from repro.audit.log import (
    HEAD_RECORD,
    INTENT_RECORD,
    SIGN_EVERY,
    encode_head,
    open_record,
    seal_record,
    stored_entry,
)
from repro.audit.wal import intent_key
from repro.audit.rote import RoteCluster
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ec import CURVE_P256
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.sim.network import SimNetwork

N = CURVE_P256.n
MESSAGE = b"ecdsa-vectors/message"
HEAD_HASH = hashlib.sha256(b"ecdsa-vectors/head").digest()
LOG_ID = "ecdsa-vectors-log"


def scalars() -> dict[str, int]:
    named = {str(d): d for d in (1, 2, 127, 128, 129, 255, 256)}
    named["n-1"] = N - 1
    drbg = HmacDrbg(seed=b"ecdsa-vectors/scalars")
    for index in range(3):
        named[f"drbg-{index}"] = 1 + drbg.randint_below(N - 1)
    return named


POINT_SHA256 = {
    "1": "698bea63dc44a344663ff1429aea10842df27b6b991ef25866b2c6c02cdcc5be",
    "2": "a9f300eb5960e89133af7362011a1e26f0e2ea2e36dc402a04af6c192b891a8c",
    "127": "3d10885fa052d768ef7bc3c3765fb0106acff0eb74d46ba97fd8dd445ee1472f",
    "128": "6e2d7b9261216f3cd48aab4bbf5ba4de0c65d38cbb6cda5550f1919544d4ffab",
    "129": "62fe9e3abd86aa028cbd252223739f2b36290eb80d60ce84f9c3e21087b0d6c7",
    "255": "122e9d95392932a65fea898307bf1ed29599c666b02d188683399647e2e4074f",
    "256": "af1f84b54a991720c9ab532e731fc3d004004f528e427e79e3909a230cef6fe4",
    "n-1": "54739c7bcf8af7edeae610a61892427534a507b5522b12495d5ca54a24b35e60",
    "drbg-0": "9640243a55664146665f39664e5025b28b8d30690cc43e666623f9cad9651c76",
    "drbg-1": "b8c083938c4742dec88c87ffd4f83725b2883b3d25b287f7e729e6c553bf353d",
    "drbg-2": "b16df1870d376343906e086b9c118ff11538f32ef4b0ffbe806fd5f14c8b3a62",
}

SIGNATURE_SHA256 = {
    "1": "780ddae252a2657add26ecc9ea51241e8b600cad610a0671be5c7f3469762a92",
    "2": "db2b449c7b71a130f798926e8a220fcd17ce6b838e259d0b40d3149a3b212f2c",
    "127": "dc14f3fa8b56d27a15dabacf6433342f1104f4dba81291d22a40c0a47a4bd626",
    "128": "500f619c22389890d332ec3e7ea21b11e769756a26b21d80a80220e380896e23",
    "129": "12cb8e6612aab00656d72582eff03540457332ba6ca1a1f006d74cf3679f26ea",
    "255": "b2aa4eedf30c223980da6bd3097aac5bfc4f10be5a449f0afd61fe202b5ea379",
    "256": "b7985e1402a310bc08309b96901cc8072e3979cdada7cd3e074d930d43e0b786",
    "n-1": "e416add7fc5e7af958dd525c0d6a7b24821315db6677e24c1e5431bb11198c65",
    "drbg-0": "45e8928e7de444e1a91653b8b427e982a5718d71b7ab0cab86993b16892c19dc",
    "drbg-1": "853a230f862d617c4ebb0f699c8642690e99788e212ae8514a2d9aeff4f22f4a",
    "drbg-2": "945c00f635497f1f1b38da4dda8a10522bf24188e4664d8b3d98f1a0b7f4040d",
}

SIGNED_HEAD_SHA256 = "4af110a20017758f01e03f3250b761cf0b92a28c96ae2ab64128b7ae052e0dcd"

SEAL_INTENT_SHA256 = "4da1460e565911cb38155bdccef18eb423f0127def0c0b3cff62a0b14f6315d4"

HEAD_RECORD_SHA256 = {
    "unsigned": "9e5577531143f50eb5125ae9ea1a3416f02c9cd3b9db1e3c9ba51aa11bb6214f",
    "signed": "9022b1b17df9a21c305cbee931b4ed68a57d7312d11a4f2b36f2b0cf533ab8ff",
}

ATTESTATION_SHA256 = "7b62053ceee688b219b1b623249330750decdde75ed0a0c0895b5f976f39a4c8"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_key() -> EcdsaPrivateKey:
    return EcdsaPrivateKey.generate(HmacDrbg(seed=b"ecdsa-vectors/record-key"))


def signed_head() -> SignedHead:
    return SignedHead(HEAD_HASH, 41, 1000).signed(record_key())


def seal_intent() -> bytes:
    """An intent record chained onto ``HEAD_HASH`` (standing in for the
    MAC of the head record it follows)."""
    content = stored_entry(
        999, encode_tuple("updates", [41, "repo.git", b"\x00\xff", 2.5, None])
    ) + stored_entry(1000, encode_tuple("libseal_events", [41, "rotate", "x"]))
    return seal_record(intent_key(record_key().d), HEAD_HASH, INTENT_RECORD, content)[0]


def head_record(counter_value: int) -> bytes:
    """A head record chained onto ``HEAD_HASH``: signed exactly when
    ``counter_value`` is a cadence value."""
    head = SignedHead(HEAD_HASH, counter_value, 1000)
    if counter_value % SIGN_EVERY == 0:
        head = head.signed(record_key())
    content = encode_head(head, (1001, 2, -7, True))
    return seal_record(intent_key(record_key().d), HEAD_HASH, HEAD_RECORD, content)[0]


HEAD_RECORDS = {"unsigned": 41, "signed": 48}


def rote_after_rotation():
    """A replica group that counted twice, rotated, and counted again."""
    cluster = RoteCluster(
        f=1, network=SimNetwork(seed=11), cluster_id="ecdsa-vectors", seed=11
    )
    cluster.increment(LOG_ID)
    cluster.increment(LOG_ID)
    cluster.authority.rotate("vectors")
    for replica in cluster.nodes:
        replica.maybe_adopt(cluster.epoch)
    cluster.increment(LOG_ID)
    return cluster, cluster.nodes[0]._state[LOG_ID]


def attestation_bytes(attestation) -> bytes:
    """The attestation's fields as the sorted JSON object first pinned."""
    return json.dumps(
        {
            "epoch": attestation.epoch,
            "log_id": attestation.log_id,
            "mac": attestation.mac.hex(),
            "value": attestation.value,
        },
        sort_keys=True,
    ).encode()


@pytest.mark.parametrize("name", list(scalars()))
def test_public_point_and_signature_match_golden(name):
    key = EcdsaPrivateKey(scalars()[name])
    assert sha(key.public_key().encode()) == POINT_SHA256[name]
    signature = key.sign(MESSAGE)
    assert sha(signature.encode()) == SIGNATURE_SHA256[name]
    assert key.public_key().verify(MESSAGE, signature)


def test_signed_head_matches_golden():
    head = signed_head()
    assert sha(head.payload() + head.signature.encode()) == SIGNED_HEAD_SHA256
    head.verify(record_key().public_key())


def test_seal_intent_encoding_matches_golden():
    record = seal_intent()
    assert sha(record) == SEAL_INTENT_SHA256
    kind, _, _ = open_record(intent_key(record_key().d), HEAD_HASH, record[8:])
    assert kind == INTENT_RECORD


@pytest.mark.parametrize("name", list(HEAD_RECORDS))
def test_head_record_matches_golden(name):
    record = head_record(HEAD_RECORDS[name])
    assert sha(record) == HEAD_RECORD_SHA256[name]
    kind, content, _ = open_record(intent_key(record_key().d), HEAD_HASH, record[8:])
    assert kind == HEAD_RECORD
    assert len(content) == 74 + 64 * (name == "signed")
    if name == "signed":
        signed = SignedHead(HEAD_HASH, 48, 1000).signed(record_key())
        assert content[-64:] == signed.signature.encode()
        signed.verify(record_key().public_key())


def test_rote_attestation_matches_golden():
    cluster, attestation = rote_after_rotation()
    assert (attestation.value, attestation.epoch) == (3, 2)
    assert sha(attestation_bytes(attestation)) == ATTESTATION_SHA256
    assert attestation.verify(cluster._keyring)


if __name__ == "__main__":
    named = scalars()
    print("POINT_SHA256 = {")
    for name, d in named.items():
        print(f'    "{name}": "{sha(EcdsaPrivateKey(d).public_key().encode())}",')
    print("}\n")
    print("SIGNATURE_SHA256 = {")
    for name, d in named.items():
        print(f'    "{name}": "{sha(EcdsaPrivateKey(d).sign(MESSAGE).encode())}",')
    print("}\n")
    head = signed_head()
    print(f'SIGNED_HEAD_SHA256 = "{sha(head.payload() + head.signature.encode())}"\n')
    print(f'SEAL_INTENT_SHA256 = "{sha(seal_intent())}"\n')
    print("HEAD_RECORD_SHA256 = {")
    for name, counter_value in HEAD_RECORDS.items():
        print(f'    "{name}": "{sha(head_record(counter_value))}",')
    print("}\n")
    _, attestation = rote_after_rotation()
    print(f'ATTESTATION_SHA256 = "{sha(attestation_bytes(attestation))}"')
