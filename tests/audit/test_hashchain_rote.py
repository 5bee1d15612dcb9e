"""Tests for the hash chain and the ROTE counter protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit.hashchain import GENESIS, HashChain, SignedHead, encode_tuple
from repro.audit.rote import RoteCluster
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import IntegrityError, QuorumUnavailableError


@pytest.fixture
def key():
    return EcdsaPrivateKey.generate(HmacDrbg(seed=b"audit-key"))


class TestEncodeTuple:
    def test_types_are_distinguished(self):
        # "1" (text) and 1 (int) must not collide.
        assert encode_tuple("t", [1]) != encode_tuple("t", ["1"])
        assert encode_tuple("t", [None]) != encode_tuple("t", [0])
        assert encode_tuple("t", [1.0]) != encode_tuple("t", [1])

    def test_table_name_is_bound(self):
        assert encode_tuple("a", [1]) != encode_tuple("b", [1])

    def test_field_boundaries_are_unambiguous(self):
        assert encode_tuple("t", ["ab", "c"]) != encode_tuple("t", ["a", "bc"])

    def test_bytes_values(self):
        assert encode_tuple("t", [b"\x00\x01"]) != encode_tuple("t", ["\x00\x01"])

    def test_golden_encoding(self):
        # Every chained hash and signed head depends on these bytes.
        class Count(int):
            def __str__(self):
                return "seven"

        class Name(str):
            def __str__(self):
                return "shown"

        values = [None, True, False, -12, 2.5, 1.0, b"\x00\xff", "répo",
                  Count(7), Name("raw"), 2**70]
        assert encode_tuple("updates", values) == (
            b"Tupdates\x00N\x00B1\x00B0\x00I-12\x00F2.5\x00F1.0\x00"
            b"Y\x00\x00\x00\x02\x00\xff\x00S\x00\x00\x00\x05r\xc3\xa9po\x00"
            b"Iseven\x00S\x00\x00\x00\x05shown\x00I1180591620717411303424\x00"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        table=st.text(max_size=8),
        values=st.lists(
            st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.text(), st.binary()),
            max_size=6,
        ),
    )
    def test_matches_the_type_ladder(self, table, values):
        assert encode_tuple(table, values) == _ladder(table, values)


def _ladder(table, values):
    """The encoding as specified: one isinstance ladder per value."""
    out = b"T" + table.encode() + b"\x00"
    for value in values:
        if value is None:
            out += b"N"
        elif isinstance(value, bool):
            out += b"B1" if value else b"B0"
        elif isinstance(value, int):
            out += b"I" + str(value).encode()
        elif isinstance(value, float):
            out += b"F" + repr(value).encode()
        elif isinstance(value, bytes):
            out += b"Y" + len(value).to_bytes(4, "big") + value
        else:
            encoded = str(value).encode()
            out += b"S" + len(encoded).to_bytes(4, "big") + encoded
        out += b"\x00"
    return out


class TestHashChain:
    def test_empty_chain_head_is_genesis(self):
        assert HashChain().head == GENESIS

    def test_append_advances_head(self):
        chain = HashChain()
        chain.append("t", [1, "a"])
        first = chain.head
        chain.append("t", [2, "b"])
        assert first not in (GENESIS, chain.head)
        assert len(chain) == 2

    def test_verify_accepts_faithful_payloads(self):
        chain = HashChain()
        payloads = [("t", [i, f"row{i}"]) for i in range(10)]
        for table, values in payloads:
            chain.append(table, values)
        chain.verify_payloads(payloads)

    def test_verify_detects_modified_tuple(self):
        chain = HashChain()
        chain.append("t", [1, "original"])
        with pytest.raises(IntegrityError):
            chain.verify_payloads([("t", [1, "forged"])])

    def test_verify_detects_deleted_tuple(self):
        chain = HashChain()
        chain.append("t", [1])
        chain.append("t", [2])
        with pytest.raises(IntegrityError):
            chain.verify_payloads([("t", [1])])

    def test_verify_detects_injected_tuple(self):
        chain = HashChain()
        chain.append("t", [1])
        with pytest.raises(IntegrityError):
            chain.verify_payloads([("t", [1]), ("t", [99])])

    def test_verify_detects_reordering(self):
        chain = HashChain()
        chain.append("t", [1])
        chain.append("t", [2])
        with pytest.raises(IntegrityError):
            chain.verify_payloads([("t", [2]), ("t", [1])])

    def test_rebuild_after_trim(self):
        chain = HashChain()
        for i in range(5):
            chain.append("t", [i])
        chain.rebuild([("t", [1]), ("t", [3])])
        assert len(chain) == 2
        chain.verify_payloads([("t", [1]), ("t", [3])])


class TestSignedHead:
    def test_sign_verify(self, key):
        head = SignedHead(b"\xab" * 32, counter_value=7, entry_count=3).signed(key)
        head.verify(key.public_key())

    def test_wrong_key_rejected(self, key):
        other = EcdsaPrivateKey.generate(HmacDrbg(seed=b"other"))
        head = SignedHead(b"\xab" * 32, 7, 3).signed(key)
        with pytest.raises(IntegrityError):
            head.verify(other.public_key())

    def test_tampered_counter_rejected(self, key):
        head = SignedHead(b"\xab" * 32, 7, 3).signed(key)
        forged = SignedHead(head.head_hash, 99, head.entry_count, head.signature)
        with pytest.raises(IntegrityError):
            forged.verify(key.public_key())


class TestRote:
    def test_increment_is_monotonic(self):
        cluster = RoteCluster(f=1)
        values = [cluster.increment("log") for _ in range(5)]
        assert values == [1, 2, 3, 4, 5]
        assert cluster.retrieve("log") == 5

    def test_cluster_size_is_3f_plus_1(self):
        assert RoteCluster(f=1).n == 4
        assert RoteCluster(f=2).n == 7
        assert RoteCluster(f=1).quorum == 3

    def test_tolerates_f_crashes(self):
        cluster = RoteCluster(f=1)
        cluster.increment("log")
        cluster.crash(0)
        assert cluster.increment("log") == 2
        assert cluster.retrieve("log") == 2

    def test_fails_beyond_f_crashes(self):
        # Quorum loss from crashes is an *availability* fault, not
        # evidence of rollback: the retryable error class surfaces.
        cluster = RoteCluster(f=1)
        cluster.crash(0)
        cluster.crash(1)
        with pytest.raises(QuorumUnavailableError):
            cluster.increment("log")
        with pytest.raises(QuorumUnavailableError):
            cluster.retrieve("log")

    def test_tolerates_f_equivocating_nodes(self):
        cluster = RoteCluster(f=1)
        cluster.equivocate(3)
        assert cluster.increment("log") == 1
        assert cluster.retrieve("log") == 1

    def test_recovered_node_rejoins(self):
        cluster = RoteCluster(f=1)
        cluster.crash(0)
        cluster.increment("log")
        cluster.recover(0)
        assert cluster.increment("log") == 2

    def test_independent_log_ids(self):
        cluster = RoteCluster(f=1)
        cluster.increment("log-a")
        cluster.increment("log-a")
        cluster.increment("log-b")
        assert cluster.retrieve("log-a") == 2
        assert cluster.retrieve("log-b") == 1

    def test_latency_is_metered(self):
        cluster = RoteCluster(f=1)
        cluster.increment("log")
        assert cluster.total_latency_ms > 0
