"""Property-based tests (hypothesis) for the audit substrate invariants."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import AuditLog, HashChain, RoteCluster
from repro.audit.persistence import InMemoryStorage
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.errors import IntegrityError, QuorumUnavailableError, RollbackError

sql_value = st.one_of(
    st.none(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.binary(max_size=20),
)
payload = st.tuples(st.sampled_from(["updates", "advertisements"]),
                    st.lists(sql_value, min_size=1, max_size=5))
payloads = st.lists(payload, min_size=1, max_size=15)


class TestHashChainProperties:
    @settings(max_examples=50, deadline=None)
    @given(data=payloads)
    def test_faithful_payloads_always_verify(self, data):
        chain = HashChain()
        for table, values in data:
            chain.append(table, values)
        chain.verify_payloads(data)

    @settings(max_examples=50, deadline=None)
    @given(data=payloads, index=st.integers(min_value=0, max_value=14),
           junk=sql_value)
    def test_any_single_modification_is_detected(self, data, index, junk):
        chain = HashChain()
        for table, values in data:
            chain.append(table, values)
        index %= len(data)
        table, values = data[index]
        modified = list(values)
        position = index % len(modified)
        if modified[position] == junk or (
            isinstance(modified[position], float)
            and isinstance(junk, float)
            and modified[position] == junk
        ):
            junk = "definitely-different-value"
        modified[position] = junk
        tampered = list(data)
        tampered[index] = (table, modified)
        with pytest.raises(IntegrityError):
            chain.verify_payloads(tampered)

    @settings(max_examples=50, deadline=None)
    @given(data=payloads, index=st.integers(min_value=0, max_value=14))
    def test_any_single_deletion_is_detected(self, data, index):
        chain = HashChain()
        for table, values in data:
            chain.append(table, values)
        index %= len(data)
        tampered = data[:index] + data[index + 1 :]
        with pytest.raises(IntegrityError):
            chain.verify_payloads(tampered)

    @settings(max_examples=50, deadline=None)
    @given(data=payloads)
    def test_swapping_two_distinct_entries_is_detected(self, data):
        distinct = []
        seen = set()
        for table, values in data:
            marker = (table, json.dumps(values, default=repr))
            if marker not in seen:
                seen.add(marker)
                distinct.append((table, values))
        if len(distinct) < 2:
            return
        chain = HashChain()
        for table, values in distinct:
            chain.append(table, values)
        swapped = list(distinct)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        with pytest.raises(IntegrityError):
            chain.verify_payloads(swapped)

    @settings(max_examples=30, deadline=None)
    @given(data=payloads, keep=st.sets(st.integers(min_value=0, max_value=14)))
    def test_rebuild_over_any_subset_verifies(self, data, keep):
        chain = HashChain()
        for table, values in data:
            chain.append(table, values)
        survivors = [p for i, p in enumerate(data) if i in keep]
        chain.rebuild(survivors)
        chain.verify_payloads(survivors)


class TestAuditLogProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=100),
                st.sampled_from(["r1", "r2"]),
                st.sampled_from(["main", "dev"]),
                st.text(alphabet="abcdef0123456789", min_size=4, max_size=8),
                st.sampled_from(["create", "update", "delete"]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_serialise_load_roundtrip_preserves_content(self, rows):
        key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"prop-log"))
        rote = RoteCluster(f=1)
        schema = (
            "CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT, "
            "cid TEXT, type TEXT)"
        )
        log = AuditLog(schema, key, rote, storage=InMemoryStorage())
        for row in rows:
            log.append("updates", row)
        log.seal_epoch()
        loaded = AuditLog.load(
            log.storage.load(), schema, key, key.public_key(), rote, log.log_id
        )
        original = sorted(map(repr, log.db.lookup_table("updates").rows))
        reloaded = sorted(map(repr, loaded.db.lookup_table("updates").rows))
        assert original == reloaded

    @settings(max_examples=15, deadline=None)
    @given(epochs=st.integers(min_value=2, max_value=6),
           stale_at=st.integers(min_value=0, max_value=4))
    def test_every_stale_snapshot_is_rejected(self, epochs, stale_at):
        stale_at %= epochs - 1  # strictly before the newest epoch
        key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"stale-prop"))
        rote = RoteCluster(f=1)
        schema = "CREATE TABLE updates(time INTEGER, repo TEXT)"
        log = AuditLog(schema, key, rote, storage=InMemoryStorage())
        snapshots = []
        for epoch in range(epochs):
            log.append("updates", (epoch, "r"))
            log.seal_epoch()
            snapshots.append(log.storage.load())
        # Every snapshot except the newest must be rejected as a rollback.
        with pytest.raises(RollbackError):
            AuditLog.load(
                snapshots[stale_at], schema, key, key.public_key(), rote, log.log_id
            )
        # The newest one loads.
        AuditLog.load(snapshots[-1], schema, key, key.public_key(), rote, log.log_id)


class TestRoteProperties:
    @settings(max_examples=30, deadline=None)
    @given(f=st.integers(min_value=1, max_value=3),
           crashes=st.data())
    def test_any_f_crashes_are_tolerated(self, f, crashes):
        cluster = RoteCluster(f=f)
        crashed = crashes.draw(
            st.sets(st.integers(min_value=0, max_value=cluster.n - 1),
                    min_size=0, max_size=f)
        )
        for node_id in crashed:
            cluster.crash(node_id)
        for expected in range(1, 4):
            assert cluster.increment("log") == expected
        assert cluster.retrieve("log") == 3

    @settings(max_examples=20, deadline=None)
    @given(f=st.integers(min_value=1, max_value=3))
    def test_f_plus_one_crashes_break_the_quorum(self, f):
        cluster = RoteCluster(f=f)
        for node_id in range(f + 1):
            cluster.crash(node_id)
        with pytest.raises(QuorumUnavailableError):
            cluster.increment("log")
