"""The epoch-scoped key memo of :class:`SigningAuthority`.

Sealing and group keys are derived once per usable epoch and dropped when
the epoch retires. Every memoised key must equal the HKDF it stands for
(recomputed here from the root secret), a second derivation must cost no
HKDF, and once an epoch is retired the memo holds nothing of it while
every caller still refuses it.
"""

import pytest

from repro.audit.rote import RoteCluster
from repro.crypto.aead import AEADKey
from repro.crypto.hashing import hkdf
from repro.errors import RetiredEpochError
from repro.sgx import Enclave, EnclaveConfig, EpochState, SigningAuthority, sealing
from repro.sim.network import SimNetwork

LABELS = (b"rote", b"shard-0", b"")
KEY_IDS = (bytes(32), bytes(range(32)))


def reference_group_key(authority, label, epoch):
    return hkdf(
        authority._root_secret,
        info=b"sgx-group-key" + epoch.to_bytes(4, "big") + label,
        length=32,
    )


def reference_sealing_key(authority, key_id, epoch):
    return AEADKey.derive(
        hkdf(
            authority._root_secret,
            info=b"sgx-seal" + epoch.to_bytes(4, "big") + key_id,
            length=32,
        )
    )


def usable_epochs(authority):
    return {
        epoch
        for epoch, entry in authority.epochs.items()
        if entry.state in (EpochState.ACTIVE, EpochState.GRACE)
    }


def derive_everything(authority, epochs):
    for epoch in epochs:
        for label in LABELS:
            authority.derive_group_key(label, epoch)
        for key_id in KEY_IDS:
            authority._sealing_key(key_id, epoch)


@pytest.fixture
def hkdf_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("info"))
        return hkdf(*args, **kwargs)

    monkeypatch.setattr(sealing, "hkdf", counted)
    return calls


@pytest.fixture
def authority():
    return SigningAuthority("memo", seed=b"key-memo", grace_window=2)


class TestMemoisedKeysAreTheDerivation:
    def test_every_key_equals_its_reference(self, authority):
        for _ in range(3):
            authority.rotate("bump")
        epochs = sorted(usable_epochs(authority))
        assert epochs == [2, 3, 4]
        for _ in range(2):  # first derivation, then the memo
            for epoch in epochs:
                for label in LABELS:
                    assert authority.derive_group_key(label, epoch) == (
                        reference_group_key(authority, label, epoch)
                    )
                for key_id in KEY_IDS:
                    assert authority._sealing_key(key_id, epoch) == (
                        reference_sealing_key(authority, key_id, epoch)
                    )
        assert authority.derive_group_key(b"rote") == reference_group_key(
            authority, b"rote", 4
        )

    def test_a_second_derivation_costs_no_hkdf(self, authority, hkdf_calls):
        derive_everything(authority, [1])
        assert len(hkdf_calls) == len(LABELS) + len(KEY_IDS)
        derive_everything(authority, [1])
        authority.derive_group_key(b"rote")
        assert len(hkdf_calls) == len(LABELS) + len(KEY_IDS)

    def test_labels_and_key_ids_share_no_entry(self, authority):
        group = authority.derive_group_key(KEY_IDS[0], 1)
        sealing_key = authority._sealing_key(KEY_IDS[0], 1)
        assert group == reference_group_key(authority, KEY_IDS[0], 1)
        assert sealing_key == reference_sealing_key(authority, KEY_IDS[0], 1)


class TestRetiredEpochsLeaveTheMemo:
    def test_rotations_past_the_grace_window_purge(self, authority):
        for _ in range(6):
            derive_everything(authority, sorted(authority.epochs))
            authority.rotate("bump")
            assert set(authority._epoch_keys) <= usable_epochs(authority)
        assert set(authority._epoch_keys) == {5, 6}  # 7 not derived yet
        derive_everything(authority, sorted(authority.epochs))
        assert set(authority._epoch_keys) == usable_epochs(authority) == {5, 6, 7}

    def test_retire_purges_and_retired_keys_are_not_kept(self, authority, hkdf_calls):
        authority.rotate("bump")
        derive_everything(authority, [1, 2])
        authority.retire(1)
        assert set(authority._epoch_keys) == {2}
        before = len(hkdf_calls)
        for _ in range(2):  # still the derivation, but never memoised
            assert authority.derive_group_key(b"rote", 1) == reference_group_key(
                authority, b"rote", 1
            )
        assert len(hkdf_calls) == before + 2
        assert authority.derive_group_key(b"rote", 9) == reference_group_key(
            authority, b"rote", 9
        )
        assert set(authority._epoch_keys) == {2}


class TestCallersStillRefuseRetiredEpochs:
    def test_keyring_replica_and_unseal(self):
        cluster = RoteCluster(
            f=1, network=SimNetwork(seed=3), cluster_id="memo", seed=3
        )
        authority = cluster.authority
        enclave = Enclave(EnclaveConfig(code_identity="libseal", signer_name=authority.name))
        enclave.interface.register_ecall("run", lambda fn: fn())
        blob = enclave.interface.ecall("run", lambda: authority.seal(enclave, b"state"))
        replica = cluster.nodes[0]
        label = cluster.cluster_id.encode()
        assert cluster._keyring(1) == replica._key_for(1) == reference_group_key(
            authority, label, 1
        )
        authority.rotate("one")
        authority.rotate("two")
        assert authority.epoch_state(1) is EpochState.RETIRED
        assert 1 not in authority._epoch_keys
        assert cluster._keyring(1) is None
        assert replica._key_for(1) is None
        with pytest.raises(RetiredEpochError):
            enclave.interface.ecall("run", lambda: authority.unseal(enclave, blob))
        assert 1 not in authority._epoch_keys
