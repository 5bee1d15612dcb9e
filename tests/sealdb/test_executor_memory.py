"""The executor retains nothing per statement.

A process-global memo of column-resolution maps once pinned every
per-statement column list (101 per execution of the query below) until
8,192 had piled up. Nothing noticed until a faster program fitted more
repetitions into a benchmark run and the retention surfaced as resident
memory. The resolution map now lives on its column list and dies with it,
and so does every column binding made through it; correlation memos die
with their statement. Git's correlated SELECT and Dropbox's three
invariants (two correlated probes, one probed join) are held to that.
"""

import gc
import importlib
import pkgutil

import repro.sealdb
from repro.core import LibSeal
from repro.core.libseal import LibSealConfig
from repro.sealdb import Database
from repro.ssm import DropboxSSM
from repro.workloads.dropbox_ops import DropboxOpsWorkload
from tests.sealdb.test_subqueries_paper import (
    GIT_SCHEMA,
    SOUNDNESS_QUERY as CORRELATED,
    advertise,
    push,
)


def _git_db(rows=50):
    db = Database()
    db.executescript(GIT_SCHEMA)
    for i in range(rows):
        push(db, 2 * i, "r", f"b{i % 5}", f"c{i}")
        advertise(db, 2 * i + 1, "r", f"b{i % 5}", f"c{i}")
    return db


def _module_containers():
    """Every dict/list/set bound at module level anywhere in sealdb."""
    found = {}
    for info in pkgutil.iter_modules(repro.sealdb.__path__, "repro.sealdb."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                found[f"{info.name}.{name}"] = value
    return found


def test_live_objects_flat_across_repeated_correlated_select():
    db = _git_db()
    live = []
    for _ in range(25):
        assert db.execute(CORRELATED).rows == []
        gc.collect()
        live.append(len(gc.get_objects()))
    fifth, last = live[4], live[24]
    assert abs(last - fifth) <= fifth * 0.01, live


def test_no_sealdb_module_container_grows_with_statements():
    db = _git_db()
    db.execute(CORRELATED)
    containers = _module_containers()
    before = {name: len(value) for name, value in containers.items()}
    for _ in range(10):
        db.execute(CORRELATED)
    after = {name: len(value) for name, value in containers.items()}
    assert after == before


def _dropbox_check():
    """A Dropbox log after seeded traffic; each call of the result is one
    forced full check of its three invariants."""
    libseal = LibSeal(DropboxSSM(), LibSealConfig(group_seal_pairs=16))
    DropboxOpsWorkload(libseal, seed=5).run(150)
    libseal.flush_pending()

    def check():
        outcome = libseal.check_invariants(force_full=True)
        assert outcome.ok and outcome.rows_scanned > 0

    return check


def test_live_objects_flat_across_repeated_dropbox_checks():
    check = _dropbox_check()
    live = []
    for _ in range(25):
        check()
        gc.collect()
        live.append(len(gc.get_objects()))
    fifth, last = live[4], live[24]
    assert abs(last - fifth) <= fifth * 0.01, live


def test_no_sealdb_module_container_grows_with_dropbox_checks():
    check = _dropbox_check()
    check()
    containers = _module_containers()
    before = {name: len(value) for name, value in containers.items()}
    for _ in range(10):
        check()
    after = {name: len(value) for name, value in containers.items()}
    assert after == before
