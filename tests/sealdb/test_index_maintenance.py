"""Property-style parity: SealDB vs sqlite3 under random DML.

SealDB and stdlib ``sqlite3`` receive the *identical* randomized
INSERT/UPDATE/DELETE (and audit-style trim) sequence. SealDB answers
through hash indexes, sorted-range pruning and hash joins that every
mutation has to keep right; SQLite knows nothing of them. After every
mutation batch a bank of probe queries — equality predicates,
equi-joins, NULL keys, correlated subqueries — must return the same rows
(in the same order where the probe asks for one).
"""

import random

import pytest

from tests.sqlite_oracle import (
    AUDIT_SCHEMA,
    assert_matches_sqlite,
    execute_both,
    mirrored,
)

PROBES = [
    ("SELECT * FROM updates WHERE repo = ?", ("repo-1",)),
    ("SELECT cid FROM updates WHERE repo = ? AND branch = ?", ("repo-0", "b2")),
    ("SELECT * FROM updates WHERE repo = ? AND time > ?", ("repo-2", 10)),
    ("SELECT cid FROM updates WHERE time > ?", (15,)),
    ("SELECT * FROM updates WHERE repo IS NULL", ()),
    ("SELECT * FROM updates WHERE repo = ? ORDER BY time DESC", ("repo-1",)),
    (
        "SELECT u.cid, a.cid FROM updates u JOIN advertisements a "
        "ON u.repo = a.repo AND u.branch = a.branch",
        (),
    ),
    ("SELECT * FROM updates NATURAL JOIN advertisements", ()),
    (
        "SELECT u.cid FROM updates u LEFT JOIN advertisements a "
        "ON u.repo = a.repo AND u.time = a.time WHERE a.cid IS NULL",
        (),
    ),
    (
        "SELECT a.time, a.repo, a.branch FROM advertisements a WHERE a.cid != ("
        "  SELECT u.cid FROM updates u"
        "  WHERE u.repo = a.repo AND u.branch = a.branch AND u.time < a.time"
        "  ORDER BY u.time DESC LIMIT 1)",
        (),
    ),
    (
        "SELECT repo, COUNT(*) FROM updates WHERE branch = ? GROUP BY repo",
        ("b1",),
    ),
]

TRIM = (
    "DELETE FROM updates WHERE time NOT IN "
    "(SELECT MAX(time) FROM updates GROUP BY repo, branch)"
)


def _random_row(rng, clock):
    repo = rng.choice(["repo-0", "repo-1", "repo-2", None])
    branch = rng.choice(["b0", "b1", "b2", "b3"])
    return (clock, repo, branch, f"c{clock}")


def _mutate(rng, seal, lite, clock):
    """Apply one random mutation to both engines; returns the clock."""
    op = rng.random()
    if op < 0.6:  # append-heavy, like an audit log
        table = rng.choice(["updates", "advertisements"])
        row = _random_row(rng, clock)
        execute_both(seal, lite, f"INSERT INTO {table} VALUES (?, ?, ?, ?)", row)
        return clock + 1
    if op < 0.75:
        repo = rng.choice(["repo-0", "repo-1", "repo-2"])
        branch = rng.choice(["b0", "b1"])
        execute_both(
            seal, lite, "UPDATE updates SET branch = ? WHERE repo = ?", (branch, repo)
        )
        return clock
    if op < 0.9:
        bound = rng.randrange(max(1, clock))
        execute_both(
            seal, lite, "DELETE FROM advertisements WHERE time < ?", (bound,)
        )
        return clock
    execute_both(seal, lite, TRIM)
    return clock


@pytest.mark.parametrize("seed", [1, 7, 42, 1337])
def test_randomized_dml_parity(seed):
    rng = random.Random(seed)
    seal, lite = mirrored(AUDIT_SCHEMA)
    clock = 0
    for step in range(120):
        clock = _mutate(rng, seal, lite, clock)
        if step % 10 == 9:
            for sql, params in PROBES:
                assert_matches_sqlite(seal, lite, sql, params)
    # The access paths under test must actually have engaged.
    assert seal.scan_stats.index_probes > 0
    assert seal.scan_stats.hash_joins > 0


def test_null_keys_excluded_from_indexes():
    seal, lite = mirrored(AUDIT_SCHEMA)
    for i in range(10):
        execute_both(
            seal, lite, "INSERT INTO updates VALUES (?, ?, 'b', ?)",
            (i, None if i % 2 else "repo-0", f"c{i}"),
        )
    for sql in (
        "SELECT cid FROM updates WHERE repo = 'repo-0'",
        "SELECT cid FROM updates WHERE repo IS NULL",
        "SELECT u.cid, v.cid FROM updates u JOIN updates v ON u.repo = v.repo",
    ):
        assert_matches_sqlite(seal, lite, sql)
