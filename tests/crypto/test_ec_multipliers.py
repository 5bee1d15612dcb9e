"""The three scalar multipliers against a ladder over the affine ``+``.

``ECPoint.__mul__`` serves the generator from a fixed-base table and every
other point from a width-5 NAF ladder; ``double_multiply`` folds
``u1*G + u2*Q`` into one chain. All three run in Jacobian coordinates with
mixed additions. The reference here uses nothing but the retained affine
``__add__`` (one inversion per step, no tables, no recoding), so it shares
no arithmetic with what it checks. Tier-1 runs a bounded number of
examples; the nightly raises ``REPRO_EC_EXAMPLES``.

The fixed-base table itself is checked entry by entry with the affine
``+``, and its retained and transient memory are bounded. The last section
pins the *work* each multiplier does as exact counts of point doublings
and additions — the claim of the change, with no clock.
"""

import copy
import os
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import ec
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ec import CURVE_P256, ECPoint, double_multiply
from repro.crypto.ecdsa import EcdsaPrivateKey

G = CURVE_P256.generator
N = CURVE_P256.n
P = CURVE_P256.p
INFINITY = ECPoint.infinity(CURVE_P256)

bounded = settings(
    max_examples=int(os.environ.get("REPRO_EC_EXAMPLES", "40")), deadline=None
)


def reference_multiply(point: ECPoint, scalar: int) -> ECPoint:
    """Right-to-left double-and-add over the public affine ``+`` and unary
    ``-`` only; no reduction mod n (``n*P`` has to come out as infinity)."""
    if scalar < 0:
        point, scalar = -point, -scalar
    result = ECPoint.infinity(point.curve)
    while scalar:
        if scalar & 1:
            result = result + point
        point = point + point
        scalar >>= 1
    return result


def point_with_x_from(x: int) -> ECPoint:
    """The first curve point at or after ``x``, found by a square root
    (p = 3 mod 4), so random points owe nothing to any multiplier."""
    while True:
        rhs = (x * x * x + CURVE_P256.a * x + CURVE_P256.b) % P
        y = pow(rhs, (P + 1) // 4, P)
        if y * y % P == rhs:
            return ECPoint(CURVE_P256, x, y)
        x = (x + 1) % P


def table_entry(row: int, digit: int) -> ECPoint:
    """``digit * 256**row * G`` as the comb adds it, for a signed digit
    in ``[-127, 128]`` other than 0 (a negative one is the entry negated)."""
    entry = ECPoint(CURVE_P256, *CURVE_P256._generator_table[row][abs(digit) - 1])
    return entry if digit > 0 else -entry


def scalar_reaching(row: int, digit: int) -> int:
    """The scalar whose recoding is ``digit`` at ``row`` with every lower
    row zero (a negative digit carries one into ``row + 1``)."""
    return (digit % 256) << (8 * row)


EDGE_SCALARS = [
    0, 1, 2, 15, 16, 17, 31, 32, 33, N - 2, N - 1, N, N + 1, 2 * N - 1,
    127, 128, 129, 255, 256, 257,         # either side of a byte's sign edge
    N - 128, N - 129,
    (1 << 256) - 1,                       # every byte 0xFF (and >= n)
    (1 << 248) - 1,                       # a carry ripple through 31 rows below n
    (1 << 252) - 1,
    int("7f" * 32, 16), int("80" * 32, 16), int("81" * 32, 16),
    int("f0" * 32, 16), int("0f" * 32, 16),  # alternating nibbles
    int("a" * 64, 16), int("5" * 64, 16),    # alternating bits
    int("8" * 64, 16), int("10" * 32, 16),
]
EDGE_SCALARS += [1 << k for k in range(2, 257, 23)]
EDGE_SCALARS += [(1 << k) - 1 for k in range(3, 257, 23)]
EDGE_SCALARS += [-s for s in EDGE_SCALARS if s]

scalars = st.one_of(
    st.sampled_from(EDGE_SCALARS),
    st.integers(min_value=-(1 << 260), max_value=1 << 260),
    st.integers(min_value=0, max_value=1 << 20),
)
points = st.one_of(
    st.sampled_from(
        [G, -G, INFINITY, G + G, table_entry(0, 128), table_entry(0, -127), table_entry(32, 1)]
    ),
    st.builds(
        table_entry,
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=-127, max_value=128).filter(bool),
    ),
    st.integers(min_value=1, max_value=P - 1).map(point_with_x_from),
    st.integers(min_value=1, max_value=P - 1).map(point_with_x_from).map(lambda q: -q),
)


@pytest.fixture
def counts(monkeypatch):
    """Tally of calls to the two group-operation helpers."""
    CURVE_P256._generator_table  # the lazy build is not the work measured
    tally = {"double": 0, "add": 0}
    double, add = ec._jac_double, ec._jac_add_affine

    def counted_double(*args):
        tally["double"] += 1
        return double(*args)

    def counted_add(*args):
        tally["add"] += 1
        return add(*args)

    monkeypatch.setattr(ec, "_jac_double", counted_double)
    monkeypatch.setattr(ec, "_jac_add_affine", counted_add)
    return tally


class TestAgainstAffineLadder:
    @bounded
    @given(scalar=scalars)
    @example(scalar=0)
    @example(scalar=N)
    @example(scalar=N - 1)
    @example(scalar=-1)
    @example(scalar=(1 << 256) - 1)
    def test_fixed_base(self, scalar):
        expected = reference_multiply(G, scalar)
        assert G * scalar == expected
        assert scalar * G == expected

    @bounded
    @given(point=points, scalar=scalars)
    @example(point=INFINITY, scalar=5)
    @example(point=-G, scalar=N - 1)
    @example(point=G + G, scalar=N)
    @example(point=G + G, scalar=-(N + 1))
    def test_variable_point(self, point, scalar):
        expected = reference_multiply(point, scalar)
        assert point * scalar == expected
        assert scalar * point == expected

    @bounded
    @given(u1=scalars, u2=scalars, point=points)
    @example(u1=0, u2=0, point=G)
    @example(u1=0, u2=7, point=G + G)
    @example(u1=7, u2=0, point=G + G)
    @example(u1=7, u2=9, point=INFINITY)
    @example(u1=5, u2=N - 5, point=G)
    @example(u1=5, u2=5, point=-G)
    def test_double_multiply(self, u1, u2, point):
        expected = reference_multiply(G, u1) + reference_multiply(point, u2)
        assert double_multiply(u1, u2, point) == expected

    @bounded
    @given(
        u1=st.integers(min_value=1, max_value=N - 1),
        u2=st.integers(min_value=1, max_value=N - 1),
        sign=st.sampled_from([1, -1]),
    )
    def test_double_multiply_when_both_halves_are_the_same_point(self, u1, u2, sign):
        # Q chosen so that u2*Q = ±u1*G: the sum is 2*u1*G or infinity.
        q = reference_multiply(G, sign * u1 * pow(u2, -1, N) % N)
        expected = reference_multiply(G, 2 * u1) if sign == 1 else INFINITY
        assert double_multiply(u1, u2, q) == expected


class TestMixedAdditionEdges:
    """Accumulating a table entry onto ``u2*Q`` can meet the very same
    point or its negative, through a plain or a negated entry; count the
    doubling helper to show the branch was really taken (with ``u2 = 1``
    the ladder itself never doubles)."""

    EDGES = [
        (0, 1), (0, 15), (17, 6), (31, 128),  # plain entries
        (0, -1), (0, -127), (17, -6), (31, -1),  # negated; carry into row + 1
    ]

    @pytest.mark.parametrize("row,digit", EDGES)
    def test_equal_point_takes_the_doubling_branch(self, counts, row, digit):
        entry = table_entry(row, digit)
        scalar = scalar_reaching(row, digit)
        expected = reference_multiply(G, scalar) + entry
        assert double_multiply(scalar, 1, entry) == expected
        assert counts["double"] == 1
        if digit > 0:
            assert expected == entry + entry

    @pytest.mark.parametrize("row,digit", EDGES)
    def test_opposite_point_gives_infinity(self, counts, row, digit):
        entry = table_entry(row, digit)
        scalar = scalar_reaching(row, digit)
        expected = reference_multiply(G, scalar) + -entry
        assert double_multiply(scalar, 1, -entry) == expected
        assert counts["double"] == 0
        assert double_multiply(scalar, N - 1, entry) == expected
        # A plain digit is the whole scalar; a negated one leaves its carry.
        assert expected.is_infinity == (digit > 0)

    def test_last_table_entry_completes_a_doubling(self, counts):
        # rest*G + Q == top*G just before the top digit's entry is added.
        u1 = (9 << 200) + 0x1234_5678_9ABC
        top, rest = 9 << 200, 0x1234_5678_9ABC
        q = reference_multiply(G, top - rest)
        assert double_multiply(u1, 1, q) == reference_multiply(G, 2 * top)
        assert counts["double"] == 1

    def test_infinity_accumulator_continues(self):
        # u2*Q cancels the low digits exactly; the high ones start afresh.
        u1 = (3 << 128) + 77
        q = reference_multiply(G, N - 77)
        assert double_multiply(u1, 1, q) == reference_multiply(G, 3 << 128)


class TestOtherCurves:
    def test_renamed_clone_builds_its_own_table(self):
        clone = replace(CURVE_P256, name="clone")
        g = clone.generator
        assert g is clone.generator  # memoised on the curve
        assert "_generator_table" not in vars(clone)
        for scalar in (1, 2, 16, 128, 129, 0xDEADBEEF, N - 129, N - 1, N, -3):
            expected = reference_multiply(g, scalar)
            assert g * scalar == expected
            assert expected.curve is clone
            assert (g + g) * scalar == reference_multiply(g + g, scalar)
        assert "_generator_table" in vars(clone)
        assert double_multiply(5, 7, g + g) == reference_multiply(g, 19)

    def test_general_coefficient_is_used_not_assumed(self):
        # A different curve over the same field (a = 2): doubling must read
        # ``a`` from the curve. Its group order is unknown, so ``n`` is
        # set beyond every scalar used and nothing here reduces.
        x, a = 5, 2
        while True:
            b = (1 - x * x * x - a * x) % P  # puts (x, 1) on the curve
            if (4 * a**3 + 27 * b * b) % P:
                break
            x += 1
        toy = replace(CURVE_P256, name="toy", a=a, b=b, gx=x, gy=1, n=1 << 64)
        g = toy.generator
        for scalar in (1, 2, 3, 17, 1000003, (1 << 40) + 12345):
            assert g * scalar == reference_multiply(g, scalar)
            assert (g + g) * scalar == reference_multiply(g + g, scalar)


class TestLazyState:
    def test_importing_and_using_a_variable_point_builds_no_table(self):
        clone = replace(CURVE_P256, name="lazy")
        q = ECPoint(clone, *CURVE_P256._generator_table[3][4])
        assert (q * 12345).curve is clone
        assert "_generator_table" not in vars(clone)

    def test_generator_and_public_key_are_memoised(self):
        key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"memo"))
        assert key.public_key() is key.public_key()
        assert CURVE_P256.generator is CURVE_P256.generator
        same = EcdsaPrivateKey(key.d)
        assert same == key and hash(same) == hash(key)
        assert same.public_key() == key.public_key()
        assert "d=" in repr(key) and "_public_key" not in repr(key)


    def test_deep_copy_shares_the_curve_and_so_its_table(self):
        # The fuzz harness deep-copies established connections per case;
        # copying the table with each would cost more than a handshake.
        point = copy.deepcopy(5 * G)
        assert point.curve is CURVE_P256
        assert point == 5 * G


class TestTable:
    """The fixed-base table of a fresh clone, entry by entry, with nothing
    but the affine ``+``; and what building it costs in memory."""

    def test_every_entry_by_affine_addition(self):
        clone = replace(CURVE_P256, name="table-check")
        table = clone._generator_table
        assert len(table) == N.bit_length() // 8 + 1 == 33
        base = clone.generator
        for row in table:
            assert len(row) == 128
            entry = ECPoint(clone, *row[0])
            assert entry == base
            for coordinates in row[1:]:
                entry, previous = ECPoint(clone, *coordinates), entry
                assert entry == previous + base
            base = entry + entry  # 256 times this row's base

    def test_memory_retained_and_transient(self):
        clone = replace(CURVE_P256, name="table-memory")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            clone._generator_table
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        retained, transient_peak = current - before, peak - before
        assert retained <= 1_000_000
        assert transient_peak <= 1.5 * retained

    def test_scalar_beyond_the_table_fails_closed(self):
        with pytest.raises(AssertionError, match="outlasts"):
            ec._generator_multiply(CURVE_P256, 1 << (8 * 33), 0, 1, 0)


class TestOperationCounts:
    """Exact group-operation counts per multiplication (a double-and-add
    spends 256 doublings + ~128 additions each, twice that per
    verification)."""

    @staticmethod
    def sample_scalars():
        drbg = HmacDrbg(seed=b"operation-counts")
        drawn = [1 + drbg.randint_below(N - 1) for _ in range(40)]
        return drawn + [s % N for s in EDGE_SCALARS if s % N]

    def test_fixed_base_never_doubles(self, counts):
        worst = 0
        for scalar in self.sample_scalars():
            counts["add"] = 0
            G * scalar
            worst = max(worst, counts["add"])
        assert counts["double"] == 0
        assert worst == 33

    def test_variable_point_ladder(self, counts):
        q = point_with_x_from(0xC0FFEE)
        for scalar in self.sample_scalars():
            counts["double"] = counts["add"] = 0
            q * scalar
            assert counts["double"] <= 265, scalar
            assert counts["add"] <= 80, scalar

    def test_one_verification_is_one_chain(self, counts):
        key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"count-verify"))
        public = key.public_key()
        for index in range(20):
            message = b"message %d" % index
            signature = key.sign(message)
            counts["double"] = counts["add"] = 0
            assert public.verify(message, signature)
            assert counts["double"] <= 265
            assert counts["add"] <= 113
