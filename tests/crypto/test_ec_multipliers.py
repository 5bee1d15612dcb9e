"""The three scalar multipliers against a ladder over the affine ``+``.

``ECPoint.__mul__`` serves the generator from a fixed-base table and every
other point from a width-5 NAF ladder; ``double_multiply`` folds
``u1*G + u2*Q`` into one chain. All three run in Jacobian coordinates with
mixed additions. The reference here uses nothing but the retained affine
``__add__`` (one inversion per step, no tables, no recoding), so it shares
no arithmetic with what it checks. Tier-1 runs a bounded number of
examples; the nightly raises ``REPRO_EC_EXAMPLES``.

The last section pins the *work* each multiplier does as exact counts of
point doublings and additions — the claim of the change, with no clock.
"""

import copy
import os
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


def table_entry(window: int, digit: int) -> ECPoint:
    return ECPoint(CURVE_P256, *CURVE_P256._generator_table[window][digit - 1])


EDGE_SCALARS = [
    0, 1, 2, 15, 16, 17, 31, 32, 33, N - 2, N - 1, N, N + 1, 2 * N - 1,
    (1 << 256) - 1,                       # every 4-bit digit 0xF (and >= n)
    (1 << 252) - 1,                       # every digit 0xF below n
    int("f0" * 32, 16), int("0f" * 32, 16),  # alternating digits
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
    st.sampled_from([G, -G, INFINITY, G + G, table_entry(0, 15), table_entry(63, 1)]),
    st.builds(
        table_entry, st.integers(min_value=0, max_value=63), st.integers(min_value=1, max_value=15)
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
    point or its negative; count the doubling helper to show the branch
    was really taken (with ``u2 = 1`` the ladder itself never doubles)."""

    @pytest.mark.parametrize("window,digit", [(0, 1), (0, 15), (17, 6), (63, 15)])
    def test_equal_point_takes_the_doubling_branch(self, counts, window, digit):
        entry = table_entry(window, digit)
        scalar = digit << (4 * window)
        assert double_multiply(scalar, 1, entry) == entry + entry
        assert counts["double"] == 1

    @pytest.mark.parametrize("window,digit", [(0, 1), (0, 15), (17, 6), (63, 15)])
    def test_opposite_point_gives_infinity(self, counts, window, digit):
        entry = table_entry(window, digit)
        scalar = digit << (4 * window)
        assert double_multiply(scalar, 1, -entry).is_infinity
        assert counts["double"] == 0
        assert double_multiply(scalar, N - 1, entry).is_infinity

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
        for scalar in (1, 2, 16, 0xDEADBEEF, N - 1, N, -3):
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


class TestOperationCounts:
    """Exact group-operation counts per multiplication (the parent: 256
    doublings + ~128 additions each, twice that per verification)."""

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
        assert 60 <= worst <= 64

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
            assert counts["add"] <= 145
