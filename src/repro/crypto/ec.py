"""NIST P-256 elliptic curve group arithmetic.

Pure-Python short-Weierstrass arithmetic (``y^2 = x^3 + ax + b`` over GF(p)).
This backs ECDSA audit-log signatures, ECDHE in the TLS handshake, and
certificate signatures — the same roles LibreSSL's EC code plays inside the
LibSEAL enclave.

:class:`ECPoint` offers affine ``+`` / unary ``-`` and ``*`` by an integer.
Multiplication runs in Jacobian coordinates and picks its method from the
point, never from a setting: the generator is served from a precomputed
fixed-base table (additions only), every other point by a width-5 NAF
ladder over its odd multiples, and :func:`double_multiply` folds ECDSA
verification's ``u1*G + u2*Q`` into one doubling chain with one inversion.

The generator's table is a signed 8-bit comb: ``n.bit_length() // 8 + 1``
rows (33 for P-256), row ``i`` holding the affine points ``d * 256**i * G``
for ``d = 1..128``. A scalar is recoded into base-256 digits in
``[-127, 128]`` (a byte above 128 becomes ``byte - 256`` and carries one
into the next row), and a negative digit adds the entry ``(x, p - y)``.
So ``k*G`` costs at most 33 mixed additions and no doublings. The table
is built on first use, row by row, and holds 4,224 points (about 0.8 MB).

The affine formulas are the reference the tests hold all three to. None of
this is constant-time: digits of the scalar index tables and choose
branches, and Python integers leak operand sizes anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Curve:
    """Domain parameters of a prime-field short-Weierstrass curve.

    The group is assumed to have cofactor 1: every finite point has prime
    order ``n``, so scalars reduce mod ``n`` for any point and no multiple
    ``d*P`` with ``0 < d < n`` is the point at infinity.
    """

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int  # order of the base point

    @cached_property
    def generator(self) -> "ECPoint":
        return ECPoint(self, self.gx, self.gy)

    @cached_property
    def _generator_table(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Fixed-base table, built on first use: row ``i`` holds the affine
        points ``d * 256**i * G`` for ``d = 1..128``."""
        return _build_generator_table(self)

    @property
    def coordinate_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def __deepcopy__(self, memo: dict) -> "Curve":
        # Immutable, and points compare their curves by identity: a deep
        # copy of anything holding a point keeps this curve (and its table).
        return self


CURVE_P256 = Curve(
    name="P-256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)


class ECPoint:
    """A point on a :class:`Curve`, including the point at infinity.

    Instances are immutable; arithmetic returns new points. The point at
    infinity is represented with ``x is None and y is None``.
    """

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x: int | None, y: int | None):
        self.curve = curve
        self.x = x
        self.y = y
        if x is not None and not self._on_curve():
            raise ValueError(f"point ({x}, {y}) is not on curve {curve.name}")

    @classmethod
    def infinity(cls, curve: Curve) -> "ECPoint":
        return cls(curve, None, None)

    def _on_curve(self) -> bool:
        p = self.curve.p
        lhs = self.y * self.y % p
        rhs = (self.x * self.x * self.x + self.curve.a * self.x + self.curve.b) % p
        return lhs == rhs

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ECPoint):
            return NotImplemented
        return self.curve is other.curve and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.curve.name, self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return f"ECPoint({self.curve.name}, infinity)"
        return f"ECPoint({self.curve.name}, x={self.x:#x}, y={self.y:#x})"

    def __neg__(self) -> "ECPoint":
        if self.is_infinity:
            return self
        return ECPoint(self.curve, self.x, (-self.y) % self.curve.p)

    def __add__(self, other: "ECPoint") -> "ECPoint":
        if self.curve is not other.curve:
            raise ValueError("cannot add points on different curves")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        p = self.curve.p
        if self.x == other.x:
            if (self.y + other.y) % p == 0:
                return ECPoint.infinity(self.curve)
            return self._double()
        slope = (other.y - self.y) * pow(other.x - self.x, -1, p) % p
        x3 = (slope * slope - self.x - other.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return ECPoint(self.curve, x3, y3)

    def _double(self) -> "ECPoint":
        p = self.curve.p
        slope = (3 * self.x * self.x + self.curve.a) * pow(2 * self.y, -1, p) % p
        x3 = (slope * slope - 2 * self.x) % p
        y3 = (slope * (self.x - x3) - self.y) % p
        return ECPoint(self.curve, x3, y3)

    def __mul__(self, scalar: int) -> "ECPoint":
        """Scalar multiplication (negative scalars reduce mod ``n`` too)."""
        curve = self.curve
        scalar %= curve.n
        if scalar == 0 or self.is_infinity:
            return ECPoint.infinity(curve)
        if self.x == curve.gx and self.y == curve.gy:
            jacobian = _generator_multiply(curve, scalar, 0, 1, 0)
        else:
            jacobian = _windowed_multiply(self, scalar)
        return _affine_point(curve, *jacobian)

    __rmul__ = __mul__

    def encode(self) -> bytes:
        """Uncompressed SEC1 encoding: ``04 || X || Y`` (infinity: ``00``)."""
        if self.is_infinity:
            return b"\x00"
        size = self.curve.coordinate_bytes
        return b"\x04" + self.x.to_bytes(size, "big") + self.y.to_bytes(size, "big")

    @classmethod
    def decode(cls, curve: Curve, data: bytes) -> "ECPoint":
        """Decode a point produced by :meth:`encode`, validating it on-curve."""
        if data == b"\x00":
            return cls.infinity(curve)
        size = curve.coordinate_bytes
        if len(data) != 1 + 2 * size or data[0] != 0x04:
            raise ValueError("malformed EC point encoding")
        x = int.from_bytes(data[1 : 1 + size], "big")
        y = int.from_bytes(data[1 + size :], "big")
        return cls(curve, x, y)


def double_multiply(u1: int, u2: int, point: ECPoint) -> ECPoint:
    """``u1*G + u2*point``, the combination ECDSA verification needs.

    The table entries for ``u1`` are accumulated onto the Jacobian result
    of the ``u2`` ladder, so the pair costs one doubling chain and one
    inversion instead of two of each plus an affine addition.
    """
    curve = point.curve
    x, y, z = _windowed_multiply(point, u2 % curve.n)
    return _affine_point(curve, *_generator_multiply(curve, u1 % curve.n, x, y, z))


# Jacobian coordinates (X, Y, Z) stand for x = X/Z^2, y = Y/Z^3; Z == 0
# encodes the point at infinity whatever X and Y hold.


def _jac_double(x: int, y: int, z: int, p: int, a: int) -> tuple[int, int, int]:
    # Doubling infinity, or a point with y == 0, yields Z == 0 unaided.
    # ``a`` arrives as the curve states it (-3), not reduced mod p: a
    # small multiplier is cheaper than a 256-bit one.
    zz = z * z % p
    yy = y * y % p
    s = 4 * x * yy % p
    m = (3 * (x * x) + a * (zz * zz)) % p
    nx = (m * m - 2 * s) % p
    return nx, (m * (s - nx) - 8 * (yy * yy)) % p, 2 * y * z % p


def _jac_add_affine(
    x1: int, y1: int, z1: int, x2: int, y2: int, p: int, a: int
) -> tuple[int, int, int]:
    """Mixed addition of Jacobian ``(x1, y1, z1)`` and affine ``(x2, y2)``.

    Complete: accumulating table entries onto an unrelated multiple can
    meet an equal point (doubling) or an opposite one (infinity).
    """
    if z1 == 0:
        return x2, y2, 1
    zz = z1 * z1 % p
    h = (x2 * zz - x1) % p
    r = (y2 * zz % p * z1 - y1) % p
    if h == 0:
        if r == 0:
            return _jac_double(x2, y2, 1, p, a)
        return 0, 1, 0
    hh = h * h % p
    hhh = hh * h % p
    v = x1 * hh % p
    nx = (r * r - hhh - 2 * v) % p
    return nx, (r * (v - nx) - y1 * hhh) % p, z1 * h % p


def _batch_to_affine(
    points: list[tuple[int, int, int]], p: int
) -> list[tuple[int, int]]:
    """Affine ``(x, y)`` of every Jacobian point for one modular inversion
    between them (Montgomery's trick). A point at infinity among them
    makes the product non-invertible and raises ``ValueError``."""
    prefix = []
    product = 1
    for _, _, z in points:
        prefix.append(product)
        product = product * z % p
    inverse = pow(product, -1, p)
    affine = []
    for (x, y, z), before in zip(reversed(points), reversed(prefix)):
        z_inv = inverse * before % p
        inverse = inverse * z % p
        zz = z_inv * z_inv % p
        affine.append((x * zz % p, y * zz % p * z_inv % p))
    affine.reverse()
    return affine


def _affine_point(curve: Curve, x: int, y: int, z: int) -> ECPoint:
    if z == 0:
        return ECPoint.infinity(curve)
    return ECPoint(curve, *_batch_to_affine([(x, y, z)], curve.p)[0])


def _build_generator_table(curve: Curve) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Row by row, one inversion each: the Jacobian points of a row (and
    # 256 times its base, the next row's base) are transient, so the
    # build never holds much more than the finished table.
    p, a = curve.p, curve.a
    rows = []
    base_x, base_y = curve.gx, curve.gy
    for _ in range(curve.n.bit_length() // 8 + 1):
        x, y, z = 0, 1, 0
        jacobian = []
        for _ in range(128):
            x, y, z = _jac_add_affine(x, y, z, base_x, base_y, p, a)
            jacobian.append((x, y, z))
        jacobian.append(_jac_double(x, y, z, p, a))
        *row, (base_x, base_y) = _batch_to_affine(jacobian, p)
        rows.append(tuple(row))
    return tuple(rows)


def _generator_multiply(
    curve: Curve, scalar: int, x: int, y: int, z: int
) -> tuple[int, int, int]:
    """``(x, y, z) + scalar*G`` for ``0 <= scalar < n``: one table entry
    per non-zero signed base-256 digit of the scalar, no doublings. A
    digit above 128 is taken as ``digit - 256`` (the entry negated) and
    carries one into the next row."""
    p, a = curve.p, curve.a
    for row in curve._generator_table:
        digit = scalar & 255
        scalar >>= 8
        if digit > 128:
            scalar += 1
            tx, ty = row[255 - digit]
            x, y, z = _jac_add_affine(x, y, z, tx, p - ty, p, a)
        elif digit:
            tx, ty = row[digit - 1]
            x, y, z = _jac_add_affine(x, y, z, tx, ty, p, a)
    if scalar:
        raise AssertionError("scalar outlasts the fixed-base table")
    return x, y, z


def _windowed_multiply(point: ECPoint, scalar: int) -> tuple[int, int, int]:
    """``scalar*point`` in Jacobian coordinates for ``0 <= scalar < n``:
    left-to-right over the scalar's width-5 NAF, adding one of the
    point's affine odd multiples ``±1, ±3, .., ±15`` per non-zero digit
    (about one position in six)."""
    if scalar == 0 or point.is_infinity:
        return 0, 1, 0
    curve = point.curve
    p, a = curve.p, curve.a

    twice = point._double()
    multiples = [(point.x, point.y, 1)]
    for _ in range(7):
        multiples.append(_jac_add_affine(*multiples[-1], twice.x, twice.y, p, a))
    table: dict[int, tuple[int, int]] = {}
    for index, (mx, my) in enumerate(_batch_to_affine(multiples, p)):
        table[2 * index + 1] = (mx, my)
        table[-2 * index - 1] = (mx, p - my)

    # (digit, zero positions below it), least significant digit first.
    naf = []
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        digit = scalar & 31
        if digit > 16:
            digit -= 32
        naf.append((digit, zeros))
        scalar -= digit

    x, y, z = 0, 1, 0
    for digit, zeros in reversed(naf):
        tx, ty = table[digit]
        x, y, z = _jac_add_affine(x, y, z, tx, ty, p, a)
        for _ in range(zeros):
            x, y, z = _jac_double(x, y, z, p, a)
    return x, y, z
