"""Shortest round-trip float text for a whole array at once.

`join_reprs(values)` is ",".join(map(repr, values.tolist())) for a float64
array, worked out in numpy instead of one `float.__repr__` call per
value. `repr` prints the shortest decimal that reads back as the same
double, nearest to it where several are that short (Steele & White 1990).
For each |x| in [1e-4, 1e16), the range `repr` prints positionally, that is
normal and not a power of two:

1. The exact value of |x|·10^(16−e), e = floor(log10 |x|), a number in
   [1e16, 1e17), is the error-free product h + l (Dekker's TwoProduct with
   Veltkamp's split; 10^k is a double for k <= 22). h is an integer, so
   N = h + rint(l) is the value rounded to 17 digits, r = l − rint(l) its
   residual.
2. N is rounded in int64 to each shorter length n; r breaks exact halves,
   half to even.
3. A candidate D below 2^53 round-trips if one IEEE multiply or divide by an
   exact 10^|p| gives |x| back: both operands are exact, so that one
   operation rounds the decimal D·10^p correctly (Clinger 1990). A 16-digit
   candidate of 2^53 or more always round-trips: then |x| >= 2^53·10^(e−15),
   so ulp(x) exceeds 10^(e−15), the 16-digit decimals' spacing.
4. |x| is not a power of two, so its rounding interval is symmetric: if any
   n-digit decimal reads back as |x|, the nearest one does, and then so does
   the nearest one of every greater length. The text is the nearest
   candidate of the shortest length that round-trips; 17 digits always do.
   No candidate that rounds up to 10^n round-trips, because the least
   double >= 10^k is the double nearest 10^k for every k in -4..16.
5. The digits are written four at a time from a table, every text is placed
   in a fixed-width row with its decimal point in one column, and the rows'
   used bytes are read out in order.

Every other value goes through `repr` one at a time: zero, a subnormal, a
value that `repr` prints with an exponent, a power of two, inf and NaN.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_POW10 = np.array([float(10**k) for k in range(23)])  # each exact
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles


def _halves(v):
    """v = hi + lo, each half of at most 26 significant bits."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _least_at_least(k: int) -> float:
    """The least double >= 10^k."""
    lo = float(Fraction(10) ** k)
    return lo if Fraction(lo) >= Fraction(10) ** k else float(np.nextafter(lo, np.inf))


# A positional |x| has floor(log10 |x|) = slot - 5, where slot, 1..20, counts
# the bounds <= |x|; each bound is the least double >= 10^k, k = -4..16.
_BOUNDS = np.array([_least_at_least(k) for k in range(-4, 17)] + [np.inf])
# A binade [2^j, 2^(j+1)) holds at most one bound: the slot is the count of
# bounds <= 2^j, by biased exponent, plus one if |x| reaches the next. The
# last exponent, inf's and NaN's, takes slot 21 or 22.
with np.errstate(over="ignore"):
    _BINADE_SLOT = np.minimum(
        np.searchsorted(_BOUNDS, np.ldexp(1.0, np.arange(2048) - 1023), side="right"), 21
    ).astype(np.intp)
_MANTISSA = np.uint64((1 << 52) - 1)
_TWO_53 = 1 << 53
# The ASCII of "0000" to "9999", four bytes each in memory order, then the
# same with trailing zeros as NUL bytes, which the text drops.
_QUADS = np.frombuffer(
    "".join(f"{i:04d}" for i in range(10000)).encode("ascii")
    + "".join(f"{i:04d}".rstrip("0").ljust(4, "\0") for i in range(10000)).encode("ascii"),
    np.uint32,
)
_TRAILING = 10000  # offset of the second half of _QUADS
_DIGITS_AT = 7  # first digit's column in the 24-byte digit rows


def _shortest(ax: np.ndarray):
    """For the values of ax (each |x|) that take the fast path: their indices,
    their shortest round-trip digits left-aligned at 17 digits (zeros after
    the last one), their digit counts and their decimal-point positions
    (decpt: the value is 0.d1d2... * 10^decpt)."""
    bits = ax.view(np.uint64)
    slot = _BINADE_SLOT[bits >> np.uint64(52)]
    slot += ax >= _BOUNDS[slot]
    idx = np.flatnonzero((slot >= 1) & (slot <= 20) & ((bits & _MANTISSA) != 0))
    a = ax[idx]
    decpt = slot[idx] - 4
    k = 17 - decpt  # 16 - floor(log10 |x|), in 1..20
    h = a * _POW10[k]
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    l = ((a_hi * b_hi - h) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = np.rint(l)
    exact = h.astype(np.int64) + whole.astype(np.int64)  # |x|·10^k to 17 digits
    residual = l - whole  # in [-0.5, 0.5]
    # Rounded half up, `nudged` rounds the exact value to nearest: a half of
    # `exact` whose residual is negative is below the half. An exact tie
    # goes up, and the loop sends it to even.
    nudged = exact - (residual < 0)
    on_half = bool(np.any(residual == 0))
    digits = exact.copy()
    length = np.full(idx.size, 17)
    # The values whose every candidate so far round-trips: where they are,
    # their nudged digits, |x|, and the place of a 16-digit last digit.
    pos, full, target, places = np.arange(idx.size), nudged, a, 16 - decpt
    top = int(np.max(decpt, initial=0))
    for n in range(16, 0, -1):
        scale = 10 ** (17 - n)
        half = scale // 2
        cand = (full + half) // scale
        if on_half:  # an exact tie went up: to even
            tie = np.flatnonzero(((cand & 1) == 1) & (cand * scale - full == half))
            cand[tie] -= residual[pos[tie]] == 0
        f = cand.astype(np.float64)
        back = f / _POW10[np.maximum(places, 0)]
        if n < top:  # the last digit's place is 10^-places, places < 0 for some
            big = np.flatnonzero(places < 0)
            back[big] = f[big] * _POW10[-places[big]]
        ok = back == target
        if n == 16:
            ok |= cand >= _TWO_53  # these always round-trip (step 3 above)
        keep = np.flatnonzero(ok)
        if keep.size == 0:
            break
        pos, full, target, places = pos[keep], full[keep], target[keep], places[keep] - 1
        digits[pos] = cand[keep] * scale
        length[pos] = n
    return idx, digits, length, decpt


def join_reprs(values: np.ndarray) -> str:
    """",".join(map(repr, values.tolist())) for a float64 array, read in C
    order."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    idx, digits, length, decpt = _shortest(np.abs(x))
    n = idx.size
    # Rows of 24 bytes: seven '0's, then the digits, the zeros after the
    # last one as NULs (repr's digits never end in 0).
    hi = (digits // 10**8).astype(np.int32)
    lo = (digits - hi.astype(np.int64) * 10**8).astype(np.int32)
    hi -= (hi // 10**8) * 10**8
    quads = [hi // 10000, hi % 10000, lo // 10000, lo % 10000]
    zero_after = True
    for col in (3, 2, 1, 0):
        q = quads[col]
        quads[col] = q + _TRAILING * zero_after
        zero_after = zero_after & (q == 0)
    rows = np.empty((n, 6), dtype=np.uint32)
    rows[:, 0] = _QUADS[0]
    rows[:, 1] = _QUADS[digits // 10**16]
    for col, q in enumerate(quads, 2):
        rows[:, col] = _QUADS[q]
    rows = rows.view(np.uint8)
    # Each text is [-]int.frac: int is max(decpt, 1) digits ("0" below 1),
    # frac max(length - decpt, 1) digits. Every row holds its text with the
    # point in one column, and NULs elsewhere.
    neg = np.signbit(x[idx])
    int_w = np.maximum(decpt, 1)
    frac_w = np.maximum(length - decpt, 1)
    dot = int(np.max(int_w + neg, initial=0))
    width = dot + int(np.max(frac_w, initial=0)) + 2
    out = np.zeros((n, width), dtype=np.uint8)
    counts = np.bincount(decpt + 3)
    common = int(np.argmax(counts)) - 3 if n else 0
    for d in [common] + [d for d in (np.flatnonzero(counts) - 3).tolist() if d != common]:
        at, w = _DIGITS_AT + d, max(d, 1)
        frac = min(24 - at, width - dot - 1)
        if d == common:  # written to every row, by slices; the others then mend theirs
            group, block = slice(None), out
        else:
            group = np.flatnonzero(decpt == d)
            block = np.zeros((group.size, width), dtype=np.uint8)
        block[:, dot - w:dot] = rows[group, at - w:at]
        block[:, dot + 1:dot + 1 + frac] = rows[group, at:at + frac]
        if block is not out:
            out[group] = block
    out[:, dot] = ord(".")
    whole = np.flatnonzero(length <= decpt)  # an integer: its zeros, and ".0"
    if whole.size:
        block = out[whole]
        cols = np.arange(width)
        pad = (cols >= dot - decpt[whole, None] + length[whole, None]) & (cols <= dot + 1)
        block[pad & (block == 0)] = ord("0")
        out[whole] = block
    flat = out.reshape(-1)
    row_at = np.arange(0, n * width, width)
    flat[row_at + (dot + 1 + frac_w)] = ord(",")
    start = dot - int_w - neg
    flat[(row_at + start)[neg]] = ord("-")
    text = out[out != 0].tobytes()
    if n < x.size:  # splice the others' repr in, in order
        widths = np.zeros(x.size, dtype=np.int64)
        widths[idx] = dot + 2 + frac_w - start
        ends = np.cumsum(widths)
        pieces, pos = [], 0
        for i in np.flatnonzero(widths == 0).tolist():
            end = int(ends[i])
            pieces += [text[pos:end], repr(float(x[i])).encode("ascii"), b","]
            pos = end
        pieces.append(text[pos:])
        text = b"".join(pieces)
    return text[:-1].decode("ascii")
