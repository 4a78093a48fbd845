"""Signed-permutation Weyl combinatorics for the rank-n similitude groups.

The relevant Weyl group is the hyperoctahedral group S_n x {+-1}^n.  An
element is stored as its window (w(1), ..., w(n)), a signed bijection of
{1..n} extended to negative letters by w(-j) = -w(j); its permutation and
sign vector, indexed by source position, are read off the window.

The length of an element is the number of positive restricted roots it
sends to negative ones.  The positive roots are e_i - e_j and
e_i + e_j - e_0 for i < j, and 2e_i - e_0, where e_0 is the similitude
coordinate.  A sign flip at slot i acts as e_i -> e_0 - e_i and e_0 is
otherwise inert, so the simple roots e_i - e_{i+1} and 2e_n - e_0 behave
exactly as in type C_n, and ``length`` counts those roots as inversions of
the window (Bjorner-Brenti, GTM 231, section 8.1).

``p_rep`` / ``q_rep`` build the closed-form minimal double-coset
representatives.  ``GeomParams.block_sizes`` cuts 1..n into five source
blocks of sizes (k, i2-d-k, d, i1-d-k, n-i1-i2+d+k); ``p_rep`` sends them,
each as one contiguous run, to the target order 1, 4, 3, 2, 5, reversing
the third (of size d), and ``q_rep`` also flips the signs of that third
block.  ``brute_force_coset_reps`` is the independent exhaustive oracle
they are checked against.  The oracle takes every element's length once
and walks each double coset W_I g W_J once, from its first element g in
(length, window) order, as the closure of g under left multiplication by
the simple reflections of I and right multiplication by those of J.
This layer imports ``errors`` and ``scalars`` alone: ``GroupMode``, which
``levi_action`` reads, sits in ``scalars``.
"""

from __future__ import annotations

import itertools

from .errors import (
    BruteForceBoundError,
    InvalidParamsError,
    JacquetError,
    LeviActionError,
    NonBijectionError,
    _checked,
)
from .scalars import GroupMode, Keyed

__all__ = [
    "SignedPermutation",
    "GeomParams",
    "LeviBlock",
    "p_rep",
    "q_rep",
    "enumerate_geom_params",
    "brute_force_coset_reps",
    "levi_action",
]


class SignedPermutation(Keyed):
    """An element of S_n x {+-1}^n, stored as its window (also its key)."""

    __slots__ = ("window", "key")

    def __init__(self, perm, signs=None):
        perm = _checked("a SignedPermutation", int, perm)
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise InvalidParamsError(f"not a bijection of 1..{n}: {perm}")
        signs = (1,) * n if signs is None else _checked("a SignedPermutation", int, signs)
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise InvalidParamsError(f"invalid sign vector {signs}")
        window = tuple(s * p for s, p in zip(signs, perm))
        self._fill(window, window)

    @classmethod
    def _trusted(cls, window: tuple) -> "SignedPermutation":
        """Wrap a window known to be a signed bijection, unchecked."""
        w = object.__new__(cls)
        set_window, set_key = cls._setters
        set_window(w, window)
        set_key(w, window)
        return w

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        _checked("identity", int, (n,))
        if n < 0:
            raise InvalidParamsError(f"identity needs a rank n >= 0, got {n}")
        return cls._trusted(tuple(range(1, n + 1)))

    @classmethod
    def from_window(cls, window) -> "SignedPermutation":
        window = _checked("from_window", int, window)
        return cls([abs(v) for v in window], [1 if v > 0 else -1 for v in window])

    @property
    def perm(self) -> tuple:
        return tuple(abs(v) for v in self.window)

    @property
    def signs(self) -> tuple:
        return tuple(1 if v > 0 else -1 for v in self.window)

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, j: int) -> int:
        """Image of a signed letter in +-1..+-n; w(-j) = -w(j)."""
        _checked("SignedPermutation", int, (j,))
        if not 0 < abs(j) <= len(self.window):
            raise InvalidParamsError(f"no letter {j} in rank {self.n}")
        return self.window[j - 1] if j > 0 else -self.window[-j - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition: (self * other)(j) = self(other(j))."""
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if other.n != self.n:
            raise InvalidParamsError(f"cannot compose ranks {self.n} and {other.n}")
        w = self.window
        return SignedPermutation._trusted(
            tuple(w[v - 1] if v > 0 else -w[-v - 1] for v in other.window))

    def inverse(self) -> "SignedPermutation":
        out = [0] * self.n
        for j, v in enumerate(self.window, start=1):
            out[abs(v) - 1] = j if v > 0 else -j
        return SignedPermutation._trusted(tuple(out))

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    def cycles(self) -> str:
        """Cycle form of the underlying unsigned permutation; 'id' if trivial."""
        perm = self.perm
        seen = [False] * self.n
        parts = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = perm[start - 1]
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = perm[j - 1]
            if len(cyc) > 1:
                parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) if parts else "id"

    def __repr__(self):
        return f"SignedPermutation[{' '.join(map(str, self.window))}]"


def length(w: SignedPermutation) -> int:
    """Number of positive restricted roots sent to negative ones, counted on
    the window.  With 1-based slots, a negative letter w(i) adds n - i + 1,
    and a pair i < j adds 1 when w(i) > 0 and |w(i)| > |w(j)|, or when
    w(i) < 0 and |w(i)| < |w(j)|."""
    total = 0
    for i, v in enumerate(w.window):
        later = [abs(u) for u in w.window[i + 1:]]
        if v > 0:
            total += sum(v > u for u in later)
        else:
            total += 1 + len(later) + sum(-v < u for u in later)
    return total


def simple_reflection(n: int, i: int) -> SignedPermutation:
    """s_i swaps slots i, i+1 for i < n; s_n flips the sign at slot n.
    An ``n`` or ``i`` that is not an int raises ``KindMismatchError``."""
    _checked("simple_reflection", int, (n, i))
    if not 1 <= i <= n:
        raise InvalidParamsError(f"no simple reflection {i} in rank {n}")
    window = list(range(1, n + 1))
    if i < n:
        window[i - 1], window[i] = i + 1, i
    else:
        window[-1] = -n
    return SignedPermutation._trusted(tuple(window))


def all_elements(n: int):
    """Iterate the full group, 2^n n! elements."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation._trusted(tuple(s * p for s, p in zip(signs, perm)))


class GeomParams(Keyed):
    """Admissible (d, k) for a pair of maximal parabolic indices (i1, i2).
    A parameter that is not an int, or out of range, raises
    ``InvalidParamsError``."""

    __slots__ = ("n", "i1", "i2", "d", "k", "key")

    def __init__(self, n: int, i1: int, i2: int, d: int, k: int):
        self._fill(n, i1, i2, d, k, (n, i1, i2, d, k))
        _check_indices(n, i1, i2)
        if type(d) is not int or type(k) is not int or k not in _k_range(n, i1, i2, d):
            raise InvalidParamsError(f"(d, k) out of range in {self}")

    @property
    def block_sizes(self) -> tuple:
        """Sizes (k, i2-d-k, d, i1-d-k, n-i1-i2+d+k) of the source blocks."""
        n, i1, i2, d, k = self.n, self.i1, self.i2, self.d, self.k
        return (k, i2 - d - k, d, i1 - d - k, n - i1 - i2 + d + k)

    def __repr__(self):
        return "GeomParams(n={!r}, i1={!r}, i2={!r}, d={!r}, k={!r})".format(*self.key)


def p_rep(params: GeomParams) -> SignedPermutation:
    """The permutation that moves the five source blocks of ``block_sizes``
    into the target order 1, 4, 3, 2, 5, reversing block 3.

    The five runs must assemble a bijection; if they ever do not, the
    offending parameters are reported instead of being silently repaired.
    """
    _checked("p_rep", GeomParams, (params,))
    k, above, d, below, rest = params.block_sizes
    i1 = k + below + d
    img = [*range(1, k + 1), *range(i1 + 1, i1 + above + 1), *range(i1, i1 - d, -1),
           *range(k + 1, k + below + 1), *range(i1 + above + 1, i1 + above + rest + 1)]
    if sorted(img) != list(range(1, params.n + 1)):
        raise NonBijectionError(
            f"piecewise branches do not assemble a bijection for {params}: {img}"
        )
    return SignedPermutation._trusted(tuple(img))


def q_rep(params: GeomParams) -> SignedPermutation:
    """p_rep with sign vector (+1^(i2-d), -1^d, +1^(n-i2))."""
    window, i2, d = p_rep(params).window, params.i2, params.d
    flipped = tuple(-v for v in window[i2 - d:i2])
    return SignedPermutation._trusted(window[:i2 - d] + flipped + window[i2:])


def _check_indices(n: int, i1: int, i2: int) -> None:
    if not all(type(x) is int for x in (n, i1, i2)):
        raise InvalidParamsError(f"n, i1 and i2 must be ints, got n={n!r}, i1={i1!r}, "
                                 f"i2={i2!r}")
    if not (1 <= i1 <= n and 1 <= i2 <= n):
        raise InvalidParamsError(f"need 1 <= i1, i2 <= n, got n={n}, i1={i1}, i2={i2}")


def _k_range(n: int, i1: int, i2: int, d: int) -> range:
    """The admissible k for d: empty exactly when d is not in 0..min(i1, i2)."""
    return range(max(0, (i1 + i2 - n) - d), min(i1, i2) - d + 1) if d >= 0 else range(0)


def enumerate_geom_params(n: int, i1: int, i2: int) -> list:
    """All admissible (d, k) in lexicographic order; never empty."""
    _check_indices(n, i1, i2)
    return [GeomParams(n, i1, i2, d, k)
            for d in range(min(i1, i2) + 1) for k in _k_range(n, i1, i2, d)]


# The largest rank searched: the group has 2^n n! elements, 384 at rank 4.
_BRUTE_FORCE_MAX_N = 4


def brute_force_coset_reps(n: int, i1: int, i2: int) -> frozenset:
    """Minimal-length double-coset representatives, by exhaustive search.

    The left parabolic omits the i1-th simple reflection, the right one the
    i2-th.  Raises if the minimum within some coset is not unique, which
    would falsify minimality of the returned representatives.
    """
    _check_indices(n, i1, i2)
    if n > _BRUTE_FORCE_MAX_N:
        raise BruteForceBoundError(
            f"exhaustive search over rank {n} exceeds the bound {_BRUTE_FORCE_MAX_N}"
        )
    left = [simple_reflection(n, i) for i in range(1, n + 1) if i != i1]
    right = [simple_reflection(n, i) for i in range(1, n + 1) if i != i2]
    lengths = {w: length(w) for w in all_elements(n)}
    seen, reps = set(), []
    for g in sorted(lengths, key=lambda w: (lengths[w], w.window)):
        if g in seen:
            continue
        # Nothing before g in this order lies in its coset: g is the minimum.
        coset, frontier = {g}, [g]
        while frontier:
            h = frontier.pop()
            new = {s * h for s in left} | {h * s for s in right}
            frontier += new - coset
            coset |= new
        seen |= coset
        if sum(1 for w in coset if lengths[w] == lengths[g]) > 1:
            raise BruteForceBoundError(
                f"non-unique minimal length in a double coset at n={n}, "
                f"i1={i1}, i2={i2}"
            )
        reps.append(g)
    return frozenset(reps)


class LeviBlock(Keyed):
    """One GL block of a Levi tuple, with dual/twist marks."""

    __slots__ = ("label", "size", "dual", "twisted", "key")

    def __init__(self, label: str, size: int, dual: bool = False, twisted: bool = False):
        self._fill(label, size, dual, twisted, (label, size, dual, twisted))

    def flipped(self, with_twist: bool) -> "LeviBlock":
        return LeviBlock(
            self.label,
            self.size,
            not self.dual,
            (not self.twisted) if with_twist else self.twisted,
        )

    def __str__(self):
        marks = ""
        if self.dual:
            marks += "^"
        if self.twisted:
            marks += "*"
        return f"{self.label}{marks}"


def levi_action(w: SignedPermutation, blocks,
                mode: "GroupMode | str" = GroupMode.GU):
    """Conjugate a block tuple by ``w``.

    ``blocks`` are the GL blocks in source order; the anchor occupies the
    trailing slots and must be fixed pointwise.  Each block must map to a
    contiguous run of slots with a uniform sign: ascending for sign +,
    descending (the transpose reversal) for sign -, which toggles the dual
    mark and, in GU mode, the twist mark (U mode never marks a twist).
    ``mode`` is a ``GroupMode`` or its value ``"GU"``/``"U"``.
    Returns the blocks in target order.
    """
    _checked("levi_action", SignedPermutation, (w,))
    try:
        gu_twist = GroupMode(mode) is GroupMode.GU
    except JacquetError as exc:
        raise LeviActionError(str(exc)) from None
    blocks = _checked("levi_action", LeviBlock, blocks)
    if any(b.size < 1 for b in blocks):
        raise LeviActionError("GL blocks must have positive size")
    m = sum(b.size for b in blocks)
    if m > w.n:
        raise LeviActionError(f"blocks of total size {m} do not fit in rank {w.n}")
    for j, v in enumerate(w.window[m:], start=m + 1):
        if v != j:
            raise LeviActionError(f"anchor slot {j} is not fixed by {w!r}")
    placed = []
    pos = 0
    for block in blocks:
        imgs = w.window[pos:pos + block.size]
        pos += block.size
        negative = imgs[0] < 0
        if any((v < 0) != negative for v in imgs):
            raise LeviActionError(f"block {block.label!r} maps with mixed signs")
        vals = [-v for v in imgs] if negative else list(imgs)
        step = -1 if negative else 1
        expected = list(range(vals[0], vals[0] + step * len(vals), step))
        if vals != expected:
            raise LeviActionError(
                f"block {block.label!r} does not map to a contiguous run"
            )
        start = min(vals)
        placed.append((start, block.flipped(gu_twist) if negative else block))
    placed.sort(key=lambda t: t[0])
    return tuple(b for _, b in placed)
