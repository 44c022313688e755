"""Vertex sets of the binary n-cube and exact subcube counting.

A vertex of the n-cube is an integer in [0, 2^n - 1]; bit r of the integer
is coordinate x_r, so x = (x_{n-1}, ..., x_1, x_0). A vertex set is stored
canonically as an indicator bitstring over all 2^n positions (one Python
integer), which makes equality canonical and lets the bit-parallel kernel
work on whole sets at once. Walking the members, building a set from
them, and reading or writing a vertex file each take time linear in 2^n:
members are read off the indicator's binary digits in one pass, or marked
in a 2^n-byte array that becomes the indicator once at the end, so no
step shifts the whole integer once per member.

The per-member work runs in C-level builtins. The member walk is
``itertools.compress`` over the digits as 0/1 bytes. Vertex files are
written and read ``_CHUNK`` lines at a time, so at most one chunk of
lines is held. A chunk is rendered with ``map(str, ...)`` and written
with one join. A chunk being read is checked whole with string and set
builtins, and only a chunk that passes is marked. Any other chunk goes
through the line-by-line parser, which names the first bad line.

Two interchangeable counting kernels are provided:

* ``count_subcubes_naive`` enumerates every candidate subcube and tests
  each one with a single mask, the indicator shifted down to the
  candidate's lowest vertex against the cube of its free coordinates --
  the ground-truth path. It shares no code with the other kernel.
* ``count_subcubes_bitparallel`` first peels the top coordinate while one
  half of the set is empty or full, through the three-term identity
  m_q(S) = m_q(L) + m_q(H) + m_{q-1}(L & H) with a closed form for the
  full half; an initial segment peels to the end and folds nothing.
  What is left is counted by one depth-first walk over the
  free-coordinate sets, folding the indicator once per added coordinate
  and pruning a branch as soon as its fold is empty; a bit surviving j
  folds certifies a whole j-subcube, and each node adds its popcount
  times the peel's coefficient for its depth. Each fold keeps the
  positions whose added coordinate is 0, through that coordinate's
  zero-side mask; the masks are cached per (n, r), and ``split`` reads
  the same cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, islice, repeat
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator

__all__ = [
    "DegenerateSplit",
    "VertexFormatError",
    "VertexSet",
    "DecompositionReport",
    "initial_segment",
    "split",
    "count_subcubes_naive",
    "count_subcubes_bitparallel",
    "three_term_report",
    "parse_vertex_set",
    "load_vertex_set",
    "render_vertex_lines",
    "save_vertex_set",
]

# Largest accepted cube dimension. A set is a 2^n-bit indicator, built
# through a 2^n-byte mark array, so one set at n = 20 is built in 1 MiB.
_MAX_DIM = 20

# The vertex-file formats; see parse_vertex_set.
_FORMATS = ("decimal", "binary")


class DegenerateSplit(ValueError):
    """Raised when a decomposition needs both sides of a split non-empty."""


class VertexFormatError(ValueError):
    """Raised for malformed, duplicate, or out-of-range vertices in a file."""


# bytes.translate tables between a 0/1 mark array and the ASCII digits "0"/"1".
_MARK_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_MARKS = bytes.maketrans(b"01", b"\x00\x01")

# Lines parsed or written per step of a vertex file: bounds what is held at
# once while the per-line work runs in C-level builtins.
_CHUNK = 1024


def _indicator(marks: bytearray) -> int:
    """The indicator integer of a 0/1 mark array (marks[v] is bit v)."""
    return int(marks[::-1].translate(_MARK_DIGITS), 2)


def _check_dim(dim: int) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise TypeError(f"dim must be an int, got {type(dim).__name__}")
    if dim < 1 or dim > _MAX_DIM:
        raise ValueError(f"dim must be in [1, {_MAX_DIM}], got {dim}")


class VertexSet:
    """An immutable subset of the n-cube's vertices.

    Stores dimension and the indicator bitstring (bit v set iff vertex v is
    a member); the size is its popcount. Treated as immutable after
    construction; all operations on it are pure, so unrestricted concurrent
    reads are safe.
    """

    __slots__ = ("dim", "_bits")

    def __init__(self, dim: int, members: Iterable[int] = ()):
        _check_dim(dim)
        limit = 1 << dim
        marks = bytearray(limit)
        for v in members:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"vertex must be an int, got {v!r}")
            if v < 0 or v >= limit:
                raise ValueError(f"vertex {v} outside [0, {limit - 1}] for dim {dim}")
            marks[v] = 1
        self.dim = dim
        self._bits = _indicator(marks)

    @classmethod
    def from_bits(cls, dim: int, bits: int) -> "VertexSet":
        """Build directly from an indicator bitstring."""
        _check_dim(dim)
        if not isinstance(bits, int) or isinstance(bits, bool):
            raise TypeError(f"indicator must be an int, got {type(bits).__name__}")
        if bits < 0 or bits.bit_length() > (1 << dim):
            raise ValueError(f"indicator does not fit in 2^{dim} positions")
        self = cls.__new__(cls)
        self.dim = dim
        self._bits = bits
        return self

    @property
    def bits(self) -> int:
        """The indicator bitstring (bit v set iff v is a member)."""
        return self._bits

    def __contains__(self, v: object) -> bool:
        if not isinstance(v, int) or isinstance(v, bool):
            return False
        if v < 0 or v >= (1 << self.dim):
            return False
        return bool((self._bits >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        # The indicator's binary digits, lowest bit first, as 0/1 bytes:
        # position v is 1 exactly when v is a member, and compress walks
        # them at C speed, linear in 2^n whatever |S| is.
        digits = bin(self._bits)[:1:-1].encode("ascii").translate(_DIGIT_MARKS)
        return compress(range(len(digits)), digits)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.dim == other.dim and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.dim, self._bits))

    def __repr__(self) -> str:
        shown = list(islice(self, 13))
        body = ",".join(map(str, shown[:12]))
        if len(shown) > 12:
            body += ",..."
        return f"VertexSet(dim={self.dim}, {{{body}}})"


@dataclass(frozen=True)
class DecompositionReport:
    """Three-term decomposition of a subcube count along one dimension.

    ``b`` is the bit value of the light (smaller) side; the bound is
    m_q(heavy) + m_q(light) + m_{q-1}(light) and ``exact`` records whether
    the total meets it with equality.
    """

    r: int
    b: int
    mq_total: int
    mq_heavy: int
    mq_light: int
    mq1_light: int
    bound: int
    exact: bool


def _check_k(k: int, n: int) -> None:
    if k < 1 or k > (1 << n):
        raise ValueError(f"k must be in [1, 2^{n}], got {k}")


def initial_segment(k: int, n: int) -> VertexSet:
    """The vertex set {0, 1, ..., k-1} inside the n-cube."""
    _check_dim(n)
    _check_k(k, n)
    return VertexSet.from_bits(n, (1 << k) - 1)


@lru_cache(maxsize=256)
def _coord_zero_mask(n: int, r: int) -> int:
    # Indicator over [0, 2^n) of the positions whose bit r is 0: blocks of
    # 2^r ones alternating with 2^r zeros, from the bottom, built by doubling.
    block = (1 << (1 << r)) - 1
    width = 1 << (r + 1)
    while width < (1 << n):
        block |= block << width
        width <<= 1
    return block


def split(S: VertexSet, r: int) -> tuple[VertexSet, VertexSet]:
    """Partition S into (S(r,0), S(r,1)) by the value of coordinate r."""
    if r < 0 or r >= S.dim:
        raise ValueError(f"coordinate r must be in [0, {S.dim - 1}], got {r}")
    side0 = S._bits & _coord_zero_mask(S.dim, r)
    side1 = S._bits ^ side0
    return VertexSet.from_bits(S.dim, side0), VertexSet.from_bits(S.dim, side1)


def _check_q(q: int, dim: int) -> None:
    if q < 0 or q > dim:
        raise ValueError(f"q must be in [0, {dim}], got {q}")


def count_subcubes_naive(S: VertexSet, q: int) -> int:
    """Count q-dimensional subcubes contained in S by direct enumeration.

    Every one of the C(n,q) * 2^(n-q) candidate subcubes is generated and
    tested with one mask: the candidate at lowest vertex ``base`` is
    inside S exactly when the indicator shifted down by ``base`` covers
    the cube mask of its free coordinates. Free-coordinate sets are taken
    in lexicographic order of their indices, so the enumeration order is
    deterministic.
    """
    _check_q(q, S.dim)
    bits = S._bits
    count = 0
    for free in combinations(range(S.dim), q):
        # The fixed-coordinate mask, and the cube mask: the indicator of the
        # subcube that frees these coordinates and fixes the others at 0,
        # built by doubling (each free coordinate t ORs in a copy shifted up
        # by 2^t).
        fixed, cube = (1 << S.dim) - 1, 1
        for t in free:
            fixed ^= 1 << t
            cube |= cube << (1 << t)
        # Bases are the submasks of the fixed-coordinate mask, visited in
        # increasing order (assignments in increasing integer order).
        base = 0
        while True:
            if (bits >> base) & cube == cube:
                count += 1
            if base == fixed:
                break
            base = (base - fixed) & fixed
    return count


def count_subcubes_bitparallel(S: VertexSet, q: int) -> int:
    """Count q-dimensional subcubes contained in S with bit-parallel folds.

    First a peel. Split the m-cube set X along its top coordinate into
    the halves L (top bit 0) and H (top bit 1), both sets of the
    (m-1)-cube. A j-subcube of X lies in L, lies in H, or frees the top
    coordinate, and the last kind are the (j-1)-subcubes of L & H, so
    m_j(X) = m_j(L) + m_j(H) + m_{j-1}(L & H). While one half is empty or
    full this needs no further split: with H empty m_j(X) = m_j(L), and
    with L full m_j(X) = C(m-1, j)·2^(m-1-j) + m_j(H) + m_{j-1}(H); the
    mirror cases swap L and H. So m_q(S) = total + Σ_j c_j·m_j(X), where
    each full-half step adds its closed-form term to ``total`` and maps
    the coefficients to c_j + c_{j+1}. The peel ends at an empty or
    single-vertex X, or at one whose halves are both mixed. An initial
    segment {0..k-1} peels to the end: its low half is full or its high
    half empty at every step, so it costs O(n) big-int steps on halving
    indicators and O(n·q) coefficient updates, with no fold at all.

    Then one depth-first walk adds free coordinates of X in increasing
    order, down to depth min(q, m). Adding t folds the parent's indicator
    A into A & (A >> 2^t), kept at the positions whose bit t is 0; a bit
    set after d folds marks the lowest vertex of a d-subcube inside X, so
    a node at depth d adds c_d times its popcount. A branch ends when its
    fold is empty, or when too few coordinates are left to reach the
    first nonzero c_j. The walk visits at most Σ_{d<=q} C(m, d) free
    sets, each a fold of a 2^m-bit indicator, and m <= n: no more than
    one depth-q walk over the unpeeled n-cube. A set whose top halves are
    both mixed pays three big-int operations (a mask, an AND and a shift)
    for the peel.
    Agrees exactly with ``count_subcubes_naive``.
    """
    _check_q(q, S.dim)
    n = m = S.dim
    bits = S._bits
    # m_q(S) = total + sum over j of coeffs[j] * m_j(bits), where bits is
    # now a set of the m-cube.
    coeffs = [0] * q + [1]
    total = 0
    while m and bits:
        half = 1 << (m - 1)
        ones = (1 << half) - 1
        low, high = bits & ones, bits >> half
        if low and high:
            if ones not in (low, high):
                break
            total += sum(c * comb(m - 1, j) << (m - 1 - j) for j, c in enumerate(coeffs[:m]))
            coeffs = [c + d for c, d in zip(coeffs, [*coeffs[1:], 0])]
            bits = high if low == ones else low
        else:
            bits = low or high
        m -= 1
    # The zero-side masks of the n-cube serve the m-cube: X lies in the low
    # 2^m bits, where the masks agree.
    zero = [_coord_zero_mask(n, t) for t in range(m)]
    # The nonzero coefficients are C(s, q - j) for q - s <= j <= q after s
    # full-half steps, so the zeros come first and ``first`` is the depth
    # of the first node that counts.
    top, first = min(q, m), coeffs.count(0)

    def walk(folded: int, start: int, depth: int) -> int:
        count = coeffs[depth] * folded.bit_count() if depth >= first else 0
        if depth < top:
            # above depth ``first``, stop at the last t that still leaves
            # enough coordinates to reach it
            for t in range(start, m if depth >= first else m - first + depth + 1):
                child = folded & (folded >> (1 << t)) & zero[t]
                if child:
                    count += walk(child, t + 1, depth + 1)
        return count

    return total + walk(bits, 0, 0)


def three_term_report(S: VertexSet, q: int, r: int) -> DecompositionReport:
    """Decompose m_q(S) along dimension r into heavy, light, and cross terms.

    The light side is the half of smaller cardinality (ties go to the
    1-side); the cross term counts one dimension lower on the light side.
    """
    if q < 1 or q > S.dim:
        raise ValueError(f"q must be in [1, {S.dim}], got {q}")
    side0, side1 = split(S, r)
    if len(side0) == 0 or len(side1) == 0:
        raise DegenerateSplit(f"dimension {r} does not separate the set")
    if len(side1) <= len(side0):
        b, light, heavy = 1, side1, side0
    else:
        b, light, heavy = 0, side0, side1
    mq_total = count_subcubes_bitparallel(S, q)
    mq_heavy = count_subcubes_bitparallel(heavy, q)
    mq_light = count_subcubes_bitparallel(light, q)
    mq1_light = count_subcubes_bitparallel(light, q - 1)
    bound = mq_heavy + mq_light + mq1_light
    return DecompositionReport(
        r=r,
        b=b,
        mq_total=mq_total,
        mq_heavy=mq_heavy,
        mq_light=mq_light,
        mq1_light=mq1_light,
        bound=bound,
        exact=(mq_total == bound),
    )


def _check_format(fmt: str) -> None:
    if fmt not in _FORMATS:
        raise ValueError(f"format must be 'decimal' or 'binary', got {fmt!r}")


def parse_vertex_set(lines: Iterable[str], dim: int, fmt: str = "decimal") -> VertexSet:
    """Parse the one-vertex-per-line text format into a VertexSet.

    Blank lines and lines starting with ``#`` are ignored. Decimal mode
    takes non-negative integers; binary mode takes exactly ``dim``
    characters of 0/1 with the most significant coordinate leftmost.
    Duplicates, malformed lines, and out-of-range vertices are errors;
    the message names the first bad line. Members are marked in a
    2^dim-byte array, so parsing is linear in 2^dim plus the text length.

    Lines are read ``_CHUNK`` at a time and each chunk is checked whole
    with string and set builtins; only a chunk that passes is marked. Any
    other chunk (a bad line, or a valid decimal line longer than
    2^dim - 1 through its leading zeros) goes through the line-by-line
    parser, which raises at the first bad line.
    """
    _check_dim(dim)
    _check_format(fmt)
    limit = 1 << dim
    width = len(str(limit - 1)) if fmt == "decimal" else dim
    marks = bytearray(limit)
    lines = iter(lines)
    offset = 0
    while chunk := list(map(str.strip, islice(lines, _CHUNK))):
        vs = _bulk_vertices(chunk, marks, width, fmt)
        if vs is None:
            _parse_lines(chunk, offset, marks, dim, fmt)
        else:
            for v in vs:
                marks[v] = 1
        offset += len(chunk)
    return VertexSet.from_bits(dim, _indicator(marks))


def _bulk_vertices(
    chunk: list[str], marks: bytearray, width: int, fmt: str
) -> list[int] | None:
    """The new vertices on a chunk of stripped lines, checked as a whole.

    None unless every line that is not blank or a comment is at most
    ``width`` ASCII digits (decimal) or exactly ``width`` 0/1 characters
    (binary), and the vertices are in range, distinct and not yet marked.
    """
    tokens = list(filter(None, chunk))
    joined = "".join(tokens)
    if "#" in joined:
        tokens = [line for line in tokens if line[0] != "#"]
        joined = "".join(tokens)
    if not tokens:
        return []
    if fmt == "decimal":
        if not (joined.isascii() and joined.isdigit()) or max(map(len, tokens)) > width:
            return None
        vs = list(map(int, tokens))
    else:
        if joined.strip("01") or set(map(len, tokens)) != {width}:
            return None
        vs = list(map(int, tokens, repeat(2)))
    # itemgetter gathers the marks at C speed; vs[0] is passed twice because
    # with a single index it returns the item, not a tuple
    if max(vs) >= len(marks) or len(set(vs)) < len(vs) or any(itemgetter(vs[0], *vs)(marks)):
        return None
    return vs


def _parse_lines(lines: list[str], offset: int, marks: bytearray, dim: int, fmt: str) -> None:
    """Mark the vertices on ``lines`` one line at a time; the first line
    is line ``offset + 1`` of the file."""
    limit = len(marks)
    width = len(str(limit - 1))
    for lineno, raw in enumerate(lines, start=offset + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if fmt == "decimal":
            if not (line.isascii() and line.isdigit()):
                raise VertexFormatError(
                    f"line {lineno}: {line!r} is not a non-negative decimal integer"
                )
            # More significant digits than limit - 1 is out of range; test
            # the length first, since int() refuses lines past the
            # interpreter's digit limit (leading zeros count there too).
            digits = line.lstrip("0") or "0"
            if len(digits) > width:
                raise VertexFormatError(
                    f"line {lineno}: vertex {digits} outside [0, {limit - 1}] for dim {dim}"
                )
            v = int(digits)
        else:
            if len(line) != dim or line.strip("01"):
                raise VertexFormatError(
                    f"line {lineno}: {line!r} is not a {dim}-character binary string"
                )
            v = int(line, 2)
        if v >= limit:
            raise VertexFormatError(
                f"line {lineno}: vertex {v} outside [0, {limit - 1}] for dim {dim}"
            )
        if marks[v]:
            raise VertexFormatError(f"line {lineno}: duplicate vertex {v}")
        marks[v] = 1


def load_vertex_set(path, dim: int, fmt: str = "decimal") -> VertexSet:
    """Read a vertex file (UTF-8) into a VertexSet."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_vertex_set(fh, dim, fmt)
        except UnicodeDecodeError as exc:
            raise VertexFormatError(f"{path}: not valid UTF-8 ({exc})") from exc


def _vertex_lines(S: VertexSet, fmt: str) -> Iterator[str]:
    _check_format(fmt)
    if fmt == "decimal":
        return map(str, S)
    return map(format, S, repeat(f"0{S.dim}b"))


def render_vertex_lines(S: VertexSet, fmt: str = "decimal") -> list[str]:
    """The file-format lines for S, members ascending."""
    return list(_vertex_lines(S, fmt))


def save_vertex_set(S: VertexSet, path, fmt: str = "decimal") -> None:
    """Write S to a vertex file (UTF-8), one member per line, ``_CHUNK``
    lines per write."""
    lines = _vertex_lines(S, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        while chunk := list(islice(lines, _CHUNK)):
            fh.write("\n".join(chunk) + "\n")
