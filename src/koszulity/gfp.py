"""Exact linear algebra over prime fields F_p (small p).

Conventions used throughout the package:

- a vector is a tuple of residues in [0, p);
- a matrix is a sequence of equal-length rows (vectors);
- a sparse vector is an iterable of (index, coeff) pairs, with any integer
  coefficients taken mod p; repeated indices add up;
- a subspace is a RowSpace: a canonical reduced-row-echelon basis, so that
  row-equivalent inputs yield identical objects and span equality is ``==``.

A RowSpace holds its basis in one of two native forms, chosen here from p
alone:

- p = 2: each row is one Python int with bit j = coordinate j.  A row's
  pivot is its lowest set bit, and elimination is XOR of whole rows (the
  packed-row approach of Albrecht, Bard & Hart, "Efficient dense Gaussian
  elimination over the field with two elements", ACM TOMS 37(1), 2010).
- odd p: each row is a tuple of residues, eliminated by Gauss-Jordan with
  modular inverses.  Run at p = 2, this dense route is the reference the
  packed route is tested against.

RowSpace.rows is a tuple view of the basis, built on demand.  Code outside
this module that builds subspaces from algebra data uses the sparse
interface, which works for every p and converts straight into the native
form: coordinate_space, span, image_kernel, RowSpace.sparse_rows and
RowSpace.member_sparse.

Every value is immutable after construction and safe to share between
threads.  Enumeration helpers are generators with a documented
deterministic order and refuse to start when p**d exceeds 2**20.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .errors import InputError, ResourceLimitError

MAX_PRIME = 97
ENUMERATION_GUARD = 2**20

Sparse = Iterable[tuple[int, int]]


class Prime(int):
    """A validated prime field characteristic, 2 <= p <= 97."""

    def __new__(cls, p: int) -> "Prime":
        p = int(p)
        if p < 2 or p > MAX_PRIME:
            raise InputError(
                f"field characteristic must be a prime in [2, {MAX_PRIME}], got {p}"
            )
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise InputError(f"{p} is not prime ({d} divides it)")
            d += 1
        return super().__new__(cls, p)


_set = object.__setattr__


class RowSpace:
    """A subspace of F_p^ambient_dim held as a reduced-row-echelon basis.

    Invariants: rows are nonzero with leading coefficient 1, pivot columns
    strictly increase, and every pivot column is zero in all other rows.
    Construct through rref() or the other helpers of this module; the
    constructor trusts rows to be such a basis already.  Two RowSpace
    values are equal iff they span the same space.
    """

    __slots__ = ("p", "ambient_dim", "_basis", "_pivots")

    def __init__(self, p: int, ambient_dim: int, rows: Sequence[Sequence[int]]):
        if p == 2:
            basis = tuple(_pack(r) for r in rows)
        else:
            basis = tuple(tuple(r) for r in rows)
        _init(self, p, ambient_dim, basis)

    def __setattr__(self, name, value):
        raise AttributeError(f"RowSpace is immutable: cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RowSpace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self._basis == other._basis
        )

    def __hash__(self) -> int:
        return hash((self.p, self.ambient_dim, self._basis))

    def __repr__(self) -> str:
        return f"RowSpace(p={self.p}, ambient_dim={self.ambient_dim}, rows={self.rows})"

    def __reduce__(self):
        return _space, (self.p, self.ambient_dim, self._basis)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if self.p == 2:
            return tuple(_unpack(r, self.ambient_dim) for r in self._basis)
        return self._basis

    @property
    def rank(self) -> int:
        return len(self._basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        if self.p == 2:
            return tuple((r & -r).bit_length() - 1 for r in self._basis)
        try:
            return self._pivots
        except AttributeError:  # first use: dense pivots are kept
            pivots = _dense_pivots(self._basis)
            _set(self, "_pivots", pivots)
            return pivots

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Residual of vec after eliminating against this basis (mod p)."""
        p = self.p
        if len(vec) != self.ambient_dim:
            raise InputError(
                f"vector length {len(vec)} != ambient dimension {self.ambient_dim}"
            )
        if p == 2:
            return _unpack(_reduce2(self._basis, _pack(vec)), self.ambient_dim)
        v = [x % p for x in vec]
        return tuple(_reduce_dense(self._basis, self.pivots, v, p))

    def member(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def contains(self, other: "RowSpace") -> bool:
        _check_same_space(self, other)
        return all(self.member(r) for r in other.rows)

    def sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The basis rows as sparse vectors, in basis order."""
        if self.p == 2:
            return tuple(tuple((j, 1) for j in _bits(r)) for r in self._basis)
        return tuple(
            tuple((j, x) for j, x in enumerate(r) if x) for r in self._basis
        )

    def member_sparse(self, vec: Sparse) -> bool:
        """Whether the sparse vector vec (indices below ambient_dim) lies
        in this space."""
        p = self.p
        if p == 2:
            return not _reduce2(self._basis, _pack_sparse(vec))
        v = _densify(vec, self.ambient_dim, p)
        return not any(_reduce_dense(self._basis, self.pivots, v, p))


def _init(s: RowSpace, p: int, ambient_dim: int, basis: tuple) -> None:
    _set(s, "p", p)
    _set(s, "ambient_dim", ambient_dim)
    _set(s, "_basis", basis)


def _space(p: int, ambient_dim: int, basis: tuple) -> RowSpace:
    # A RowSpace from a basis already in native form for p.
    s = object.__new__(RowSpace)
    _init(s, p, ambient_dim, basis)
    return s


def _check_same_space(a: RowSpace, b: RowSpace) -> None:
    if a.p != b.p or a.ambient_dim != b.ambient_dim:
        raise InputError(
            f"subspaces live in different spaces: F_{a.p}^{a.ambient_dim} "
            f"vs F_{b.p}^{b.ambient_dim}"
        )


# -- p = 2: packed rows -------------------------------------------------------


def _pack(vec: Iterable[int]) -> int:
    v = 0
    for j, x in enumerate(vec):
        if x & 1:
            v |= 1 << j
    return v


def _pack_sparse(vec: Sparse) -> int:
    v = 0
    for j, c in vec:
        if c & 1:
            v ^= 1 << j
    return v


def _unpack(v: int, dim: int) -> tuple[int, ...]:
    return tuple((v >> j) & 1 for j in range(dim))


def _bits(v: int) -> Iterator[int]:
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _reduce2(basis: tuple[int, ...], v: int) -> int:
    # Each basis row owns its pivot bit (row & -row), so any order works.
    for row in basis:
        if v & row & -row:
            v ^= row
    return v


def _echelon2(vectors: Iterable[int]) -> tuple[int, ...]:
    """Canonical RREF of packed rows: sorted by pivot, every pivot bit
    cleared in all other rows."""
    lead: dict[int, int] = {}  # pivot bit -> row whose lowest set bit it is
    for v in vectors:
        while v:
            low = v & -v
            row = lead.get(low)
            if row is None:
                lead[low] = v
                break
            v ^= row
    return _back_substitute([lead[low] for low in sorted(lead, reverse=True)])


def _back_substitute(rows: list[int]) -> tuple[int, ...]:
    """RREF from rows with distinct lowest set bits, highest pivot first.

    A row's pivot is its lowest bit, so a row holds no pivot of a later
    row; clearing the earlier pivots it holds with their already reduced
    rows brings in no further pivot bits.
    """
    done: dict[int, int] = {}  # pivot bit -> reduced row
    mask = 0  # pivot bits of done
    for v in rows:
        hits = v & mask
        while hits:
            low = hits & -hits
            v ^= done[low]
            hits ^= low
        low = v & -v
        done[low] = v
        mask |= low
    return tuple(reversed(done.values()))


def _kernel2(images: Sequence[int], width: int, modulo: tuple[int, ...] = ()) -> tuple[int, ...]:
    """RREF basis of the kernel of e_i -> images[i], into F_2^width modulo
    the span of the RREF rows in modulo.

    Each image carries a tag bit above width that records which inputs it
    combines.  An image reduced to zero leaves its tag as a kernel vector.
    Inputs run in reverse, so each kernel vector's lowest bit is its own
    input's, and the vectors come out highest pivot first.
    """
    limit = 1 << width
    lead = {row & -row: row for row in modulo}
    kern = []
    for i in range(len(images) - 1, -1, -1):
        v = images[i] | (limit << i)
        while True:
            low = v & -v
            if low >= limit:
                kern.append(v >> width)
                break
            row = lead.get(low)
            if row is None:
                lead[low] = v
                break
            v ^= row
    return _back_substitute(kern)


# -- odd p (and the p = 2 reference): dense rows ------------------------------


def _densify(vec: Sparse, dim: int, p: int) -> list[int]:
    v = [0] * dim
    for j, c in vec:
        v[j] = (v[j] + c) % p
    return v


def _dense_pivots(rows) -> tuple[int, ...]:
    return tuple(next(i for i, x in enumerate(r) if x) for r in rows)


def _reduce_dense(rows, pivots, v: list[int], p: int) -> list[int]:
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return v


def _eliminate(mat: list[list[int]], ambient_dim: int, p: int) -> list[tuple[int, ...]]:
    # In-place Gauss-Jordan to canonical RREF; returns the nonzero rows.
    npiv = 0
    nrows = len(mat)
    for col in range(ambient_dim):
        piv = None
        for r in range(npiv, nrows):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[npiv], mat[piv] = mat[piv], mat[npiv]
        row = mat[npiv]
        lead = row[col]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            mat[npiv] = row = [(x * inv) % p for x in row]
        for r in range(nrows):
            if r != npiv:
                f = mat[r][col]
                if f:
                    other = mat[r]
                    mat[r] = [(a - f * b) % p for a, b in zip(other, row)]
        npiv += 1
        if npiv == nrows:
            break
    return [tuple(r) for r in mat[:npiv]]


def _kernel_dense(matrix, a: int, b: int, p: int) -> list[tuple[int, ...]]:
    # Null space of x -> x.M is computed from the RREF of the transpose.
    cols = [[matrix[i][j] % p for i in range(a)] for j in range(b)]
    reduced = _eliminate(cols, a, p)
    pivots = _dense_pivots(reduced)
    pivot_set = set(pivots)
    basis = []
    for f in range(a):
        if f in pivot_set:
            continue
        v = [0] * a
        v[f] = 1
        for row, c in zip(reduced, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return _eliminate(basis, a, p)


# -- public constructors and maps ---------------------------------------------


def rref(matrix: Sequence[Sequence[int]], p: int, ambient_dim: int | None = None) -> RowSpace:
    """Row space of matrix as a canonical RREF basis.

    ambient_dim is required when matrix is empty and must match the row
    length otherwise.  Entries are reduced mod p; duplicate or dependent
    rows are harmless.
    """
    rows = [list(r) for r in matrix]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise InputError("matrix rows have unequal lengths")
        if ambient_dim is not None and ambient_dim != width:
            raise InputError(
                f"ambient dimension {ambient_dim} != row length {width}"
            )
        ambient_dim = width
    elif ambient_dim is None:
        raise InputError("ambient dimension required for an empty matrix")
    if p == 2:
        return _space(p, ambient_dim, _echelon2(_pack(r) for r in rows))
    mat = [[x % p for x in r] for r in rows]
    return _space(p, ambient_dim, tuple(_eliminate(mat, ambient_dim, p)))


def zero_space(p: int, ambient_dim: int) -> RowSpace:
    return _space(p, ambient_dim, ())


def coordinate_space(p: int, ambient_dim: int, indices: Iterable[int]) -> RowSpace:
    """The span of the standard basis vectors e_i for i in indices."""
    cols = sorted(set(indices))
    if p == 2:
        return _space(p, ambient_dim, tuple(1 << i for i in cols))
    return _space(p, ambient_dim, tuple(
        (0,) * i + (1,) + (0,) * (ambient_dim - i - 1) for i in cols
    ))


def full_space(p: int, ambient_dim: int) -> RowSpace:
    return coordinate_space(p, ambient_dim, range(ambient_dim))


def span(p: int, ambient_dim: int, vectors: Iterable[Sparse]) -> RowSpace:
    """The span of sparse vectors in F_p^ambient_dim."""
    if p == 2:
        return _space(p, ambient_dim, _echelon2(_pack_sparse(v) for v in vectors))
    mat = [_densify(v, ambient_dim, p) for v in vectors]
    return _space(p, ambient_dim, tuple(_eliminate(mat, ambient_dim, p)))


def kernel(
    matrix: Sequence[Sequence[int]],
    p: int,
    domain_dim: int | None = None,
    codomain_dim: int | None = None,
) -> RowSpace:
    """Null space of the map F_p^a -> F_p^b given by x -> x . matrix.

    matrix has a rows (the images of the standard basis) of length b.
    Satisfies rank(matrix) + rank(kernel) = a.
    """
    a = len(matrix)
    if domain_dim is not None and domain_dim != a:
        raise InputError(f"domain dimension {domain_dim} != row count {a}")
    if a:
        b = len(matrix[0])
        if any(len(r) != b for r in matrix):
            raise InputError("matrix rows have unequal lengths")
        if codomain_dim is not None and codomain_dim != b:
            raise InputError(f"codomain dimension {codomain_dim} != row length {b}")
    else:
        if codomain_dim is None:
            raise InputError("codomain dimension required for an empty matrix")
        b = codomain_dim
    if p == 2:
        return _space(p, a, _kernel2([_pack(r) for r in matrix], b))
    return _space(p, a, tuple(_kernel_dense(matrix, a, b, p)))


def image_kernel(
    p: int, domain_dim: int, images: Sequence[Sparse], target: RowSpace
) -> RowSpace:
    """Kernel of the map F_p^domain_dim -> F_p^m / target sending e_i to
    the sparse vector images[i], where m is target.ambient_dim."""
    if len(images) != domain_dim:
        raise InputError(f"{len(images)} images for domain dimension {domain_dim}")
    width = target.ambient_dim
    if p == 2:
        packed = [_pack_sparse(v) for v in images]
        return _space(p, domain_dim, _kernel2(packed, width, target._basis))
    # The quotient keeps the non-pivot coordinates of each reduced image.
    rows, pivots = target._basis, target.pivots
    pivot_set = set(pivots)
    keep = [c for c in range(width) if c not in pivot_set]
    matrix = []
    for v in images:
        red = _reduce_dense(rows, pivots, _densify(v, width, p), p)
        matrix.append([red[c] for c in keep])
    return _space(p, domain_dim, tuple(_kernel_dense(matrix, domain_dim, len(keep), p)))


def subspace_sum(s: RowSpace, t: RowSpace) -> RowSpace:
    _check_same_space(s, t)
    return rref(s.rows + t.rows, s.p, s.ambient_dim)


def member(vec: Sequence[int], s: RowSpace) -> bool:
    return s.member(vec)


def contains(s: RowSpace, t: RowSpace) -> bool:
    return s.contains(t)


def _guard(p: int, d: int) -> None:
    if p**d > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"enumeration over F_{p}^{d} refused: p**d = {p**d} exceeds 2**20"
        )


def enumerate_subspaces(p: int, d: int) -> Iterator[RowSpace]:
    """Every subspace of F_p^d exactly once.

    Order: rank ascending, then pivot-column pattern lexicographic, then the
    free entries filled row-major with values 0..p-1.  The total count is the
    Galois number (sum of Gaussian binomial coefficients).
    """
    _guard(p, d)
    for r in range(d + 1):
        for pivots in itertools.combinations(range(d), r):
            pivot_set = set(pivots)
            free = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, d)
                if j not in pivot_set
            ]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[0] * d for _ in range(r)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                yield RowSpace(p, d, rows)


def enumerate_vectors_mod_scalar(p: int, d: int) -> Iterator[tuple[int, ...]]:
    """One representative per nonzero scalar class of F_p^d.

    Representatives have first nonzero coordinate 1 and are emitted in
    lexicographic order of that leading position, then of the tail; the
    count is (p**d - 1) // (p - 1).
    """
    _guard(p, d)
    for lead in range(d):
        for tail in itertools.product(range(p), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def enumerate_coset_reps_mod_scalar(s: RowSpace) -> Iterator[tuple[int, ...]]:
    """Representatives of the nonzero classes of F_p^d / s, modulo scalars.

    Each representative is the canonical reduced vector of its class:
    supported on the non-pivot columns of s, with first nonzero coordinate 1
    (in non-pivot column order).  Count: (p**(d-rank) - 1) // (p - 1).
    """
    p, d = s.p, s.ambient_dim
    _guard(p, d)
    pivot_set = set(s.pivots)
    free_cols = [c for c in range(d) if c not in pivot_set]
    for w in enumerate_vectors_mod_scalar(p, len(free_cols)):
        v = [0] * d
        for c, x in zip(free_cols, w):
            v[c] = x
        yield tuple(v)
