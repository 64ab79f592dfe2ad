"""Exact linear algebra over prime fields F_p (small p).

Conventions used throughout the package:

- a vector is a tuple of residues in [0, p);
- a matrix is a sequence of equal-length rows (vectors);
- a sparse vector is an iterable of (index, coeff) pairs, with any integer
  coefficients taken mod p; repeated indices add up;
- a subspace is a RowSpace: a canonical reduced-row-echelon basis, so that
  row-equivalent inputs yield equal records and span equality is ``==``.

A RowSpace is a record (p, ambient_dim, basis) whose basis is in one of
two native forms, chosen here from p alone:

- p = 2: each row is one Python int with bit j = coordinate j.  A row's
  pivot is its lowest set bit, and elimination is XOR of whole rows (the
  packed-row approach of Albrecht, Bard & Hart, "Efficient dense Gaussian
  elimination over the field with two elements", ACM TOMS 37(1), 2010).
- odd p: each row is a tuple of residues whose pivot is its leading 1,
  eliminated by Gauss-Jordan with modular inverses.  Run at p = 2, this dense route is the reference the
  packed route is tested against.

RowSpace.rows (the basis as tuples of residues), rank and pivots are
computed from the basis on each use; nothing is cached.

One native core computes every subspace.  A native vector is an int (bit
j = coordinate j) at p = 2 and a tuple or list of residues at odd p; a
native map is a tuple of native vectors, the images of the standard
basis.  Every canonical basis comes from one private canonicaliser,
_echelon2 at p = 2 and _eliminate at odd p, and every kernel from
map_kernel.  rref and kernel take dense rows; image_kernel and
quotient_maps are the sparse fronts, which convert at the boundary.
quotient_maps induces native maps between quotients F_p^m / S, in the
coordinates of the non-pivot columns of S; combine_maps, map_kernel,
map_rank and image_basis answer what a kernel, rank or span needs, with
bases that need not be reduced; image_span is a span of images as a
canonical RowSpace, and image_fills tests whether images of sparse maps
span the whole space, stopping at full rank; it takes the vectors a
batch at a time and hands on its echelon rows, so that each extension
of a set of vectors eliminates only its own images.  permute_coordinates
maps the native RREF basis of a subspace to that of its image under a
permutation of the coordinates, and scale_first to that of the first
member of its orbit under the diagonal scalings, in enumeration order;
it also tests whether a divisor class is the first of its orbit under
the scalings that fix the subspace.

One private walker, _row_prefixes, enumerates subspaces: per pivot
pattern, a tree whose nodes are the row prefixes of the RREF bases,
walked depth-first in enumeration order, with a state per node that its
children extend by one row, and where a node whose state is None
settles, with one count, every basis below it.  enumerate_subspaces
settles nothing; first_subspaces settles the prefixes that are not
first under the scalings (their scan meets an entry other than 1) or
whose images fill (image_fills).

The package needs only the standard library.  A vectorised route for odd
p that uses numpy must import it inside that route, so that importing the
package, and every p = 2 computation, still loads no numpy.

Every value is immutable after construction and safe to share between
threads.  Enumeration helpers are generators with a documented
deterministic order and refuse to start when p**d exceeds 2**20.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from operator import xor
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class RowSpace(NamedTuple):
    """A subspace of F_p^ambient_dim held as a reduced-row-echelon basis
    in native form: one int per row at p = 2, a tuple of residues per
    row at odd p.

    Invariants: rows are nonzero with leading coefficient 1, pivot columns
    strictly increase, and every pivot column is zero in all other rows.
    Construct through rref() or the other helpers of this module; the
    record trusts basis to be such a basis already.  Two RowSpace values
    are equal iff they span the same space.
    """

    p: int
    ambient_dim: int
    basis: tuple

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if self.p == 2:
            return tuple(_unpack(r, self.ambient_dim) for r in self.basis)
        return self.basis

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        if self.p == 2:
            return tuple((r & -r).bit_length() - 1 for r in self.basis)
        return tuple(r.index(1) for r in self.basis)  # each row leads with 1

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Residual of vec after eliminating against this basis (mod p)."""
        p = self.p
        if len(vec) != self.ambient_dim:
            raise InputError(
                f"vector length {len(vec)} != ambient dimension {self.ambient_dim}"
            )
        if p == 2:
            return _unpack(_reduce2(self.basis, _pack(vec)), self.ambient_dim)
        v = [x % p for x in vec]
        return tuple(_reduce_dense(self.basis, self.pivots, v, p))

    def member(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))


# -- p = 2: packed rows -------------------------------------------------------


def _pack(vec: Iterable[int]) -> int:
    v = 0
    for j, x in enumerate(vec):
        if x & 1:
            v |= 1 << j
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


def _leads2(vectors: Iterable[int]) -> dict[int, int]:
    """Forward elimination of packed rows: pivot bit -> a row whose lowest
    set bit it is; the rows span what vectors span."""
    lead: dict[int, int] = {}
    for v in vectors:
        while v:
            low = v & -v
            row = lead.get(low)
            if row is None:
                lead[low] = v
                break
            v ^= row
    return lead


def _echelon2(vectors: Iterable[int]) -> tuple[int, ...]:
    """Canonical RREF of packed rows: sorted by pivot, every pivot bit
    cleared in all other rows."""
    lead = _leads2(vectors)
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


def _kernel2(images: Sequence[int], width: int) -> tuple[int, ...]:
    """Basis of the kernel of e_i -> images[i], into F_2^width, not
    reduced.

    Each image carries a tag bit above width that records which inputs it
    combines.  An image reduced to zero leaves its tag as a kernel vector.
    Inputs run in reverse, so each kernel vector's lowest bit is its own
    input's, and the vectors come out highest pivot first.
    """
    limit = 1 << width
    lead: dict[int, int] = {}
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
    return tuple(kern)


# -- odd p (and the p = 2 reference): dense rows ------------------------------


def _dense_pivots(rows) -> tuple[int, ...]:
    return tuple(next(i for i, x in enumerate(r) if x) for r in rows)


def _reduce_dense(rows, pivots, v: list[int], p: int) -> list[int]:
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return v


def _eliminate(mat: list, ambient_dim: int, p: int) -> list[tuple[int, ...]]:
    # Gauss-Jordan to canonical RREF; returns the nonzero rows.  mat is a
    # list of rows of residues; its rows are replaced, never written to.
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


def _null_basis(matrix, a: int, b: int, p: int) -> list[list[int]]:
    # A basis of the null space of x -> x.M, one vector per free column
    # of the RREF of the transpose, with 1 there.
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
    return basis


def _canonical(p: int, dim: int, rows: list) -> RowSpace:
    """The RowSpace that the native rows span, in canonical RREF."""
    if p == 2:
        return RowSpace(p, dim, _echelon2(rows))
    return RowSpace(p, dim, tuple(_eliminate(rows, dim, p)))


def _from_dense(p: int, rows) -> list:
    """Native rows from dense ones, entries taken mod p."""
    if p == 2:
        return [_pack(r) for r in rows]
    return [[x % p for x in r] for r in rows]


def _from_sparse(p: int, dim: int, vectors: Iterable[Sparse]) -> list:
    """Native rows from sparse vectors in F_p^dim; InputError for an index
    outside [0, dim)."""
    rows = []
    for vec in vectors:
        v = 0 if p == 2 else [0] * dim
        for j, c in vec:
            if not 0 <= j < dim:
                raise InputError(f"sparse index {j} outside [0, {dim})")
            if p == 2:
                v ^= (c & 1) << j
            else:
                v[j] = (v[j] + c) % p
        rows.append(v)
    return rows


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
    return _canonical(p, ambient_dim, _from_dense(p, rows))


def zero_space(p: int, ambient_dim: int) -> RowSpace:
    return RowSpace(p, ambient_dim, ())


def coordinate_space(p: int, ambient_dim: int, indices: Iterable[int]) -> RowSpace:
    """The span of the standard basis vectors e_i for i in indices.  An
    index outside [0, ambient_dim) is an InputError."""
    cols = sorted(set(indices))
    if cols and not 0 <= cols[0] <= cols[-1] < ambient_dim:
        raise InputError(f"indices {cols[0]}..{cols[-1]} outside [0, {ambient_dim})")
    if p == 2:
        return RowSpace(p, ambient_dim, tuple(1 << i for i in cols))
    return RowSpace(p, ambient_dim, tuple(
        (0,) * i + (1,) + (0,) * (ambient_dim - i - 1) for i in cols
    ))


def full_space(p: int, ambient_dim: int) -> RowSpace:
    return coordinate_space(p, ambient_dim, range(ambient_dim))


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
    return _canonical(p, a, list(map_kernel(p, _from_dense(p, matrix), b)))


def image_kernel(
    p: int, domain_dim: int, images: Sequence[Sparse], target: RowSpace
) -> RowSpace:
    """Kernel of the map F_p^domain_dim -> F_p^m / target sending e_i to
    the sparse vector images[i], where m is target.ambient_dim.  Each
    image is a list or tuple of (index, coeff) pairs; an index outside
    [0, m) is an InputError.

    The target's rows are stacked under the images; they are independent,
    so the first domain_dim coordinates of the stacked kernel are exactly
    this kernel."""
    if len(images) != domain_dim:
        raise InputError(f"{len(images)} images for domain dimension {domain_dim}")
    width = target.ambient_dim
    rows = _from_sparse(p, width, images) + list(target.basis)
    kern = map_kernel(p, rows, width)
    if p == 2:
        mask = (1 << domain_dim) - 1
        return _canonical(p, domain_dim, [v & mask for v in kern])
    return _canonical(p, domain_dim, [v[:domain_dim] for v in kern])


# -- native vectors: maps between quotients, coordinate permutations ----------


def _classes(s: RowSpace) -> list:
    """The class of each e_c in F_p^m / s, as a native vector in quotient
    coordinates (the non-pivot columns of s, in order)."""
    p, m = s.p, s.ambient_dim
    pivots = s.pivots
    pivot_set = set(pivots)
    pos = {c: i for i, c in enumerate(c for c in range(m) if c not in pivot_set)}
    # e_c = row - (row - e_c) for the row with pivot c, and row lies in s
    if p == 2:
        classes = [1 << pos[c] if c in pos else 0 for c in range(m)]
        for row, c in zip(s.basis, pivots):
            classes[c] = sum(1 << pos[j] for j in _bits(row) if j != c)
        return classes
    classes = [tuple(int(i == pos.get(c)) for i in range(len(pos))) for c in range(m)]
    for row, c in zip(s.basis, pivots):
        classes[c] = tuple(-row[j] % p for j in pos)
    return classes


def quotient_maps(
    source: RowSpace, target: RowSpace, maps: Iterable[Sequence[Sparse]]
) -> tuple[tuple, ...]:
    """The maps F_p^m / source -> F_p^k / target induced by e_i ->
    images[i], one for each images in maps (m and k are the ambient
    dimensions).  Each linear map must send source into target, and each
    index in images must lie in [0, k); neither is checked, since the
    maps come from the algebra's own generator maps.  Each comes back as
    a native map: the class of the image of each non-pivot column of
    source, in column order, as a native vector in the quotient
    coordinates of target."""
    p = source.p
    pivot_set = set(source.pivots)
    cols = [c for c in range(source.ambient_dim) if c not in pivot_set]
    classes = _classes(target)
    if p == 2:
        def image(vec):
            v = 0
            for k, c in vec:
                if c & 1:
                    v ^= classes[k]
            return v
    else:
        zero = (0,) * (target.ambient_dim - target.rank)

        def image(vec):
            v = zero
            for k, c in vec:
                v = tuple((x + c * y) % p for x, y in zip(v, classes[k]))
            return v
    return tuple(tuple(image(images[c]) for c in cols) for images in maps)


def combine_maps(p: int, coeffs: Sequence[int], maps: Sequence[tuple]) -> tuple:
    """The native map sum_g coeffs[g] * maps[g], for native maps of one
    shape and coefficients not all zero mod p."""
    terms = [(c % p, m) for c, m in zip(coeffs, maps) if c % p]
    if not terms:
        raise InputError("a combination of maps needs a nonzero coefficient")
    (c, m), *rest = terms
    if not rest and c == 1:
        return m
    if p == 2:
        # the XOR of the maps' images, column by column
        return tuple(reduce(partial(map, xor), [m for _, m in terms]))
    # the sums column by column, reduced mod p once at the end
    sums = [[c * x for x in v] for v in m]
    for c, m in rest:
        sums = [[a + c * x for a, x in zip(s, v)] for s, v in zip(sums, m)]
    return tuple(tuple(a % p for a in s) for s in sums)


def map_kernel(p: int, images: Sequence, width: int) -> tuple:
    """Native basis, not necessarily reduced, of the kernel of e_i ->
    images[i], a native map into F_p^width."""
    if p == 2:
        return _kernel2(images, width)
    return tuple(map(tuple, _null_basis(images, len(images), width, p)))


def map_rank(p: int, images: Sequence, width: int) -> int:
    """Rank of the native vectors images in F_p^width."""
    if p == 2:
        return len(_leads2(images))
    return len(_eliminate(list(images), width, p))


def _images(p: int, maps: Sequence[tuple], vectors: Sequence) -> list:
    """m(x) for every native vector x in vectors and native map m in maps,
    as native vectors (lists of residues at odd p), zero ones possibly
    left out.  Only the columns of x's nonzero coordinates are read."""
    images = []
    if p == 2:
        for x in vectors:
            cols = list(_bits(x))
            for m in maps:
                v = 0
                for c in cols:
                    v ^= m[c]
                images.append(v)
        return images
    for x in vectors:
        terms = [(c, a) for c, a in enumerate(x) if a]
        if not terms:
            continue
        (c0, a0), *rest = terms
        for m in maps:
            v = [a0 * y for y in m[c0]]
            for c, a in rest:
                v = [s + a * y for s, y in zip(v, m[c])]
            if any(v):
                images.append([s % p for s in v])
    return images


def image_basis(p: int, maps: Sequence[tuple], vectors: Sequence, width: int) -> tuple:
    """Native basis, not necessarily reduced, of the span in F_p^width of
    m(x) for every native map m in maps and native vector x in
    vectors."""
    if p == 2:
        return tuple(_leads2(_images(p, maps, vectors)).values())
    return image_span(p, maps, vectors, width).basis


def image_span(p: int, maps: Sequence[tuple], vectors: Sequence, width: int) -> RowSpace:
    """The span that image_basis spans, as a RowSpace."""
    return _canonical(p, width, _images(p, maps, vectors))


def image_fills(p: int, maps: Sequence[Sequence[Sparse]], width: int):
    """The test whether m(x), for every map m in maps and native vector x,
    spans all of F_p^width, taken a batch of vectors at a time: a function
    fill(lead, vectors) that eliminates the images of the native vectors
    vectors against lead, the echelon rows of the images met so far (a
    dict, pivot -> row; {} for none), and returns the rows of both, or
    None as soon as they span F_p^width.  lead is not changed, so a row
    prefix of a basis can hand its rows to each of its extensions, which
    then add only their own images.  The vectors span enough iff
    fill({}, vectors) is None.  Each map is the sequence of the sparse
    images of the standard basis vectors, with indices in [0, width); an
    index outside it is an InputError.  Rows are packed at p = 2 and have
    leading coefficient 1 at odd p."""
    if p == 2:
        packed = [_from_sparse(p, width, m) for m in maps]

        def fill(lead, vectors):
            lead = dict(lead)
            for x in vectors:
                cols = list(_bits(x))
                for m in packed:
                    v = 0
                    for c in cols:
                        v ^= m[c]
                    while v:
                        low = v & -v
                        row = lead.get(low)
                        if row is None:
                            lead[low] = v
                            if len(lead) == width:
                                return None
                            break
                        v ^= row
            return None if len(lead) == width else lead
        return fill

    for m in maps:
        _from_sparse(p, width, m)  # the index check

    def fill(lead, vectors):
        lead = dict(lead)  # pivot column -> row with 1 there
        for x in vectors:
            terms = [(c, a) for c, a in enumerate(x) if a]
            for m in maps:
                v = [0] * width
                for c, a in terms:
                    for k, s in m[c]:
                        v[k] += a * s
                for j in range(width):
                    f = v[j] % p
                    if not f:
                        continue
                    row = lead.get(j)
                    if row is None:
                        inv = pow(f, p - 2, p)
                        lead[j] = [y * inv % p for y in v]
                        if len(lead) == width:
                            return None
                        break
                    v = [a - f * b for a, b in zip(v, row)]
        return None if len(lead) == width else lead
    return fill


def permute_coordinates(p: int, perm: Sequence[int]):
    """The action on the subspaces of F_p^m of the permutation of
    coordinates that sends e_k to e_perm[k], for perm a permutation of
    range(m) (InputError otherwise), as a function from a native RREF
    basis (RowSpace.basis) to the native RREF basis of the image.  A
    basis none of whose rows the permutation moves comes back as the
    same object, with no elimination.

    At p = 2 a row keeps its bits off the moved coordinates (those with
    perm[k] != k), and its bits on them, as one int, are looked up in a
    table filled as the rows meet them.  At odd p a row is unmoved iff
    r[k] == r[perm[k]] for every moved k."""
    m = len(perm)
    if sorted(perm) != list(range(m)):
        raise InputError(f"{list(perm)} is not a permutation of range({m})")
    moved = [k for k in range(m) if perm[k] != k]
    if p == 2:
        mask = sum(1 << k for k in moved)
        table: dict[int, int] = {}  # bits on the moved coordinates -> their image

        def permute(basis):
            rows, same = [], True
            for r in basis:
                bits = r & mask
                if bits:
                    image = table.get(bits)
                    if image is None:
                        image = table[bits] = sum(1 << perm[k] for k in _bits(bits))
                    if image != bits:
                        r ^= bits ^ image
                        same = False
                rows.append(r)
            return basis if same else _echelon2(rows)
        return permute

    source = [0] * m  # source[perm[k]] = k: the coordinate that lands on each
    for k, j in enumerate(perm):
        source[j] = k

    def permute(basis):
        if all(r[k] == r[perm[k]] for r in basis for k in moved):
            return basis
        rows = [[r[k] for k in source] for r in basis]
        return tuple(_eliminate(rows, m, p))
    return permute


def _joins(basis, label):
    """The scan behind scale_first, on a native RREF basis at odd p: its
    nonzero free entries, row-major, with classes of columns (label[j] is
    the class of column j, updated in place), each row starting at its
    pivot's class.  Yields each entry that joins two classes as (c, k, x),
    c the row's pivot, k the column and x the entry, and then merges the
    class of k into that of c.  When the scan ends, the classes are those
    of the columns that the scalings fixing the subspace are constant on:
    such a scaling keeps the entry, x t_k / t_c, iff t_k = t_c."""
    for row in basis:
        c = row.index(1)  # the pivot is the row's first nonzero entry
        a = label[c]
        for k, x in enumerate(row):
            if x and label[k] != a:
                yield c, k, x
                b = label[k]
                label[:] = [a if y == b else y for y in label]


def _first_rows(label, rows):
    """The scan of _joins over native rows at odd p, run on a copy of the
    classes of columns label (label[j] the class of column j), stopping
    at the first joining entry that is not 1: None there, else the
    classes after the rows.  Each entry's verdict depends only on the
    rows before it, so when a row prefix of a basis gives None, so does
    the basis."""
    label = list(label)
    for _, _, x in _joins(rows, label):
        if x != 1:
            return None
    return label


def scale_first(p: int):
    """The orbits of the diagonal scalings x_c -> t_c x_c, t in
    (F_p^*)^m, as three functions of a native RREF basis
    (RowSpace.basis): is_first, whether it is the first member of its
    orbit in enumerate_subspaces order; first, the native RREF basis of
    that member, which is the same object when is_first holds; and
    divisor_first(basis, m), m the ambient dimension, the test of whether
    a coset representative (enumerate_coset_reps_mod_scalar) is the first
    member in that order of its orbit under the scalings that fix the
    subspace.  At p = 2 the scalings are trivial: every basis and every
    representative is first.

    A scaling keeps the pivots and the zero entries and multiplies the
    free entry of a row at column k by t_k / t_c, c the row's pivot, so
    the orbit is ordered by the nonzero free entries, row-major.  Scan
    them in that order with classes of columns (_joins): an entry that
    joins two classes is made 1 by scaling one of them, which leaves the
    earlier entries alone, and an entry inside one class is then fixed.
    So is_first, which needs no arithmetic, holds iff every joining entry
    is already 1, and first scales the joining entries to 1.

    The scalings that fix the subspace are those constant on each class
    of the whole scan.  They keep a representative on the non-pivot
    columns, so its orbit is its scalings class by class, modulo one
    common scalar.  Its leading entry stays 1 and fixes its own class;
    every other class is free, so the first member, least in the
    lexicographic order that enumerate_vectors_mod_scalar follows within
    one leading position, has first nonzero entry 1 in each class.
    divisor_first tests exactly that, with no arithmetic."""
    if p == 2:
        return (lambda basis: True), (lambda basis: basis), (lambda basis, m: lambda vec: True)

    def is_first(basis):
        return not basis or _first_rows(list(range(len(basis[0]))), basis) is not None

    def first(basis):
        if is_first(basis):
            return basis
        m = len(basis[0])
        label, t = list(range(m)), [1] * m  # the classes and the scaling so far
        for c, k, x in _joins(basis, label):
            # scale the class of k so that the entry, x t_k / t_c, is 1
            b, f = label[k], t[c] * pow(x * t[k], -1, p) % p
            for j in range(m):
                if label[j] == b:
                    t[j] = t[j] * f % p
        rows = []
        for row in basis:
            inv = pow(t[row.index(1)], -1, p)
            rows.append(tuple(x * s * inv % p for x, s in zip(row, t)))
        return tuple(rows)

    def divisor_first(basis, m):
        label = list(range(m))
        for _ in _joins(basis, label):
            pass

        def test(vec):
            seen = set()  # the classes whose first nonzero entry is behind
            for k, x in enumerate(vec):
                if x and label[k] not in seen:
                    if x != 1:
                        return False
                    seen.add(label[k])
            return True
        return test
    return is_first, first, divisor_first


def count_text(count: int) -> str:
    """A count for a refusal message: exact up to 2**64, else "more than
    2**k" for the largest such k (Python refuses to write an int of more
    than 4300 digits in decimal)."""
    if count <= 2**64:
        return str(count)
    return f"more than 2**{(count - 1).bit_length() - 1}"


def _guard(p: int, d: int) -> None:
    if p**d > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"enumeration over F_{p}^{d} refused: p**d = {count_text(p**d)} "
            "exceeds 2**20"
        )


def _row_prefixes(p: int, d: int, grow, last, start):
    """The walk behind enumerate_subspaces and first_subspaces: every
    subspace of F_p^d in enumerate_subspaces order, as a tree of row
    prefixes per pivot pattern.  The children of a prefix append each
    filling of the next pivot's row in turn, and the tree is walked
    depth-first, so row 0 changes slowest.

    Each node carries a state: start at the root of every pattern,
    grow(state, rows) at a child that is a proper prefix and
    last(state, rows) at a leaf, a whole basis, where state is the
    parent's and rows the one row appended (the root is the leaf of the
    zero subspace, whose state is last(start, ())).  A state None
    settles the node with all its completions, its block, and nothing
    below it is visited.  Yields (basis, rank, count, state), in
    enumeration order, for each settled node (state None, basis the
    prefix, count the bases of rank rank in its block) and each other
    leaf (count 1)."""
    _guard(p, d)
    for r in range(d + 1):
        for pivots in itertools.combinations(range(d), r):
            fillings = []
            for c in pivots:
                # 1 at the pivot, any value at a free column past it, else 0
                rows = itertools.product(*(
                    (1,) if k == c else range(p) if k > c and k not in pivots else (0,)
                    for k in range(d)
                ))
                fillings.append([_pack(row) for row in rows] if p == 2 else list(rows))
            blocks = [1] * (r + 1)  # blocks[k]: the bases below a k-row prefix
            for k in range(r - 1, -1, -1):
                blocks[k] = blocks[k + 1] * len(fillings[k])
            if start is None or r == 0:
                yield (), r, blocks[0], start if start is None else last(start, ())
                continue
            stack = [((), start)]  # nodes still to visit, the next one last
            while stack:
                prefix, state = stack.pop()
                k = len(prefix)
                if state is None:
                    yield prefix, r, blocks[k], None
                elif k == r - 1:
                    for row in fillings[k]:
                        yield prefix + (row,), r, 1, last(state, (row,))
                else:
                    stack += reversed([
                        (prefix + (row,), grow(state, (row,))) for row in fillings[k]
                    ])


def _keep(state, rows):
    return state


def enumerate_subspaces(p: int, d: int) -> Iterator[RowSpace]:
    """Every subspace of F_p^d exactly once.

    Order: rank ascending, then pivot-column pattern lexicographic, then the
    free entries filled row-major with values 0..p-1.  The total count is the
    Galois number (sum of Gaussian binomial coefficients).  Each pivot's
    row lists its fillings in that order, as native rows, and the bases
    are their products, row 0 slowest (_row_prefixes with no block
    settled).
    """
    for basis, *_ in _row_prefixes(p, d, _keep, _keep, True):
        yield RowSpace(p, d, basis)


def first_subspaces(p: int, d: int, fill):
    """The subspaces U of F_p^d, in enumerate_subspaces order, with whole
    blocks settled at a row prefix P of their bases: where P is not first
    in its orbit under the diagonal scalings (scale_first) or where its
    images fill, fill({}, P) is None for fill from image_fills.  Every
    completion U of such a P is then not first, or fills, too: is_first
    scans the rows in order, so it meets P's entry first, and U's images
    contain P's.

    Yields (basis, rank, count, lead), as _row_prefixes does: lead None
    for a settled block of count subspaces of rank rank, each not first
    or filling, and otherwise a whole basis that is first in its orbit
    and whose rows but the last do not fill, with lead =
    fill({}, basis[:-1]).  So fill(lead, basis[-1:]) finishes its test.
    At p = 2 every subspace is first."""
    lead = fill({}, ())
    if p == 2:
        return _row_prefixes(p, d, fill, _keep, lead)

    def grow(state, rows):
        label = _first_rows(state[0], rows)
        lead = None if label is None else fill(state[1], rows)
        return None if lead is None else (label, lead)

    def last(state, rows):
        return None if _first_rows(state[0], rows) is None else state[1]

    return _row_prefixes(p, d, grow, last, lead if lead is None else (list(range(d)), lead))


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
