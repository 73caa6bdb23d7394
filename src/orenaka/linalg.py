"""Exact rational linear algebra kernels.

Scalars are arbitrary-precision rationals (``fractions.Fraction``) at
the public API, dense matrices are immutable row tuples, subspaces are
stored in fully reduced row echelon form so that equality of spans is
structural equality, and tensors are sparse maps from index words to
scalars; subspaces and tensors hold integers inside (see "Scaled
integers" below).

Conventions used everywhere in the package:

* Words are tuples of 0-based letters ``(i_0, ..., i_{m-1})`` over an
  alphabet of ``nv`` letters.  The flat index of a word is
  ``sum(i_k * nv**(m-1-k))``: the leftmost tensor factor is the most
  significant digit, so flat order equals lexicographic word order.
* A matrix acting on generators stores images in rows: row ``i`` holds
  the coordinates of the image of the ``i``-th generator.

All values are immutable after construction and every operation is a
pure function, so values may be shared freely between threads.

Sandwiches.  Every Koszul-side object is a sandwich V^a (x) S (x) V^b
of a subspace S of V^(x)k.  ``shift`` builds it and ``expand_scaled``
reads coordinates off it (``sandwich_map`` maps S through them), both
resting on one invariant: shifting an RREF basis of S by the unit words
of V^a and V^b gives an RREF basis of the sandwich.  Each shifted row
keeps its own pivot (flat order is monotone in the middle word for
fixed outer words), and two rows with different outer words share no
coordinate, so no pivot column of one row appears in another.  The
coefficient of a sandwich element on the row (J_left, l, J_right) is
therefore its entry at the word J_left + pivot_word(l) + J_right.

Elimination.  One kernel row-reduces for the whole package, in two
modes.  Forward only (``_forward``), it clears each row at its leading
column and returns an echelon basis; ``rank`` counts its rows, over Q
or, given a prime, over F_p.  ``echelon`` runs over Q only: forward,
and with ``reduced=True`` one back pass makes it the canonical RREF;
``solve_columns`` and ``Matrix.inverse`` read their results off that
through ``fraction_rows``, while ``Subspace``, ``subspace_intersect``,
``FactoredColumns`` and the normal-form reducer of ``quadratic`` keep
the integer rows.  That reducer is eliminated forward when its piece is
built, and ``_back`` completes it on the first read of its normal forms.  The
kernel picks its own row order (sparsest first).  The order is free because nothing
read off the kernel depends on it: the rank does not, the RREF of a
span is unique, and so is the particular solution with every free
unknown zero.  Modular ranks use one word-size prime, ``P``
= 2^30 - 35, so residues and their products stay small CPython ints.

Over Q the kernel is fraction-free.  Each input row is scaled once by
the lcm of its denominators and divided by its content, the gcd of its
entries.  A row r meets the pivot row piv at column c by
cross-multiplication, r <- (b/g) r - (a/g) piv with a = r[c], b =
piv[c] and g = gcd(a, b), and its content is removed again; the back
pass clears columns the same way.  Stored rows are primitive with a
positive pivot entry.  Only the output becomes Fractions, one
``Fraction(v, lead)`` per entry, and a rank builds none.  The result is
bit-identical to elimination in Fractions: a primitive row spans the
same line as the rational row normalised to 1, dividing by its pivot
entry gives that rational row exactly, and the RREF of a span is
unique.  Cost: an RREF row made primitive is the rational row times its
least common denominator, which divides the pivot minor det M_{S,C} of
the scaled input M (Cramer's rule on a row basis S and the pivot
columns C), so its entries are k x k minors of M up to a common factor,
at most Hadamard's bound of k*log2(k)/2 + k*log2(max |entry|) bits for
rank k.  No such bound is proved for the rows in flight of the forward
pass; they carry no denominators, and one clearing step holds the
product of two stored rows until the gcd pass, linear in the row
length, divides the content out.

Scaled integers.  ``Tensor`` and ``Subspace`` store integers: a tensor
its int numerators by word (``nums``) over one positive denominator
(``den``), a subspace the primitive integer RREF rows of ``echelon``.
One rule governs every scaled vector of the package.

* Sums are raw.  ``_combine`` adds keyed vectors and ``_int_sum``
  vectors placed at a stride and an offset; each returns int numerators
  over the lcm of its operands' denominators, with no gcd pass and the
  cancelled entries kept as zeros, so a zero test reads
  ``any(nums.values())``.  ``_residual`` (``Subspace.reduce``,
  ``escaping_row`` and the membership tests of ``morphisms`` and
  ``ore``) is one ``_combine``, and every sum between kernels is one of
  the two: the A_m column sums of ``quadratic``, and the tower stages,
  S^i, the read-backs and omega-hat's blocks in ``ore``.
* Canonical form is taken where a sum's result is stored: no zero
  numerator and gcd(den, *nums) = 1 (``_canonical``), so den is the lcm
  of the reduced denominators of the entries and equal values compare
  equal structurally.  ``Tensor._from_scaled`` takes it for every tensor
  a kernel returns (``apply_matrix_slots``, ``apply_images_at``,
  ``combine``, ``scale``, ``tensor``, ``sandwich_map``,
  ``DerivationLift.extend``; ``tau`` and negation keep it),
  ``_DeferredTensor`` on the first read of its words (omega-hat), ``ore``
  for each stored tower stage and S^i, and ``quadratic`` for each cached
  normal form.
* Fractions exist only at the public edge, for callers outside the
  package: ``Tensor.entries`` is a read-only view built on the first
  read, and ``Subspace.basis()`` builds its Fractions on each call.
  Inside, a subspace becomes tensors straight from its primitive rows
  (``basis_tensors``).

The results are the Fraction results exactly: a rational vector has one
canonical scaled form, and the kernels compute the same rationals in
integers.  The cost is bounded by the shared denominators: a kernel's
denominator is at most the product of its operands' (the lcm, for
sums), and the canonical form divides the common factors out where a
result is stored.  The operands that reach these kernels carry small
denominators.  The large coefficients of the normal forms (150 bits in
degree 5 on the Sklyanin extension of the benchmark) are integers too,
but they meet only ``echelon`` and the integer sums of ``quadratic``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import NotInvertibleError

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(x) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    Strings may be integers ("7"), ratios ("3/4") or finite decimals
    ("0.25"); all parse exactly.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass a string or Fraction")
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def scalar_str(x: Fraction) -> str:
    """Canonical string form: "n" for integers, "n/d" otherwise."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def word_flat(word: Sequence[int], nv: int) -> int:
    f = 0
    for k in word:
        f = f * nv + k
    return f


def flat_word(flat: int, degree: int, nv: int) -> tuple[int, ...]:
    w = []
    for _ in range(degree):
        flat, r = divmod(flat, nv)
        w.append(r)
    return tuple(reversed(w))


# ---------------------------------------------------------------------------
# Dense matrices


class Matrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(scalar(e) for e in row) for row in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "nrows", len(rs))
        object.__setattr__(self, "ncols", len(rs[0]) if rs else 0)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[ZERO] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(scalar_str(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            cols = list(zip(*other.rows)) if other.rows else []
            return Matrix(
                [[sum((a * b for a, b in zip(row, col)), ZERO) for col in cols] for row in self.rows]
            )
        return Matrix([[a * scalar(other) for a in r] for r in self.rows])

    __rmul__ = __mul__

    def mul_vec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-times-column-vector."""
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows))) if self.rows else Matrix([])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def inverse(self) -> "Matrix":
        """Inverse by reduced elimination of [M | I]: M is invertible
        exactly when the pivots are the columns 0..n-1 of M."""
        if not self.is_square():
            raise NotInvertibleError("non-square matrix")
        n = self.nrows
        aug = [
            {**{j: e for j, e in enumerate(r) if e}, n + i: ONE}
            for i, r in enumerate(self.rows)
        ]
        piv = fraction_rows(echelon(aug, reduced=True))
        if any(p >= n for p in piv):
            raise NotInvertibleError("singular matrix")
        return Matrix([[piv[i].get(n + j, ZERO) for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# Elimination

P = (1 << 30) - 35  # the largest prime below 2^30


def echelon(rows: Iterable[Mapping], reduced: bool = False) -> dict[int, dict[int, int]]:
    """Echelon basis over Q of the span of sparse rows, as {pivot: int
    row}.

    Entries may be ints or Fractions.  Each row is scaled once to
    integers and divided by its content; every stored row is primitive
    with a positive entry at its pivot, and stands for the rational row
    ``{k: v / row[pivot]}`` (``fraction_rows``).

    Rows are taken sparsest first.  Each is cleared at its leading
    column against the pivot row stored there (``_forward``) until it
    finds a free leading column, where it is stored, or vanishes.  With
    ``reduced`` one back pass in descending pivot order clears every
    pivot column from the other rows, which gives the canonical RREF
    basis.
    """
    pivots = _forward((_integer_row(row, None) for row in sorted(rows, key=len)), None)
    return _back(pivots) if reduced else pivots


def _forward(
    rows: Iterable[dict[int, int]], p: int | None, cap: int | None = None
) -> dict[int, dict[int, int]]:
    """The forward pass of ``echelon`` on integer rows, which it
    consumes: the echelon basis {pivot: row}.  It stops once it holds
    ``cap`` pivots."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        if len(pivots) == cap:
            break
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                if p is not None:
                    inv = pow(r[lead], -1, p)
                    r = {k: v * inv % p for k, v in r.items()}
                elif r[lead] < 0:
                    r = {k: -v for k, v in r.items()}
                pivots[lead] = r
                break
            r = _clear(r, piv, lead, p)
    return pivots


def _back(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The back pass of ``echelon``, in place: each row in descending
    pivot order loses every other pivot column.  Each later row is
    reduced already, so clearing against it brings in no pivot column:
    one list of hits per row suffices."""
    for lead in sorted(pivots, reverse=True):
        r = pivots[lead]
        for k in [k for k in r if k != lead and k in pivots]:
            r = _clear(r, pivots[k], k, None)
        pivots[lead] = r
    return pivots


def _integer_row(row: Mapping, p: int | None) -> dict[int, int]:
    """A row's nonzero entries as ints, scaled by the lcm of the
    denominators (none when every entry is an int): over Q made
    primitive, over F_p reduced mod p."""
    r = row
    if not all(type(v) is int for v in row.values()):
        den = lcm(*[v.denominator for v in row.values()])
        r = {k: v.numerator * (den // v.denominator) for k, v in row.items()}
    if p is None:
        return _primitive({k: v for k, v in r.items() if v})
    return {k: x for k, v in r.items() if (x := v % p)}


def _clear(r: dict, piv: Mapping, col: int, p: int | None) -> dict:
    """r with column ``col`` cleared against the pivot row ``piv``, in
    place.  Over F_p, where piv[col] is 1, r - r[col] * piv; over Q, the
    primitive part of (b/g) * r - (a/g) * piv with a = r[col], b =
    piv[col] and g = gcd(a, b)."""
    a = r[col]
    if p is not None:
        for k, v in piv.items():
            s = (r.get(k, 0) - a * v) % p
            if s:
                r[k] = s
            else:
                del r[k]
        return r
    b = piv[col]
    g = gcd(a, b)
    a //= g
    b //= g
    if b != 1:
        for k in r:
            r[k] *= b
    for k, v in piv.items():
        s = r.get(k, 0) - a * v
        if s:
            r[k] = s
        else:
            del r[k]
    return _primitive(r)


def _primitive(r: dict[int, int]) -> dict[int, int]:
    """r divided by its content, the gcd of its entries."""
    g = gcd(*r.values())
    return {k: v // g for k, v in r.items()} if g > 1 else r


def fraction_rows(pivots: Mapping[int, Mapping[int, int]]) -> dict[int, dict[int, Fraction]]:
    """The rational rows of an ``echelon`` result over Q, each
    normalised to 1 at its pivot: one Fraction per entry."""
    return {
        lead: {k: Fraction(v, r[lead]) for k, v in r.items()} for lead, r in pivots.items()
    }


def rank(rows: Iterable[Mapping], p: int | None = None, cap: int | None = None) -> int:
    """Rank of the span of sparse rows: forward elimination only.

    With a prime ``p`` the rank is taken over F_p of the rows scaled to
    integers, and rank mod p <= rank over Q: a nonzero minor mod p is
    the image of a nonzero integer minor, and scaling a row by a nonzero
    integer keeps the rank over Q.  Without ``p`` the result is the
    exact rank over Q.  With a ``cap`` >= 0 the pass stops once it holds
    ``cap`` pivots, and the result is min(cap, rank).
    """
    return len(_forward((_integer_row(row, p) for row in sorted(rows, key=len)), p, cap))


def row_rank(rows: Sequence[Mapping]) -> int:
    """The rank over Q of a few rows, mod ``P`` first: rank mod p <= rank
    over Q <= len(rows) (``rank``), so a full rank mod p is the rank over
    Q, and only a shortfall is counted again over Q."""
    n = len(rows)
    r = rank(rows, P, n)
    return r if r == n else rank(rows)


# ---------------------------------------------------------------------------
# Subspaces in canonical reduced row echelon form


class Subspace:
    """A subspace of k^N stored as a fully reduced RREF basis.

    The stored basis is canonical: two subspaces are equal as spans if
    and only if they compare equal structurally.  Rows are the primitive
    integer rows of ``echelon``, sparse dicts keyed by coordinate index
    with a positive entry at the pivot and every other pivot column
    cleared; ``basis()`` gives them as Fractions, normalised to 1 at the
    pivot.
    """

    __slots__ = ("ambient", "_rows")

    def __init__(self, ambient: int, rows: Iterable[Mapping] = ()):
        self.ambient = ambient
        self._rows = echelon(
            ({k: v if type(v) is int else scalar(v) for k, v in row.items()} for row in rows),
            reduced=True,
        )
        if self._rows and (
            min(self._rows) < 0 or max(max(r) for r in self._rows.values()) >= ambient
        ):
            raise ValueError("coordinate outside ambient space")

    @staticmethod
    def _from_rref(ambient: int, rows: dict[int, dict[int, int]]) -> "Subspace":
        """Trusted constructor: ``rows`` maps each pivot to its primitive
        integer row and is already a fully reduced RREF basis; nothing is
        eliminated."""
        s = Subspace.__new__(Subspace)
        s.ambient = ambient
        s._rows = rows
        return s

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace._from_rref(n, {i: {i: 1} for i in range(n)})

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def basis(self) -> list[dict]:
        """RREF basis rows in pivot order, as Fractions (new dicts)."""
        rows = self._rows
        return [_unscaled(rows[p], rows[p][p]) for p in sorted(rows)]

    def int_rows(self) -> list[dict[int, int]]:
        """The primitive integer RREF rows in pivot order (new dicts);
        each spans the line of its ``basis()`` row."""
        rows = self._rows
        return [dict(rows[p]) for p in sorted(rows)]

    def basis_tensors(self, nv: int, degree: int) -> list["Tensor"]:
        """The ``basis()`` rows as tensors in V^(x)degree over nv letters,
        read off the primitive integer rows: a row over its positive pivot
        entry is already canonical, as the row's content is 1."""
        if self.ambient != nv**degree:
            raise ValueError(f"the space does not lie in V^(x){degree} over {nv} letters")
        rows = self._rows
        return [
            Tensor._trusted(
                nv, degree, {flat_word(k, degree, nv): n for k, n in rows[p].items()}, rows[p][p]
            )
            for p in sorted(rows)
        ]

    def reduce(self, vec: Mapping) -> dict:
        """Canonical remainder of vec modulo this subspace, zeros dropped.

        A basis row carries no pivot column but its own, so the pivots
        hit by vec are all the subtractions there are."""
        return _unscaled(*_residual(*_scaled(vec), self._rows))

    def contains(self, vec: Mapping) -> bool:
        return not self.reduce(vec)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient, tuple(sorted((p, tuple(sorted(r.items()))) for p, r in self._rows.items()))))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"


def shift(s: Subspace, nv: int, left: int, right: int) -> Subspace:
    """V^(x)left (x) S (x) V^(x)right inside V^(x)(left + deg S + right).

    The shifted RREF rows of S are installed as they are (see the module
    docstring for why they already form an RREF basis).
    """
    outer = nv**right
    block = s.ambient * outer
    rows = {}
    for p, row in s._rows.items():
        for lf in range(nv**left):
            base = lf * block
            for rf in range(outer):
                rows[base + p * outer + rf] = {
                    base + k * outer + rf: c for k, c in row.items()
                }
    return Subspace._from_rref(block * nv**left, rows)


def subspace_intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """S1 n S2, from the remainders of S2's basis modulo S1: one forward
    elimination with a row per basis row of S2, none per coordinate.

    Let b_1..b_m be the primitive rows of S2 and r_j = b_j mod S1 the
    remainder of ``_residual``, a raw nums_j / den_j.  The remainder is
    a linear map with kernel S1 (a reduced RREF row carries no pivot
    column but its own, so r_j is b_j minus one multiple of each row of
    S1 at a pivot that b_j hits, and it vanishes exactly on S1).  So for
    t in Q^m, v = sum t_j b_j lies in S1 iff sum t_j r_j = 0, and as
    every such v lies in S2 and the b_j are independent, t -> v maps the
    dependencies {t : sum t_j r_j = 0} isomorphically onto S1 n S2.

    The dependencies are read off one forward ``echelon`` of the rows
    (nums_j | den_j e_j), den_j (r_j | e_j) with e_j a tag column j past
    the ambient space N; scaling a row keeps its span.  The row space is
    {(sum l_j r_j | l)}, and its vectors that vanish on the columns
    below N are (0 | t) for the dependencies t.  In an echelon basis
    those are spanned by the rows whose pivot is at least N: a
    combination using a row with a pivot below N has its least such
    pivot as a nonzero entry.  Those rows are (0 | t) themselves and
    independent, so their tags are a basis of the dependencies, and
    sum t_j b_j over them is a basis of S1 n S2; ``Subspace`` makes it
    the canonical RREF.  Every entry is an int: no Fraction is built.
    """
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    n = s1.ambient
    b2 = list(s2._rows.values())
    if not s1._rows or not b2:
        return Subspace(n)
    tagged = []
    for j, b in enumerate(b2):
        nums, den = _residual(b, 1, s1._rows)
        nums[n + j] = den
        tagged.append(nums)
    deps = [r for p, r in echelon(tagged).items() if p >= n]
    # the numerators alone: one common scale leaves a span unchanged
    rows = [_combine((t, b2[k - n], 1) for k, t in r.items())[0] for r in deps]
    return Subspace(n, rows)


# ---------------------------------------------------------------------------
# Affine solving


def solve_columns(
    cols: Sequence[Mapping], rhs_list: Sequence[Mapping]
) -> tuple[list[list[Fraction] | None], list[dict]]:
    """Solve sum_j x_j * cols[j] = rhs for all rhs at once, by one
    reduced ``echelon`` of the augmented rows.

    ``cols`` are sparse dicts over arbitrary hashable row keys.  It
    serves systems solved once, the twist system and the admissible
    lifts of ``morphisms``; a system met again with new right-hand sides
    is factored once instead (``FactoredColumns``), and this is the test
    oracle of that read.

    Returns ``(particulars, kernel)`` where ``particulars[t]`` is the
    canonical solution of ``rhs_list[t]`` with every free unknown set to
    zero (``None`` if that system is inconsistent) and ``kernel`` is a
    basis of the homogeneous solution space, as sparse dicts over
    unknown indices.
    """
    u = len(cols)
    # augmented rows: unknown j at column j, right-hand side t at u + t
    rows: dict = {}
    for j, col in enumerate(cols):
        for rk, v in col.items():
            if v:
                rows.setdefault(rk, {})[j] = v
    for t, rhs in enumerate(rhs_list):
        for rk, v in rhs.items():
            if v:
                rows.setdefault(rk, {})[u + t] = v
    pivots = fraction_rows(echelon(rows.values(), reduced=True))
    # a pivot row past the unknowns reads 0 = rhs_t for each t it carries
    inconsistent = {k - u for p, r in pivots.items() if p >= u for k in r}
    bound = [(p, r) for p, r in pivots.items() if p < u]
    kernel = []
    for f in range(u):
        if f not in pivots:
            kv = {f: ONE}
            for p, r in bound:
                c = r.get(f)
                if c:
                    kv[p] = -c
            kernel.append(kv)
    particulars: list[list[Fraction] | None] = []
    for t in range(len(rhs_list)):
        if t in inconsistent:
            particulars.append(None)
            continue
        x = [ZERO] * u
        for p, r in bound:
            x[p] = r.get(u + t, ZERO)
        particulars.append(x)
    return particulars, kernel


class FactoredColumns:
    """The system sum_j x_j * cols[j] = b over the equations 0..neq-1,
    factored once so that each right-hand side b is a read.

    One reduced ``echelon`` of the rows of [C | I], C the matrix with
    columns ``cols`` (int or Fraction entries) and I the identity on the
    equations, unknown j at column j and equation e at u + e.  [C | I]
    has full row rank, so its RREF is [T C | T] for the invertible T
    that the identity block records, and T C is RREF(C) followed by
    zero rows: its rows leading at an unknown span the row space of C
    and are reduced.  T [C | b] = [RREF(C) | T b] has the solutions of
    [C | b], so:

    * the row of T leading at the pivot unknown p reads x_p = (T b)_p,
      the canonical particular solution (every free unknown zero);
    * the rows of T whose C-part is zero are a basis of the left kernel
      of C, and b is consistent iff each of them vanishes on b;
    * ``kernel`` holds, per free unknown f in order, x_f = 1 and x_p =
      -RREF(C) at (p, f), as (int numerators, den).

    These are the pivot unknowns, the particular solution, the kernel
    basis and its order, and the consistency test of ``solve_columns(cols,
    [b])``, which reduces [C | b] itself: both read RREF(C) and the one
    solution set of C x = b.

    T is kept by equation for the read: ``columns[e]`` lists (slot, n),
    n the entry at e of the row in that slot.  Slot s < len(``pivots``)
    holds the row of ``pivots[s]`` over the common denominator ``den``,
    and each later slot one consistency row.
    """

    __slots__ = ("den", "pivots", "columns", "kernel", "_size")

    def __init__(self, cols: Sequence[Mapping], neq: int):
        u = len(cols)
        rows = [{u + e: 1} for e in range(neq)]
        for j, col in enumerate(cols):
            for e, v in col.items():
                if v:
                    rows[e][j] = v
        rref = echelon(rows, reduced=True)
        self.pivots = sorted(p for p in rref if p < u)
        den = self.den = lcm(*[rref[p][p] for p in self.pivots])
        order = self.pivots + sorted(p for p in rref if p >= u)
        self._size = len(order)
        self.columns: dict[int, list[tuple[int, int]]] = {}
        for slot, p in enumerate(order):
            f = den // rref[p][p] if p < u else 1
            for k, n in rref[p].items():
                if k >= u:
                    self.columns.setdefault(k - u, []).append((slot, n * f))
        self.kernel = [
            _canonical({f: den, **{
                p: -rref[p][f] * (den // rref[p][p]) for p in self.pivots if f in rref[p]
            }}, den)
            for f in range(u)
            if f not in rref
        ]

    def solve(self, b: Mapping[int, int]) -> dict[int, int] | None:
        """The canonical particular solution for the int right-hand side
        b, keyed by equation, as int numerators over ``den`` (zeros
        dropped); None when b is inconsistent."""
        acc = [0] * self._size
        get = self.columns.get
        for e, c in b.items():
            if c:
                for slot, n in get(e, ()):
                    acc[slot] += c * n
        if any(acc[len(self.pivots):]):
            return None
        return {p: c for p, c in zip(self.pivots, acc) if c}


# ---------------------------------------------------------------------------
# Scaled integers (see the module docstring)


def _scaled(entries: Mapping) -> tuple[dict, int]:
    """Fraction or int entries as int numerators over their least common
    denominator: ``(numerators, den)``."""
    den = lcm(*[c.denominator for c in entries.values()])
    return {k: c.numerator * (den // c.denominator) for k, c in entries.items()}, den


def _unscaled(nums: Mapping, den: int) -> dict:
    """Int numerators over ``den`` back to Fractions, zeros dropped."""
    return {k: Fraction(n, den) for k, n in nums.items() if n}


def _canonical(nums: Mapping, den: int) -> tuple[dict, int]:
    """Numerators over a positive den in canonical form: zeros dropped
    and gcd(den, *nums) divided out."""
    g = gcd(den, *nums.values())  # zeros leave the gcd alone
    if g > 1:
        return {k: n // g for k, n in nums.items() if n}, den // g
    if 0 in nums.values():
        nums = {k: n for k, n in nums.items() if n}
    return nums, den


def _combine(terms: Iterable[tuple]) -> tuple[dict, int]:
    """The sum of c * nums / den over (c, nums, den) triples, c an int
    or a Fraction; keys may be any hashables.  A raw sum: int numerators
    over the lcm of the c.denominator * den, cancelled entries kept as
    zeros."""
    parts = [(c.numerator, c.denominator * den, nums) for c, nums, den in terms if c and nums]
    big = lcm(*[d for _, d, _ in parts])
    out: dict = {}
    get = out.get
    for cn, d, nums in parts:
        f = cn * (big // d)
        for k, n in nums.items():
            out[k] = get(k, 0) + f * n
    return out, big


def _int_sum(terms: Iterable[tuple]) -> tuple[dict[int, int], int]:
    """The sum of c * nums / den over terms (c, (nums, den), stride,
    offset), entry k of nums placed at column k * stride + offset; c may
    be an int or a Fraction.  A raw sum, like ``_combine``: int
    numerators over the lcm of the c.denominator * den, cancelled
    entries kept as zeros."""
    terms = [(c.numerator, c.denominator * d, nums, st, off) for c, (nums, d), st, off in terms]
    big = lcm(*[d for _, d, _, _, _ in terms])
    out: dict[int, int] = {}
    get = out.get
    for cn, d, nums, st, off in terms:
        f = cn * (big // d)
        for k, n in nums.items():
            key = k * st + off
            out[key] = get(key, 0) + f * n
    return out, big


def _residual(nums: Mapping, den: int, rows: Mapping) -> tuple[dict, int]:
    """The remainder of the vector nums / den modulo the span of the
    primitive RREF ``rows`` ({pivot: row}), a raw ``_combine``: its
    numerators are all zero exactly when the vector lies in the span.  A
    row carries no pivot column but its own, so the pivots hit by the
    vector are all the subtractions there are."""
    return _combine(
        [(1, nums, den)] + [(-nums[k], rows[k], den * rows[k][k]) for k in nums if k in rows]
    )


def _scaled_images(images: Sequence["Tensor"]) -> tuple[list[list[tuple]], int]:
    """Each image tensor as (word, numerator) pairs, all over the lcm of
    their denominators."""
    den = lcm(*[t.den for t in images])
    return [[(w, n * (den // t.den)) for w, n in t.nums.items()] for t in images], den


def _matrix_images(m: Matrix) -> tuple[list[list[tuple]], int]:
    """The rows of m as scaled images of the letters: row i sends the
    one-letter word (i,) to sum_j m[i][j] (j,)."""
    den = lcm(*[a.denominator for r in m.rows for a in r])
    return [
        [((j,), a.numerator * (den // a.denominator)) for j, a in enumerate(r) if a]
        for r in m.rows
    ], den


def escaping_row(space: Subspace, m: Matrix) -> int | None:
    """The pivot-order position of the first basis row of S inside V (x)
    V whose image under m (x) m leaves S, or None when (m (x) m)(S) <= S.

    Each primitive int row is mapped on the flat indices a * nv + b by
    the scaled rows of m (``_matrix_images``) and reduced by
    ``_residual``.  Scaling a vector does not move it in or out of S, so
    the common denominator is dropped."""
    nv = m.nrows
    if m.ncols != nv or space.ambient != nv * nv:
        raise ValueError("matrix size must match the alphabet of the space")
    images, _ = _matrix_images(m)
    rows = space._rows
    for pos, p in enumerate(sorted(rows)):
        out: dict = {}
        get = out.get
        for k, c in rows[p].items():
            a, b = divmod(k, nv)
            tail = images[b]
            for (i,), x in images[a]:
                f = c * x
                base = i * nv
                for (j,), y in tail:
                    key = base + j
                    out[key] = get(key, 0) + f * y
        if any(_residual(out, 1, rows)[0].values()):
            return pos
    return None


def _substitute_at(nums: Mapping, k: int, images) -> dict:
    """Substitute images[letter] for the letter at 0-based slot k of
    each word: the sum of c * head (x) images[w[k]] (x) tail."""
    out: dict = {}
    get = out.get
    for w, c in nums.items():
        head, tail = w[:k], w[k + 1 :]
        for iw, ic in images[w[k]]:
            key = head + iw + tail
            out[key] = get(key, 0) + c * ic
    return out


# ---------------------------------------------------------------------------
# Sparse tensors


class Tensor:
    """Sparse element of V^(x)m over an nv-letter alphabet.

    Stored as int numerators by length-m word (``nums``; words are
    tuples of 0-based letters) over one positive denominator (``den``),
    in canonical form: no zero numerator and gcd(den, *nums) = 1 (see
    the module docstring).  ``entries`` is the read-only Fraction view.
    ``nums`` must not be mutated: tensors share it.
    """

    __slots__ = ("nv", "degree", "nums", "den", "_entries")

    def __init__(self, nv: int, degree: int, entries: Mapping | None = None):
        self.nv = nv
        self.degree = degree
        es: dict[tuple, Fraction] = {}
        if entries:
            for w, c in entries.items():
                c = scalar(c)
                if not c:
                    continue
                w = tuple(w)
                if len(w) != degree or any(not (0 <= k < nv) for k in w):
                    raise ValueError(f"bad word {w} for degree {degree} over {nv} letters")
                es[w] = c
        # the lcm of reduced denominators is the canonical den
        self.nums, self.den = _scaled(es)
        self._entries = None

    @staticmethod
    def word(nv: int, w: Sequence[int], coeff=ONE) -> "Tensor":
        return Tensor(nv, len(w), {tuple(w): scalar(coeff)})

    @staticmethod
    def _trusted(nv: int, degree: int, nums: dict, den: int) -> "Tensor":
        """Trusted constructor: ``nums`` over ``den`` is already canonical
        on valid words."""
        t = Tensor.__new__(Tensor)
        t.nv = nv
        t.degree = degree
        t.nums = nums
        t.den = den
        t._entries = None
        return t

    @staticmethod
    def _from_scaled(nv: int, degree: int, nums: Mapping, den: int) -> "Tensor":
        """A kernel's int numerators over den > 0, made canonical."""
        return Tensor._trusted(nv, degree, *_canonical(nums, den))

    @property
    def entries(self) -> Mapping[tuple, Fraction]:
        """The nonzero entries as Fractions, by word: a read-only view,
        built on the first read."""
        if self._entries is None:
            self._entries = MappingProxyType(_unscaled(self.nums, self.den))
        return self._entries

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.nv == other.nv
            and self.degree == other.degree
            and self.den == other.den
            and self.nums == other.nums
        )

    def __repr__(self):
        if not self.nums:
            return f"Tensor(0 in V^{self.degree})"
        parts = [f"{scalar_str(c)}*{w}" for w, c in sorted(self.entries.items())]
        return "Tensor(" + " + ".join(parts) + ")"

    def __add__(self, other: "Tensor") -> "Tensor":
        return Tensor.combine(self.nv, self.degree, ((ONE, self), (ONE, other)))

    def __sub__(self, other: "Tensor") -> "Tensor":
        return Tensor.combine(self.nv, self.degree, ((ONE, self), (-ONE, other)))

    def __neg__(self) -> "Tensor":
        return Tensor._trusted(
            self.nv, self.degree, {w: -n for w, n in self.nums.items()}, self.den
        )

    def scale(self, c) -> "Tensor":
        c = scalar(c)
        f = c.numerator
        nums = {w: f * n for w, n in self.nums.items()}
        return Tensor._from_scaled(self.nv, self.degree, nums, self.den * c.denominator)

    def tensor(self, other: "Tensor") -> "Tensor":
        if self.nv != other.nv:
            raise ValueError("alphabet mismatch")
        nums = {
            w1 + w2: n1 * n2 for w1, n1 in self.nums.items() for w2, n2 in other.nums.items()
        }
        return Tensor._from_scaled(
            self.nv, self.degree + other.degree, nums, self.den * other.den
        )

    @staticmethod
    def combine(nv: int, degree: int, terms: Iterable[tuple]) -> "Tensor":
        """The linear combination of (coefficient, tensor) pairs
        (``_combine``)."""
        terms = list(terms)
        if any(t.nv != nv or t.degree != degree for _, t in terms):
            raise ValueError("tensor shape mismatch")
        return Tensor._from_scaled(nv, degree, *_combine((scalar(c), t.nums, t.den) for c, t in terms))

    def apply_matrix_slots(self, slots: Iterable[int], m: Matrix) -> "Tensor":
        """Apply an nv x nv matrix (rows are images) at each listed factor.

        ``slots`` are 1-based, matching the usual tensor-leg notation.
        All slots share one integer pass.
        """
        slots = list(slots)
        if any(not (1 <= s <= self.degree) for s in slots):
            raise ValueError("slot out of range")
        if m.nrows != self.nv or m.ncols != self.nv:
            raise ValueError("matrix size must match the alphabet")
        rows, mden = _matrix_images(m)
        nums = self.nums
        for s in slots:
            nums = _substitute_at(nums, s - 1, rows)
        return Tensor._from_scaled(self.nv, self.degree, nums, self.den * mden ** len(slots))

    def apply_matrix_at(self, slot: int, m: Matrix) -> "Tensor":
        """Apply an nv x nv matrix at one factor (1-based)."""
        return self.apply_matrix_slots((slot,), m)

    def apply_images_at(self, slot: int, images: Sequence["Tensor"]) -> "Tensor":
        """Substitute a linear map V -> V^(x)k at one factor (1-based)."""
        if not (1 <= slot <= self.degree):
            raise ValueError("slot out of range")
        if len(images) != self.nv:
            raise ValueError("one image tensor per letter required")
        imgs, iden = _scaled_images(images)
        out = _substitute_at(self.nums, slot - 1, imgs)
        degree = self.degree + images[0].degree - 1
        return Tensor._from_scaled(self.nv, degree, out, self.den * iden)

    def tau(self, i: int) -> "Tensor":
        """The staircase rotation tau_d^i: the first factor moves to
        position i+1 while factors 2..i+1 shift left one place."""
        if not (0 <= i <= self.degree - 1):
            raise ValueError("tau index out of range")
        if i == 0:
            return self
        nums = {w[1 : i + 1] + (w[0],) + w[i + 1 :]: n for w, n in self.nums.items()}
        return Tensor._trusted(self.nv, self.degree, nums, self.den)

    def to_vec(self) -> dict[int, Fraction]:
        nv = self.nv
        return {word_flat(w, nv): c for w, c in self.entries.items()}

    @staticmethod
    def from_vec(vec: Mapping[int, Fraction], nv: int, degree: int) -> "Tensor":
        """The tensor with entry vec[f] at the word of flat index f; every
        index must lie in 0..nv**degree - 1."""
        size = nv**degree
        es = {}
        for f, c in vec.items():
            if not 0 <= f < size:
                raise ValueError(f"index {f} outside V^(x){degree} over {nv} letters")
            c = scalar(c)
            if c:
                es[flat_word(f, degree, nv)] = c
        return Tensor._trusted(nv, degree, *_scaled(es))

    def terms(self) -> list[tuple[tuple, Fraction]]:
        return sorted(self.entries.items())


class _DeferredTensor(Tensor):
    """A ``Tensor`` whose ``nums`` and ``den`` are made on their first
    read: ``build()`` returns raw int numerators over a positive den,
    made canonical as by ``_from_scaled``, and is dropped once it has
    run.  Afterwards the tensor reads like any other."""

    __slots__ = ("_build",)

    def __init__(self, nv: int, degree: int, build: Callable[[], tuple[dict, int]]):
        self.nv = nv
        self.degree = degree
        self._entries = None
        self._build = build

    def __getattr__(self, name):
        # reached only for an unset slot: nums and den before the build.
        # Two threads may both build; they store the same values.
        if name not in ("nums", "den"):
            raise AttributeError(name)
        build = self._build
        if build is not None:
            self.nums, self.den = _canonical(*build())
            self._build = None
        return getattr(self, name)


def expand_scaled(
    t: Tensor, left: int, space: Subspace, space_degree: int, right: int
) -> tuple[dict[tuple[tuple, int, tuple], int], int] | None:
    """Coefficients of t in V^(x)left (x) S (x) V^(x)right as int
    numerators over ``t.den``, or None.

    ``space`` is S inside V^(x)space_degree.  The coefficient on
    (J_left, basis row l in pivot order, J_right) is t's entry at the
    shifted pivot word of row l; subtracting the expansion back out of
    t must leave zero, otherwise t lies outside the sandwich and the
    result is None, so ``expand_scaled(...) is not None`` is a
    membership test.  A tensor of another degree, or a space over
    another alphabet, raises ValueError.  The residual is taken in
    integers as L*den*(t - sum c*row), with L the lcm of the pivot
    entries of the space's primitive rows, each row over its own pivot
    entry.
    """
    nv = t.nv
    if t.degree != left + space_degree + right or space.ambient != nv**space_degree:
        raise ValueError("tensor does not match the sandwich shape")
    # the rows in pivot order as (pivot entry, [(word, entry)])
    piv = sorted(space._rows)
    index = {flat_word(p, space_degree, nv): l for l, p in enumerate(piv)}
    rows = []
    for p in piv:
        r = space._rows[p]
        rows.append((r[p], [(flat_word(k, space_degree, nv), n) for k, n in r.items()]))
    big = lcm(*[d for d, _ in rows])
    nums = t.nums
    rest = {w: big * n for w, n in nums.items()}
    get = rest.get
    end = left + space_degree
    coeffs: dict[tuple[tuple, int, tuple], int] = {}
    for w, n in nums.items():
        l = index.get(w[left:end])
        if l is not None:
            jl, jr = w[:left], w[end:]
            coeffs[(jl, l, jr)] = n
            d, row = rows[l]
            f = n * (big // d)
            for bw, bn in row:
                key = jl + bw + jr
                rest[key] = get(key, 0) - f * bn
    return None if any(rest.values()) else (coeffs, t.den)


def sandwich_map(
    t: Tensor,
    left: int,
    space: Subspace,
    space_degree: int,
    right: int,
    images: Sequence[Tensor],
    m: Matrix,
) -> Tensor | None:
    """(m^(x)left (x) f (x) id^(x)right)(t) for t in the sandwich
    V^(x)left (x) S (x) V^(x)right, or None when t lies outside it.

    f sends basis row l of S (pivot order) to ``images[l]``; the
    coefficients are read by ``expand_scaled``.  The m slots act on the
    left words of the coefficients before f substitutes the images,
    while the terms are fewest; the maps act on different factors, so
    the order does not change the result.
    """
    if not images or len(images) != space.dim:
        raise ValueError("one image per basis row of the space required")
    if m.nrows != t.nv or m.ncols != t.nv:
        raise ValueError("matrix size must match the alphabet")
    got = expand_scaled(t, left, space, space_degree, right)
    if got is None:
        return None
    coeffs, den = got
    # the word J_left + (l,) + J_right carries the coefficient on row l
    nums = {jl + (l,) + jr: c for (jl, l, jr), c in coeffs.items()}
    if left:
        rows, mden = _matrix_images(m)
        for k in range(left):
            nums = _substitute_at(nums, k, rows)
        den *= mden**left
    imgs, iden = _scaled_images(images)
    out = _substitute_at(nums, left, imgs)
    degree = left + images[0].degree + right
    return Tensor._from_scaled(t.nv, degree, out, den * iden)
