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
of a subspace S of V^(x)k.  ``shift`` builds it and ``expand_through``
reads coordinates off it (``sandwich_map`` maps S through them), both
resting on one invariant: shifting an RREF basis of S by the unit words
of V^a and V^b gives an RREF basis of the sandwich.  Each shifted row
keeps its own pivot (flat order is monotone in the middle word for
fixed outer words), and two rows with different outer words share no
coordinate, so no pivot column of one row appears in another.  The
coefficient of a sandwich element on the row (J_left, l, J_right) is
therefore its entry at the word J_left + pivot_word(l) + J_right.

Elimination.  One kernel, ``echelon``, row-reduces for the whole
package, over Q or over F_p, in two modes.  Forward only, it clears
each row at its leading column and returns an echelon basis; ``rank``
counts its rows.  With ``reduced=True`` one back pass makes it the
canonical RREF; ``solve_columns`` and ``Matrix.inverse`` read their
results off that through ``fraction_rows``, while ``Subspace`` and the
normal-form reducer of ``quadratic`` keep the integer rows.  The
kernel picks its own row order (sparsest first).  The order is free
because nothing read off the kernel depends on it: the rank does not,
the RREF of a span is unique, and so is the particular solution with
every free unknown zero.

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

Row selection mod P.  Modular work uses one word-size prime, ``P`` =
2^30 - 35, so residues and their products stay small CPython ints.  When
an int input entry has absolute value at least P (the gate; large rows,
such as the normal-form reducer's, come as ints, and reading a Fraction
costs more than the test saves), a reduced echelon over Q first runs the
forward pass mod P on the primitive rows, and eliminates over Q only the
rows that found a pivot there.  Integer rows independent mod P are
independent over Q (a rational dependence, cleared of denominators and
content, stays nonzero mod P), so they give the RREF of their span.
Each other row is checked against it by ``_residual``: an RREF row
carries no pivot column but its own, so one pass leaves a zero residual
exactly on the span.  If every residual is zero, that RREF, being
unique, is the RREF of all rows; otherwise (an unlucky prime) every row
is eliminated over Q.  The residual sum runs over the lcm of the pivot
entries, which divides det M_{S,C}.  Below the gate the pass mod P costs
about what it saves.

Scaled integers.  ``Tensor`` and ``Subspace`` store integers, and
Fractions exist only at the public edge.  A tensor holds its int
numerators by word (``nums``) over one positive denominator (``den``),
in canonical form: no zero numerator and gcd(den, *nums) = 1, so den is
the lcm of the reduced denominators of its entries and equal tensors
compare equal structurally.  A subspace holds the primitive integer
RREF rows of ``echelon``.  The Fractions are views: ``Tensor.entries``
and the coefficients of ``expand_through`` are ``FractionView``s, whose
values are built on the first read, and ``Subspace.basis()`` builds its
rows on each call.  The kernels (``Tensor.apply_matrix_slots``,
``apply_images_at``, ``combine``, ``tensor``, ``scale``, ``tau``,
``embed``, ``shift``, ``Subspace.reduce``, ``expand_scaled`` and
``sandwich_map``) read the stored numerators, multiply and add plain
ints over the product or lcm of the operands' denominators, and restore
the canonical form once, dropping zeros and dividing out gcd(den,
*nums).  ``_combine`` is the
one summation path: ``Tensor.combine``, the binary ``+`` and ``-``,
``_residual`` (``Subspace.reduce`` and the row check of ``echelon``)
and ``combination`` (the same sum on Fraction maps with any hashable
keys) are calls to it; only the sums over A_m columns
in ``quadratic`` keep their own integer loop.  The results are the
Fraction results exactly: a rational vector has one canonical scaled
form, and the kernels compute the same rationals in integers.  The cost
is bounded by the shared denominators: a kernel's denominator is at
most the product of its operands' (the lcm, for sums), and the
canonical form divides the common factors out after each kernel.  The
operands that reach these kernels carry small denominators.  The large
coefficients of the normal forms (150 bits in degree 5 on the Sklyanin
extension of the benchmark) are integers too, but they meet only
``echelon`` and the integer sums of ``quadratic``.
"""

from __future__ import annotations

from collections import abc
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import NoSolutionError, NotInvertibleError

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

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def _shape_check(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

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


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form of a dense matrix.

    Returns ``(rref_matrix, pivot_columns, rank)``; the result matrix
    keeps the shape of the input with zero rows at the bottom.
    """
    s = Subspace(m.ncols, ({j: e for j, e in enumerate(r) if e} for r in m.rows))
    rows = [[row.get(j, ZERO) for j in range(m.ncols)] for row in s.basis()]
    rows += [[ZERO] * m.ncols for _ in range(m.nrows - s.dim)]
    return Matrix(rows), list(s.pivots), s.dim


# ---------------------------------------------------------------------------
# Elimination

P = (1 << 30) - 35  # the largest prime below 2^30


def echelon(
    rows: Iterable[Mapping], p: int | None = None, reduced: bool = False
) -> dict[int, dict[int, int]]:
    """Echelon basis of the span of sparse rows, as {pivot: int row}.

    Entries may be ints or Fractions.  Over Q (no ``p``) each row is
    scaled once to integers and divided by its content; every stored row
    is primitive with a positive entry at its pivot, and stands for the
    rational row ``{k: v / row[pivot]}`` (``fraction_rows``).  With a
    prime ``p`` each row is scaled to integers by the lcm of its
    denominators and reduced mod p, and the stored rows are normalised
    to 1.

    Rows are taken sparsest first.  Each is cleared at its leading
    column against the pivot row stored there (``_forward``) until it
    finds a free leading column, where it is stored, or vanishes.  With
    ``reduced`` one back pass in descending pivot order clears every
    pivot column from the other rows, which gives the canonical RREF
    basis.  A reduced echelon over Q with an int entry of absolute value
    at least ``P`` eliminates only the rows chosen mod P (module
    docstring, "Row selection mod P").
    """
    rows = sorted(rows, key=len)
    if p is None and reduced and any(
        type(v) is int and abs(v) >= P for row in rows for v in row.values()
    ):
        ints = [_integer_row(row, None) for row in rows]
        # the rows that find a pivot mod P are independent over Q; the
        # mod-P pivots are dropped before the pass over Q
        found = _forward([_integer_row(r, P) for r in ints], P)[1]
        pivots = _back(_forward([ints[i] for i in found], None)[0], None)
        chosen = set(found)
        if not any(_residual(r, 1, pivots)[0] for i, r in enumerate(ints) if i not in chosen):
            return pivots
    pivots = _forward((_integer_row(row, p) for row in rows), p)[0]
    return _back(pivots, p) if reduced else pivots


def _forward(
    rows: Iterable[dict[int, int]], p: int | None, cap: int | None = None
) -> tuple[dict[int, dict[int, int]], list[int]]:
    """The forward pass of ``echelon`` on integer rows, which it
    consumes: the echelon basis {pivot: row} and the positions of the
    rows that found a pivot.  It stops once it holds ``cap`` pivots."""
    pivots: dict[int, dict[int, int]] = {}
    found = []
    for i, r in enumerate(rows):
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
                found.append(i)
                break
            r = _clear(r, piv, lead, p)
    return pivots, found


def _back(pivots: dict[int, dict[int, int]], p: int | None) -> dict[int, dict[int, int]]:
    """The back pass of ``echelon``, in place: each row in descending
    pivot order loses every other pivot column.  Each later row is
    reduced already, so clearing against it brings in no pivot column:
    one list of hits per row suffices."""
    for lead in sorted(pivots, reverse=True):
        r = pivots[lead]
        for k in [k for k in r if k != lead and k in pivots]:
            r = _clear(r, pivots[k], k, p)
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
    return len(_forward((_integer_row(row, p) for row in sorted(rows, key=len)), p, cap)[0])


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

    __slots__ = ("ambient", "_rows", "_words")

    def __init__(self, ambient: int, rows: Iterable[Mapping] = ()):
        self.ambient = ambient
        self._rows = echelon(
            ({k: v if type(v) is int else scalar(v) for k, v in row.items()} for row in rows),
            reduced=True,
        )
        self._words = {}
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
        s._words = {}
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

    def reduce(self, vec: Mapping) -> dict:
        """Canonical remainder of vec modulo this subspace, zeros dropped.

        A basis row carries no pivot column but its own, so the pivots
        hit by vec are all the subtractions there are."""
        return _unscaled(*_residual(*_scaled(vec), self._rows))

    def contains(self, vec: Mapping) -> bool:
        return not self.reduce(vec)

    def _word_rows(self, degree: int, nv: int) -> tuple[dict, list, int]:
        """The rows with coordinates as words of V^(x)degree, for the
        sandwich kernels: ({pivot word: position}, [(pivot entry, [(word,
        entry)])] in pivot order, lcm of the pivot entries).  Computed
        once per (degree, nv)."""
        got = self._words.get((degree, nv))
        if got is None:
            rows = self._rows
            piv = sorted(rows)
            index = {flat_word(p, degree, nv): l for l, p in enumerate(piv)}
            wrows = [
                (rows[p][p], [(flat_word(k, degree, nv), n) for k, n in rows[p].items()])
                for p in piv
            ]
            got = self._words[(degree, nv)] = (index, wrows, lcm(*[d for d, _ in wrows]))
        return got

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


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    return Subspace(s1.ambient, [*s1._rows.values(), *s2._rows.values()])


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
    """Intersection via the kernel of the stacked-basis system."""
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    b1, b2 = list(s1._rows.values()), list(s2._rows.values())
    if not b1 or not b2:
        return Subspace(s1.ambient)
    cols = b1 + [{k: -v for k, v in r.items()} for r in b2]
    _, kernel = solve_columns(cols, [])
    rows = [combination((c, b1[j]) for j, c in kv.items() if j < len(b1)) for kv in kernel]
    return Subspace(s1.ambient, rows)


# ---------------------------------------------------------------------------
# Affine solving


def solve_columns(
    cols: Sequence[Mapping], rhs_list: Sequence[Mapping]
) -> tuple[list[list[Fraction] | None], list[dict]]:
    """Solve sum_j x_j * cols[j] = rhs for all rhs at once, by one
    reduced ``echelon`` of the augmented rows.

    ``cols`` are sparse dicts over arbitrary hashable row keys; sharing
    one elimination across many right-hand sides is what keeps the
    sequence-pair stage solves cheap.

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


def solve_affine(a: Matrix, b: Sequence) -> tuple[list[Fraction], Subspace]:
    """Solve a x = b exactly.

    Returns the canonical particular solution (free variables zeroed)
    and the kernel of ``a`` as a Subspace of k^ncols.  Raises
    ``NoSolutionError`` when b is outside the column space.
    """
    bs = [scalar(x) for x in b]
    if len(bs) != a.nrows:
        raise ValueError("right-hand side length mismatch")
    cols = []
    for j in range(a.ncols):
        cols.append({i: a.rows[i][j] for i in range(a.nrows) if a.rows[i][j]})
    rhs = {i: v for i, v in enumerate(bs) if v}
    particulars, kernel = solve_columns(cols, [rhs])
    if particulars[0] is None:
        raise NoSolutionError("b is outside the column space")
    return particulars[0], Subspace(a.ncols, kernel)


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


class FractionView(abc.Mapping):
    """Read-only Fraction view of nonzero int numerators over one
    positive denominator.  Keys, length and single reads (``[]``,
    ``get``) come from the numerators; ``items``, ``values``, ``==`` and
    ``repr`` build the Fractions of all values, once.  Equal to any
    mapping with the same Fraction entries."""

    __slots__ = ("_nums", "_den", "_fractions")

    def __init__(self, nums: Mapping, den: int):
        self._nums = nums
        self._den = den
        self._fractions = None

    def _dict(self) -> dict:
        if self._fractions is None:
            self._fractions = _unscaled(self._nums, self._den)
        return self._fractions

    def __getitem__(self, key):
        if self._fractions is None:
            return Fraction(self._nums[key], self._den)
        return self._fractions[key]

    def __iter__(self):
        return iter(self._nums)

    def __len__(self):
        return len(self._nums)

    def __contains__(self, key):
        return key in self._nums

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()

    def __eq__(self, other):
        return self._dict() == other

    def __repr__(self):
        return repr(self._dict())


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
    or a Fraction, in canonical form; keys may be any hashables.  It
    runs on int numerators over the lcm of the c.denominator * den."""
    parts = [(c.numerator, c.denominator * den, nums) for c, nums, den in terms if c and nums]
    big = lcm(*[d for _, d, _ in parts])
    out: dict = {}
    get = out.get
    for cn, d, nums in parts:
        f = cn * (big // d)
        for k, n in nums.items():
            out[k] = get(k, 0) + f * n
    return _canonical(out, big)


def _residual(nums: Mapping, den: int, rows: Mapping) -> tuple[dict, int]:
    """The canonical remainder of the vector nums / den modulo the span of
    the primitive RREF ``rows`` ({pivot: row}), zero exactly when the
    vector lies in it.  A row carries no pivot column but its own, so the
    pivots hit by the vector are all the subtractions there are, and they
    are one ``_combine``."""
    return _combine(
        [(1, nums, den)] + [(-nums[k], rows[k], den * rows[k][k]) for k in nums if k in rows]
    )


def combination(terms: Iterable[tuple]) -> dict:
    """The linear combination of (coefficient, sparse map) pairs, as a
    sparse map of Fractions with the zeros dropped.

    Keys may be any hashables, and coefficients and entries ints or
    Fractions.  Each map is scaled to int numerators once and the sum
    is ``_combine``.
    """
    return _unscaled(*_combine((scalar(c), *_scaled(vec)) for c, vec in terms))


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
    def entries(self) -> FractionView:
        """The nonzero entries as Fractions, by word: a read-only view,
        built on the first read."""
        if self._entries is None:
            self._entries = FractionView(self.nums, self.den)
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

    def embed(self, nv_new: int) -> "Tensor":
        """Reinterpret over a larger alphabet (V inside V-hat)."""
        if nv_new < self.nv:
            raise ValueError("alphabet can only grow")
        return Tensor._trusted(nv_new, self.degree, self.nums, self.den)

    @staticmethod
    def combine(nv: int, degree: int, terms: Iterable[tuple]) -> "Tensor":
        """The linear combination of (coefficient, tensor) pairs
        (``_combine``)."""
        terms = list(terms)
        if any(t.nv != nv or t.degree != degree for _, t in terms):
            raise ValueError("tensor shape mismatch")
        return Tensor._trusted(nv, degree, *_combine((scalar(c), t.nums, t.den) for c, t in terms))

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


def expand_scaled(
    t: Tensor, left: int, space: Subspace, space_degree: int, right: int
) -> tuple[dict[tuple[tuple, int, tuple], int], int] | None:
    """``expand_through`` on the stored integers: the coefficients as
    int numerators over ``t.den``, or None.

    The residual is taken in integers as L*den*(t - sum c*row), with L
    the lcm of the pivot entries of the space's primitive rows, each row
    over its own pivot entry.
    """
    nv = t.nv
    if t.degree != left + space_degree + right or space.ambient != nv**space_degree:
        raise ValueError("tensor does not match the sandwich shape")
    index, rows, big = space._word_rows(space_degree, nv)
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


def expand_through(
    t: Tensor, left: int, space: Subspace, space_degree: int, right: int
) -> FractionView | None:
    """Coefficients of t in V^(x)left (x) S (x) V^(x)right, or None.

    ``space`` is S inside V^(x)space_degree.  The coefficient on
    (J_left, basis row l in pivot order, J_right) is t's entry at the
    shifted pivot word of row l; subtracting the expansion back out of
    t must leave zero, otherwise t lies outside the sandwich and the
    result is None.  ``expand_through(...) is not None`` is therefore a
    membership test.  A tensor of another degree, or a space over
    another alphabet, raises ValueError.  The coefficients are the
    Fraction view of ``expand_scaled``.
    """
    got = expand_scaled(t, left, space, space_degree, right)
    return None if got is None else FractionView(*got)


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
