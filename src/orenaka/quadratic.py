"""Quadratic algebras A = T(V)/(R).

Provides the Koszul spaces W_i, homogeneous monomial bases and normal
forms for the A_m, the Koszul differentials, and finite certification
of Koszulity and AS-regularity.

Certification philosophy: true Koszulity is not decidable by finite
rank computations, so ``certify_koszul`` verifies exactness of the
Koszul complex in every internal degree up to a bound N and every
report carries that bound.  AS-regularity is certified by the finite
necessary conditions (dim W_d = 1, W_{d+1} = 0, the dimension symmetry
dim W_i = dim W_{d-i}) on top of a Koszul certificate reaching at
least d+2.

Homogeneous bases: A_m is presented as (A_{m-1} (x) V) / im(A_{m-2}
(x) R), eliminated degree by degree; the surviving (monomial, letter)
pairs, in lexicographic word order, are the chosen monomial basis.
This keeps every elimination matrix small while staying deterministic.
The lexicographic order is that of the letter order ``order``, which
is read off R itself.  A letter v is an *Ore letter* over the other
letters V' when

    R = R' + span{v (x) u - phi(u) : u in V'},  R' <= V' (x) V',
    phi(u) in V' (x) v + V' (x) V',

that is, when A = A'[v; sigma, delta] for A' = T(V')/(R').  The order
takes the smallest-index Ore letter first, then repeats on R' until no
Ore letter is left, and lists the other letters in index order.  The
reducer clears the smallest words first, so an Ore letter put first is
rewritten to the right: the basis becomes the PBW basis (words of A'
followed by powers of v, as A is a free A'-module on them), and the
bit-lengths of the normal-form coefficients grow roughly linearly in
the degree instead of geometrically.  An algebra with no Ore letter, or whose Ore letters
already come in index order (poly(n), the quantum and Jordan planes),
keeps the identity order.

Normal forms are held in integers.  A normal form is a pair (nums,
den): int numerators by basis position over one positive denominator,
content-reduced (gcd(den, *nums) = 1), so den is the lcm of the reduced
denominators of its coefficients.  Each piece stores one such pair for
every (A_{m-1} monomial, letter) column, read off the primitive integer
RREF rows of ``linalg.echelon``: the pivot entry of a row is the
denominator, and a primitive row gives a content-reduced form.  ``_nf``
caches the form of each word, and the products and sums of
``_build_piece``, ``differential_rows`` and ``nf_tensor`` run on
numerators over a common denominator (``_int_sum``), and ``nf_tensor``
reads the tensor's own numerators.  Fractions are built only at the
public edge, one per entry of ``nf_word``, ``nf_tensor`` and each
differential row; ``certify_koszul`` ranks the numerators and builds
none.  Each is the exact rational that elimination in Fractions gives:
the RREF of the reducer is unique, and integer arithmetic is exact.

W-coordinate tables.  ``w_tables`` holds what the sequence-pair towers
of ``ore`` read in the bases of the W_i (``WTables``): the splits of W_i
in W_{i-1} (x) V and V (x) W_{i-1} (``split``, which ``_differential``
also calls without keeping the result), the pivot-word reads back into
W_i, the rows of d_i on W_i (x) A_1, the normal forms of the letter
pairs and omega in each W_j (x) W_{d-j}.  They are built on the first
Ore request, never during certification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import CertificationError, EngineInvariantError, NotASRegularError
from .linalg import (
    ONE,
    P,
    Subspace,
    Tensor,
    echelon,
    expand_scaled,
    flat_word,
    rank,
    shift,
    subspace_intersect,
    subspace_sum,
    word_flat,
)


@dataclass(frozen=True)
class KoszulCertificate:
    """Outcome of the finite Koszul/AS checks, a value: exactness in
    every internal degree <= ``bound``.

    ``ranks[(m, i)]`` is the rank over Q of the i-th Koszul differential
    in internal degree m.  ``d`` and ``omega`` are set on the algebra's
    AS-regular certificate and on every certificate made after it.
    """

    bound: int
    ranks: dict
    euler_ok: bool = True
    d: int | None = None
    omega: Tensor | None = None

    @property
    def as_regular(self) -> bool:
        return self.d is not None


class _Piece:
    """Degree-m homogeneous data: the chosen basis words and, for every
    pair column b * nv + v of A_{m-1} (x) V, its normal form in A_m as
    (int numerators by basis position, denominator)."""

    __slots__ = ("words", "pairs")

    def __init__(self, words, pairs=()):
        self.words = words
        self.pairs = pairs


_NO_PIECE = _Piece([])  # A_m = 0 for m < 0


class QuadraticAlgebra:
    """T(V)/(R) with R a subspace of V (x) V.

    The homogeneous pieces, Koszul spaces and normal forms are memoized
    lazily, degree by degree, on first use; the letter order ``order``
    is fixed at construction.
    """

    def __init__(self, names: Sequence[str], relations: Iterable[Tensor] | Subspace):
        self.names = tuple(str(x) for x in names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        self.nv = len(self.names)
        if self.nv == 0:
            raise ValueError("need at least one generator")
        if isinstance(relations, Subspace):
            if relations.ambient != self.nv**2:
                raise ValueError("relation subspace has wrong ambient dimension")
            self.R = relations
        else:
            rows = []
            for t in relations:
                if t.degree != 2 or t.nv != self.nv:
                    raise ValueError("relations must be degree-2 tensors over V")
                rows.append(t.to_vec())
            self.R = Subspace(self.nv**2, rows)
        self._order = _ore_order(self.R, self.nv)
        self._pos = {v: k for k, v in enumerate(self._order)}
        self._pieces: list[_Piece] = []
        self._W: list[Subspace] = []
        self._nf_cache: dict[tuple, dict] = {}
        self._sandwich = None          # R(x)V + V(x)R, for derivation admissibility
        self._exact: list[tuple[int, ...]] = []  # Q ranks of degrees 1, 2, ... proved exact
        self.certificate: KoszulCertificate | None = None  # set once, by certify_as_regular
        self._nakayama = None          # filled by morphisms.nakayama_of_A
        self._w_tables = None          # filled by w_tables, on the first Ore request

    @property
    def order(self) -> tuple[int, ...]:
        """The letters in the order that sorts the monomial bases: the
        peeled Ore letters first (module docstring)."""
        return self._order

    # -- homogeneous pieces -------------------------------------------------

    def _piece(self, m: int) -> _Piece:
        if m < 0:
            return _NO_PIECE
        while len(self._pieces) <= m:
            k = len(self._pieces)
            if k == 0:
                self._pieces.append(_Piece([()]))
            elif k == 1:
                self._pieces.append(_Piece([(v,) for v in self._order]))
            else:
                self._pieces.append(self._build_piece(k))
        return self._pieces[m]

    def _build_piece(self, m: int) -> _Piece:
        nv, pos = self.nv, self._pos
        lower = self._piece(m - 1)
        lower2 = self._piece(m - 2)
        # pair column b * nv + pos[v]: lexicographic in ``order``
        rels = [
            [(pair // nv, pos[pair % nv], c) for pair, c in rel.items()]
            for rel in self.R.int_rows()
        ]
        rows = []
        for aw in lower2.words:
            for rel in rels:
                # the numerators alone: scaling a row keeps its span
                rows.append(_int_sum((c, self._nf(aw + (u,)), nv, k) for u, k, c in rel)[0])
        # a primitive RREF row p reads e_p = -sum_k (row[k] / row[p]) e_k in A_m
        reducer = echelon(rows, reduced=True)
        npairs = len(lower.words) * nv
        pair_cols = [p for p in range(npairs) if p not in reducer]
        col = {p: k for k, p in enumerate(pair_cols)}
        pairs = []
        for p in range(npairs):
            row = reducer.get(p)
            if row is None:
                pairs.append(({col[p]: 1}, 1))
            else:
                pairs.append(({col[k]: -v for k, v in row.items() if k != p}, row[p]))
        words = [lower.words[p // nv] + (self._order[p % nv],) for p in pair_cols]
        return _Piece(words, pairs)

    def dim_A(self, m: int) -> int:
        return len(self._piece(m).words)

    def basis_words(self, m: int) -> list[tuple]:
        """Chosen monomial basis of A_m as words, in lexicographic order
        for the letter order ``order`` (empty for m < 0).  With an Ore
        letter first these are the PBW words: standard words of the base
        followed by a power of the Ore letter."""
        return list(self._piece(m).words)

    def nf_word(self, word: tuple) -> dict[int, Fraction]:
        """Normal form of a tensor word: sparse coords in the A_m basis."""
        nums, den = self._nf(tuple(word))
        return {k: Fraction(n, den) for k, n in nums.items()}

    def _nf(self, word: tuple) -> tuple[dict[int, int], int]:
        """``nf_word`` as reduced int numerators over one denominator."""
        m = len(word)
        if m == 0:
            return {0: 1}, 1
        if m == 1:
            return {self._pos[word[0]]: 1}, 1
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        prefix, pden = self._nf(word[:-1])
        pairs = self._piece(m).pairs
        last = self._pos[word[-1]]
        nums, den = _int_sum((c, pairs[b * self.nv + last], 1, 0) for b, c in prefix.items())
        den *= pden
        g = gcd(den, *nums.values())
        out = ({k: n // g for k, n in nums.items() if n}, den // g)
        self._nf_cache[word] = out
        return out

    def nf_tensor(self, t: Tensor, keep: int = 0) -> dict[int, Fraction]:
        """(id^(x)keep (x) nf)(t) for a homogeneous tensor t: the factors
        after the first ``keep`` are multiplied into A.  Column
        word_flat(head) * dim A_(deg - keep) + k holds the coordinate of
        head (x) (A-basis monomial k); with keep = 0 it is the normal form
        of t."""
        nums, den = self._nf_scaled(t, keep)
        return {k: Fraction(n, den) for k, n in nums.items() if n}

    def _nf_scaled(self, t: Tensor, keep: int = 0) -> tuple[dict[int, int], int]:
        """``nf_tensor`` as int numerators over one denominator; the
        numerators may hold zeros."""
        stride = self.dim_A(t.degree - keep)
        nums, den = _int_sum(
            (n, self._nf(w[keep:]), 1, word_flat(w[:keep], self.nv) * stride)
            for w, n in t.nums.items()
        )
        return nums, den * t.den

    # -- Koszul spaces ------------------------------------------------------

    def koszul_space(self, i: int) -> Subspace:
        """W_i, via the nested form (W_{i-1} (x) V) n (V (x) W_{i-1}).

        The nested form equals the defining intersection of all shifted
        copies of R because tensoring with V commutes with subspace
        intersection; the test suite asserts this against the direct
        definition.
        """
        if i < 0:
            raise ValueError("negative Koszul index")
        while len(self._W) <= i:
            k = len(self._W)
            if k == 0:
                self._W.append(Subspace(1, [{0: ONE}]))
            elif k == 1:
                self._W.append(Subspace.full(self.nv))
            elif k == 2:
                self._W.append(self.R)
            else:
                prev = self._W[k - 1]
                if prev.dim == 0:
                    self._W.append(Subspace(self.nv**k))
                    continue
                self._W.append(
                    subspace_intersect(shift(prev, self.nv, 0, 1), shift(prev, self.nv, 1, 0))
                )
        return self._W[i]

    def sandwich_space(self) -> Subspace:
        """R (x) V + V (x) R inside V^(x)3."""
        if self._sandwich is None:
            self._sandwich = subspace_sum(shift(self.R, self.nv, 0, 1), shift(self.R, self.nv, 1, 0))
        return self._sandwich

    # -- Koszul complex -----------------------------------------------------

    def differential_rows(self, i: int, j: int) -> list[dict[int, Fraction]]:
        """Sparse rows of the Koszul differential W_i (x) A_j -> W_{i-1} (x) A_{j+1}.

        Rows are indexed by the domain basis (W_i basis vector, A_j
        monomial), columns by the codomain basis: column l * dim A_{j+1}
        + k is (W_{i-1} basis vector l, A_{j+1} monomial k), consistent
        with the rows-are-images convention.  The map multiplies the
        last tensor factor of W_i into A on the left of the A_j part.
        """
        return [
            {k: Fraction(n, den) for k, n in nums.items() if n}
            for nums, den in self._differential(i, j)
        ]

    def _differential(self, i: int, j: int) -> list[tuple[dict[int, int], int]]:
        """``differential_rows(i, j)`` as (int numerators, den) per row;
        the numerators may hold zeros."""
        if i < 1:
            raise ValueError("differential index starts at 1")
        dim_anext = self.dim_A(j + 1)
        aj_words = self._piece(j).words
        rows = []
        nv = self.nv
        for exp, wden in self.split(i):
            terms = [(c, key % nv, key // nv * dim_anext) for key, c in exp.items()]
            for aw in aj_words:
                nums, den = _int_sum(
                    (c, self._nf((v,) + aw), 1, base) for c, v, base in terms
                )
                rows.append((nums, den * wden))
        return rows

    def split(self, i: int, left: bool = False) -> list[tuple[dict[int, int], int]]:
        """The W_i basis vectors (pivot order) in W_{i-1} (x) V: per
        vector, int numerators keyed m * nv + v on w_m (x) x_v (w_m the
        W_{i-1} basis) over one denominator.  With ``left``, in V (x)
        W_{i-1}, keyed v * dim W_{i-1} + m on x_v (x) w_m.  W_0 is the
        scalar line, whose one basis word is the empty word."""
        nv = self.nv
        wprev = self.koszul_space(i - 1)
        out = []
        for b in self.koszul_space(i).basis():
            got = expand_scaled(Tensor.from_vec(b, nv, i), int(left), wprev, i - 1, int(not left))
            if got is None:
                side = f"V (x) W_{i - 1}" if left else f"W_{i - 1} (x) V"
                raise EngineInvariantError(f"W_{i} escapes {side}")
            exp, den = got
            if left:
                out.append(({v * wprev.dim + m: c for ((v,), m, _), c in exp.items()}, den))
            else:
                out.append(({m * nv + v: c for (_, m, (v,)), c in exp.items()}, den))
        return out

    def w_tables(self) -> "WTables":
        """The W-coordinate tables of the sequence-pair towers, built on
        the first call (``WTables``); certifies AS-regularity first."""
        if self._w_tables is None:
            self.ensure_as_regular()
            self._w_tables = WTables(self)
        return self._w_tables

    def certify_koszul(self, bound: int) -> KoszulCertificate:
        """Verify exactness of the Koszul complex of k_A through internal
        degree ``bound`` by rank computations, plus the Euler identity,
        and return a new certificate for exactly that bound.  Each degree
        is proved once per algebra (its Q ranks are kept), so a higher
        bound proves only the degrees above the highest one proved.

        In degree m the complex is W_t (x) A_{m-t} -> ... -> W_1 (x)
        A_{m-1} -> A_m -> 0 with t = min(m, top nonzero W).  Write
        D_i = dim W_i (x) A_{m-i} (so D_0 = dim A_m) and r_i for the
        rank over Q of d_i: W_i (x) A_{m-i} -> W_{i-1} (x) A_{m-i+1},
        with r_{t+1} = 0.  Exactness is r_1 = D_0 and r_i + r_{i+1} = D_i
        for i = 1..t.

        The ranks are taken on the integer numerators of the rows, each
        row scaled by its denominator, which keeps the rank over Q.  They
        are first taken mod the word-size prime p = ``linalg.P`` = 2^30 -
        35 (``linalg.rank``), giving s_i, and those stand for the r_i when
        they meet every equality.  That is sound over Q, for any prime,
        because
          * s_i <= r_i (scaling the rows keeps the rank over Q, and
            reduction mod p of integer rows cannot raise it);
          * d_i d_{i+1} = 0 over Q (the last two factors of W_{i+1}
            lie in R), so im d_{i+1} <= ker d_i and r_i + r_{i+1} <= D_i;
          * r_1 <= D_0, the dimension of its codomain.
        Then D_0 = s_1 <= r_1 <= D_0 pins r_1, and each D_i = s_i +
        s_{i+1} <= r_i + r_{i+1} <= D_i with s <= r termwise pins r_i and
        r_{i+1}: every Q rank equals its mod-p rank.

        Each modular rank stops early at a cap: D_0 for d_1 and D_i - s_i
        for d_{i+1}.  The cap never cuts a rank short, because by the
        same three facts
          s_1 <= r_1 <= D_0, and
          s_{i+1} <= r_{i+1} <= D_i - r_i <= D_i - s_i,
        so the capped rank min(cap, s) is s itself.  In an exact degree
        the cap equals the rank, and the rows left once it is reached,
        which would only have cleared to zero, are never eliminated.

        When an equality falls short, that degree's ranks are recomputed
        over Q without a cap, and only those exact ranks can raise.

        Raises CertificationError at the first failing position, carrying
        the degree's ``dims`` (D_0..D_t) and its Q ``ranks`` ({i: r_i}).
        A passing certificate says nothing beyond the bound; that is the
        strongest finite statement available.
        """
        if bound < 2:
            raise ValueError("certification bound must be at least 2")
        # W spaces vanish for good once one is zero (W_i <= W_{i-1} (x) V).
        top = 0
        for m in range(len(self._exact) + 1, bound + 1):
            while top < m and self.koszul_space(top + 1).dim > 0:
                top += 1
            dims = tuple(self.koszul_space(i).dim * self.dim_A(m - i) for i in range(top + 1))
            # the numerators alone: scaling a row keeps its rank
            diffs = [[nums for nums, _ in self._differential(i, m - i)] for i in range(1, top + 1)]
            # the cap of d_{i+1} is D_i - s_i (see the docstring)
            ranks = []
            cap = dims[0]
            for i, rows in enumerate(diffs, 1):
                ranks.append(rank(rows, P, cap))
                cap = dims[i] - ranks[-1]
            if _inexact_at(dims, ranks) is not None:
                ranks = [rank(rows) for rows in diffs]
                pos = _inexact_at(dims, ranks)
                if pos is not None:
                    if pos == 0:
                        got = ranks[0] if ranks else 0
                        msg = f"complex not exact at A_{m}: rank {got} != dim {dims[0]}"
                    else:
                        msg = f"complex not exact at W_{pos} (x) A_{m - pos}"
                    raise CertificationError(
                        msg, degree=m, position=pos, dims=dims,
                        ranks=dict(enumerate(ranks, 1)),
                    )
            # implied by exactness; kept as an independent safety net
            if sum((-1) ** i * d for i, d in enumerate(dims)):
                raise CertificationError(
                    f"Euler identity fails in degree {m}", degree=m,
                    dims=dims, ranks=dict(enumerate(ranks, 1)),
                )
            self._exact.append(tuple(ranks))
        proved = {
            (m, i): r for m, rs in enumerate(self._exact[:bound], 1) for i, r in enumerate(rs, 1)
        }
        if self.certificate is None:
            return KoszulCertificate(bound, proved)
        return replace(self.certificate, bound=bound, ranks=proved)

    def certify_as_regular(self, max_search: int = 12):
        """Locate d with W_d != 0 = W_{d+1} and run the finite AS checks.

        Returns (d, omega) with omega the canonical basis tensor of W_d
        (RREF representative, leading coordinate 1).  The first success
        sets ``certificate`` once, at bound d + 3; later calls read it.
        Raises NotASRegularError if any check fails.
        """
        if self.certificate is not None:
            return self.certificate.d, self.certificate.omega
        d = None
        for i in range(1, max_search + 2):
            if self.koszul_space(i).dim == 0:
                d = i - 1
                break
        if d is None:
            raise NotASRegularError(
                f"W_i stays nonzero through degree {max_search + 1}"
            )
        if d == 0:
            raise NotASRegularError("R is the full space V (x) V")
        wd = self.koszul_space(d)
        if wd.dim != 1:
            raise NotASRegularError(f"dim W_{d} = {wd.dim} != 1")
        for i in range(0, d + 1):
            if self.koszul_space(i).dim != self.koszul_space(d - i).dim:
                raise NotASRegularError(
                    f"dim W_{i} != dim W_{d - i}: "
                    f"{self.koszul_space(i).dim} vs {self.koszul_space(d - i).dim}"
                )
        omega = Tensor.from_vec(wd.basis()[0], self.nv, d)
        self.certificate = replace(self.certify_koszul(d + 3), d=d, omega=omega)
        return d, omega

    # -- certified accessors -------------------------------------------------

    @property
    def d(self) -> int:
        self.ensure_as_regular()
        return self.certificate.d

    @property
    def omega(self) -> Tensor:
        self.ensure_as_regular()
        return self.certificate.omega

    def ensure_as_regular(self):
        if self.certificate is None:
            self.certify_as_regular()
        return self

    def __repr__(self):
        rel = self.R.dim
        return f"QuadraticAlgebra(<{', '.join(self.names)}> with {rel} relations)"


class WTables:
    """Per-algebra data of the sequence-pair towers in W-coordinates,
    for i = 0..d.  The basis w^i_0, w^i_1, ... of W_i is the RREF
    ``basis()`` in pivot order, each row 1 at its pivot word; a vector is
    a pair (int numerators by key, denominator).

    * ``dims[i]`` = dim W_i.
    * ``words[i]`` = (rows, L): w^i_l is the sum of n / L * word over the
      (word, n) pairs of rows[l]; ``words_v[i]`` the same for the w^i_l
      (x) x_j of W_i (x) V, at rows[l * nv + j].
    * ``right[i]``, ``left[i]`` (i >= 1): ``split(i)`` and ``split(i,
      left=True)``.
    * ``read[i]`` = (L, rows) (i >= 1): an element X of W_i given in
      W_{i-1} (x) V, keyed m * nv + v, has the coefficient sum X[key] * n
      / L over the (key, n) pairs of rows[l] on w^i_l.  That is X's entry
      at the pivot word h + (v,) of w^i_l: key = m * nv + v and n / L the
      entry of w^(i-1)_m at h.
    * ``stage[i]`` = (rows, D) (i >= 2): the rows of ``_differential(i,
      1)``, the Koszul differential W_i (x) A_1 -> W_{i-1} (x) A_2, as
      int numerators over one denominator D, with the row of w^i_l (x)
      x_j at l * nv + j (letters by index, not by ``order``).
    * ``pairs[a * nv + b]``: the normal form of x_a x_b in A_2.
    * ``omega[j]``: omega in W_j (x) W_{d-j}, keyed a * dims[d - j] + b on
      w^j_a (x) w^(d-j)_b: omega's entry at the joined pivot words.
    """

    __slots__ = ("dims", "words", "words_v", "right", "left", "read", "stage", "pairs", "omega")

    def __init__(self, alg: "QuadraticAlgebra"):
        nv = alg.nv
        d = alg.d
        spaces = [alg.koszul_space(i) for i in range(d + 1)]
        # primitive rows in pivot order, each over its pivot entry, scaled
        # to the lcm L of those entries
        scaled = []
        for w in spaces:
            rows = w.int_rows()
            big = lcm(*[r[min(r)] for r in rows])
            scaled.append(([{k: n * (big // r[min(r)]) for k, n in r.items()} for r in rows], big))
        self.dims = [w.dim for w in spaces]
        self.words = [
            ([[(flat_word(k, i, nv), n) for k, n in r.items()] for r in rows], big)
            for i, (rows, big) in enumerate(scaled)
        ]
        self.words_v = [
            ([[(w + (j,), n) for w, n in r] for r in rows for j in range(nv)], big)
            for rows, big in self.words
        ]
        self.right = [None] + [alg.split(i) for i in range(1, d + 1)]
        self.left = [None] + [alg.split(i, left=True) for i in range(1, d + 1)]
        self.read = [None] + [
            (scaled[i - 1][1], [
                [(m * nv + p % nv, r[p // nv]) for m, r in enumerate(scaled[i - 1][0]) if p // nv in r]
                for p in spaces[i].pivots
            ])
            for i in range(1, d + 1)
        ]
        self.stage = [None, None]
        for i in range(2, d + 1):
            diff = alg._differential(i, 1)
            diff = [diff[l * nv + alg._pos[j]] for l in range(self.dims[i]) for j in range(nv)]
            big = lcm(*[den for _, den in diff])
            self.stage.append(
                ([{k: n * (big // den) for k, n in nums.items() if n} for nums, den in diff], big)
            )
        self.pairs = [alg._nf((a, b)) for a in range(nv) for b in range(nv)]
        omega = alg.omega
        self.omega = []
        for j in range(d + 1):
            head = [flat_word(p, j, nv) for p in spaces[j].pivots]
            tail = [flat_word(p, d - j, nv) for p in spaces[d - j].pivots]
            nums = {
                a * len(tail) + b: omega.nums[h + t]
                for a, h in enumerate(head)
                for b, t in enumerate(tail)
                if h + t in omega.nums
            }
            # omega lies in W_j (x) W_{d-j}, so these coordinates give it back
            back, den = _expand((nums, 1), self.words[j], self.words[d - j])
            if {w: n for w, n in back.items() if n} != {w: n * den for w, n in omega.nums.items()}:
                raise EngineInvariantError(f"omega escapes W_{j} (x) W_{d - j}")
            self.omega.append((nums, omega.den))


def _ore_order(R: Subspace, nv: int) -> tuple[int, ...]:
    """The letter order of T(V)/(R): Ore letters peeled smallest index
    first, then the rest in index order (module docstring)."""
    # relation rows keyed by pairs (a, b), an echelon basis for the
    # index order of the pairs; R's own RREF is one
    rels = [{divmod(k, nv): c for k, c in row.items()} for row in R.int_rows()]
    letters = list(range(nv))
    order = []
    while len(letters) > 1:
        for v in letters:
            rest = _peel(rels, v, letters, nv)
            if rest is not None:
                break
        else:
            break
        order.append(v)
        letters.remove(v)
        rels = rest
    return tuple(order + letters)


def _peel(rels: list[dict], v: int, letters: list[int], nv: int) -> list[dict] | None:
    """R' as an echelon basis for the index order when v is an Ore
    letter of the span of ``rels`` over the other ``letters`` V', else
    None.

    Take an echelon basis for an order of the pairs with v (x) V' first.
    Its rows that meet v (x) V' have their pivots there, and the others
    span the relations with no part in v (x) V'.  So v is an Ore letter
    when no row meets v (x) v, |V'| rows meet v (x) V', and none of the
    others meets V' (x) v; those others span R'.  With v the smallest
    letter left the index order puts v (x) V' first, so ``rels`` is such
    a basis already; for another v one echelon pass reorders the pairs.
    Either way the rest keeps the index order on V' (x) V'.
    """
    if any((v, v) in rel for rel in rels):
        return None
    if v != letters[0]:
        n2 = nv * nv
        pivots = echelon(
            {(0 if a == v else n2) + a * nv + b: c for (a, b), c in rel.items()} for rel in rels
        )
        rels = [{divmod(k % n2, nv): c for k, c in row.items()} for row in pivots.values()]
    rest = [rel for rel in rels if all(a != v for a, _ in rel)]
    if len(rels) - len(rest) != len(letters) - 1 or any(b == v for rel in rest for _, b in rel):
        return None
    return rest


def _int_sum(terms: Iterable[tuple]) -> tuple[dict[int, int], int]:
    """The sum of c * nums / den over terms (c, (nums, den), stride,
    offset), entry k of nums placed at column k * stride + offset, as
    int numerators over the lcm of the c.denominator * den; c may be an
    int or a Fraction.  Cancelled entries stay as zeros."""
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


def _expand(vec: tuple[dict, int], head, tail) -> tuple[dict, int]:
    """A coordinate vector on a tensor product of two spaces as a
    tensor: int numerators by word over one denominator.  ``head`` and
    ``tail`` are ``WTables.words`` or ``words_v`` entries (rows, L), and
    key k * len(tail rows) + m holds the coordinate on head row k (x)
    tail row m.  Cancelled entries stay as zeros."""
    nums, den = vec
    hrows, hden = head
    trows, tden = tail
    size = len(trows)
    out: dict = {}
    get = out.get
    for key, c in nums.items():
        h, t = divmod(key, size)
        tail_row = trows[t]
        for hw, hn in hrows[h]:
            f = c * hn
            for tw, tn in tail_row:
                w = hw + tw
                out[w] = get(w, 0) + f * tn
    return out, den * hden * tden


def _inexact_at(dims: Sequence[int], ranks: Sequence[int]) -> int | None:
    """First position where the degree's complex fails to be exact, with
    ``dims[i]`` = dim W_i (x) A_{m-i} and ``ranks[i - 1]`` = rank d_i:
    0 for A_m (im d_1 != A_m), i for W_i (x) A_{m-i}; None if exact."""
    if not ranks or ranks[0] != dims[0]:
        return 0
    for i in range(1, len(dims)):
        nxt = ranks[i] if i < len(ranks) else 0
        if ranks[i - 1] + nxt != dims[i]:
            return i
    return None
