"""Quadratic algebras A = T(V)/(R).

Provides the Koszul spaces W_i, homogeneous monomial bases and normal
forms for the A_m, the Koszul differentials, and finite certification
of Koszulity and AS-regularity.

Certification philosophy.  Koszulity is not decidable by finite rank
computations in general, so every certificate names the route that
proved it (``KoszulCertificate.route``), and every report carries its
bound.  The route is not a choice: the PBW test decides it.

* "pbw": A is PBW for the letter order ``order``.  Call a degree-2 word
  *leading* when it is not in ``basis_words(2)``.  The test is that the
  degree-3 words with no leading pair number dim A_3.  Then, by
  Bergman's diamond lemma (1978), the words with no leading pair are a
  basis of every A_m, and a PBW algebra is Koszul in *every* degree
  (Priddy 1970; Polishchuk-Positselski, *Quadratic Algebras*, AMS 2005,
  Ch. 4).  A PBW certificate proves Koszulity in all degrees; its ranks
  up to the bound are the ones exactness forces, read off counts of
  words, and no normal-form piece above A_3 is built.
* "ore": A is not PBW, but its first peeled Ore letter v (below)
  presents it as A'[v; sigma', delta'], sigma' passes
  ``check_automorphism`` and delta' passes ``extend_derivation`` on A',
  and A' certifies to the bound N on its own route (PBW, ore or ranks,
  so towers recurse).  Exactness through degree N then carries over
  from A' to A (Phan 2012; the proof is ``_ore_ranks``), and the
  dimensions of A, hence its ranks, are read off those of A'; nothing
  is built on A.  Otherwise the rank route runs on A itself.
* "ranks": otherwise ``certify_koszul`` verifies exactness of the
  Koszul complex in every internal degree up to the bound N by rank
  computations, and proves nothing beyond N.  d_1 is onto A_m, so only
  d_2..d_t are ranked (``_prove_by_ranks``).

AS-regularity is certified on every route by the finite necessary
conditions dim W_d = 1, W_{d+1} = 0 and dim W_i = dim W_{d-i}, on top of
a Koszul certificate at bound d + 3.  On the PBW route these dimensions
are counts of words too, and on the ore route sums of those of A'.

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
denominators of its coefficients.  Each piece holds one such pair for
every (A_{m-1} monomial, letter) column, read off the primitive integer
RREF rows of its reducer: the pivot entry of a row is the denominator,
and a primitive row gives a content-reduced form.  The pair table is
made on first read (``_Piece``): a piece keeps the forward echelon of
its reducer, whose pivots fix its words and dim A_m, and completes it by
the back pass (``linalg._back``) when its pairs are first read.  So A_3
in the PBW test and A_bound on the rank route, read only for their
dimension, pay a forward elimination alone.  ``_nf``
caches the form of each word, and the products and sums of
``_build_piece``, ``differential_rows`` and ``nf_tensor`` run on
numerators over a common denominator (``linalg._block_sum``, a raw sum
by the rule of the ``linalg`` docstring, made canonical only where
``_nf`` caches a form), and ``nf_tensor`` reads the tensor's own
numerators.  Fractions are built only at the public edge, one per
entry of ``nf_word``, ``nf_tensor`` and each differential row; the
rank route of ``certify_koszul`` ranks the numerators and builds none.
Each is the exact rational that elimination in Fractions gives: the
RREF of the reducer is unique, and integer arithmetic is exact.
``_nf3`` keeps the forms of all nv^3 words of length 3 over one
denominator, the A_3 read of the admissibility checks of ``morphisms``.

W-coordinate tables.  ``w_tables`` holds what the sequence-pair towers
of ``ore`` read in the bases of the W_i (``WTables``): the pivot-word
reads back into W_i, the systems of d_i on W_i (x) A_1, each factored
once so that every tower reads its stage solutions off it, the normal
forms of the letter pairs and omega in each W_j (x) W_{d-j}.  They are built
on the first Ore request, never during certification.  The towers also
read the splits of W_i in W_{i-1} (x) V and V (x) W_{i-1} (``split``),
which the algebra keeps, so the differentials of the rank route and
the towers compute each split once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import (
    CertificationError,
    EngineInvariantError,
    NotAdmissibleError,
    NotASRegularError,
    NotInvertibleError,
)
from .linalg import (
    ONE,
    FactoredColumns,
    Matrix,
    P,
    Subspace,
    Tensor,
    _back,
    _canonical,
    _block_sum,
    _operator,
    echelon,
    expand_scaled,
    flat_word,
    rank,
    row_rank,
    shift,
    subspace_intersect,
    word_flat,
)


@dataclass(frozen=True)
class KoszulCertificate:
    """Outcome of the finite Koszul/AS checks, a value: exactness in
    every internal degree <= ``bound``, and in every degree when
    ``route`` is "pbw" (``QuadraticAlgebra.certify_koszul``).

    ``ranks[(m, i)]`` is the rank over Q of the i-th Koszul differential
    in internal degree m.  ``route`` is the route that proved it: "pbw",
    "ore" (read off the certificate of the base A' of an Ore letter) or
    "ranks".  ``d`` and ``omega`` are set on the algebra's AS-regular
    certificate and on every certificate made after it.
    """

    bound: int
    ranks: dict
    route: str
    euler_ok: bool = True
    d: int | None = None
    omega: Tensor | None = None

    @property
    def as_regular(self) -> bool:
        return self.d is not None


class _Piece:
    """Degree-m homogeneous data: the chosen basis words and, for every
    pair column b * nv + v of A_{m-1} (x) V, its normal form in A_m as
    (int numerators by basis position, denominator).

    A piece is made from the forward echelon of its reducer
    (``_build_piece``), whose pivot columns, those of the RREF, already
    fix the words.  The back pass and the pair table are made on the
    first read of ``pairs``, so a piece read only for its dimension never
    pays them."""

    __slots__ = ("words", "_reducer", "_pairs")

    def __init__(self, words, reducer):
        self.words = words
        self._reducer = reducer
        self._pairs = None

    @property
    def pairs(self) -> list[tuple[dict[int, int], int]]:
        reducer = self._reducer
        if reducer is not None:
            # on copies of the rows, which _back clears in place: two
            # threads may both build, and they store the same table
            rref = _back({p: dict(r) for p, r in reducer.items()})
            npairs = len(rref) + len(self.words)  # a pair column is a pivot or a word
            col = {p: k for k, p in enumerate(p for p in range(npairs) if p not in rref)}
            pairs = []
            for p in range(npairs):
                row = rref.get(p)
                if row is None:
                    pairs.append(({col[p]: 1}, 1))
                else:
                    # a primitive RREF row reads e_p = -sum_k (row[k] / row[p]) e_k
                    pairs.append(({col[k]: -v for k, v in row.items() if k != p}, row[p]))
            self._pairs = pairs
            self._reducer = None
        return self._pairs


_NO_PIECE = _Piece([], {})  # A_m = 0 for m < 0
_MAX_D = 12  # the largest global dimension certify_as_regular looks for


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
                # the numerators alone: one common scale leaves a span unchanged
                rows.append({word_flat(w, self.nv): n for w, n in t.nums.items()})
            self.R = Subspace(self.nv**2, rows)
        self._order, self._peeled = _ore_order(self.R, self.nv)
        self._pos = {v: k for k, v in enumerate(self._order)}
        self._pieces: list[_Piece] = []
        self._W: list[Subspace] = []
        self._nf_cache: dict[tuple, dict] = {}
        self._splits: dict[tuple, list] = {}  # split(i, left), by (i, left)
        self._nf3_table = None         # every length-3 word's normal form, by _nf3
        self._pbw = None               # normal-pair matrix, or False: the PBW test, run once
        self._base = None              # (A', sigma', delta'), or False: by _ore_base, run once
        self._exact: list[tuple[int, ...]] = []  # Q ranks of degrees 1, 2, ... proved exact
        self.certificate: KoszulCertificate | None = None  # set once, by certify_as_regular
        self._nakayama = None          # (weakref, matrix, inverse), by morphisms.nakayama_of_A
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
                self._pieces.append(_Piece([()], {}))
            elif k == 1:
                self._pieces.append(_Piece([(v,) for v in self._order], {}))
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
                rows.append(_block_sum((c, self._nf(aw + (u,)), None, nv, k) for u, k, c in rel)[0])
        # the forward echelon has the pivot columns of the RREF, which fix
        # the basis words; the back pass waits for the first read of pairs
        reducer = echelon(rows)
        npairs = len(lower.words) * nv
        words = [
            lower.words[p // nv] + (self._order[p % nv],) for p in range(npairs) if p not in reducer
        ]
        return _Piece(words, reducer)

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
        nums, den = _block_sum((c, pairs[b * self.nv + last], None, 1, 0) for b, c in prefix.items())
        out = _canonical(nums, den * pden)
        self._nf_cache[word] = out
        return out

    def _nf3(self) -> tuple[list[dict[int, int]], int]:
        """The normal forms of all nv^3 words of length 3, read off
        ``_nf`` on the first call and kept: entry word_flat(w) holds
        ``nf_word(w)`` as int numerators over one denominator L, the lcm
        of the words' own.  A_3 = V^(x)3 / (R (x) V + V (x) R), so a
        degree-3 tensor lies in R (x) V + V (x) R exactly when the sum
        of its coefficients times these rows is zero, whatever their
        common scale (the admissibility test of ``morphisms``)."""
        if self._nf3_table is None:
            forms = [self._nf(flat_word(f, 3, self.nv)) for f in range(self.nv**3)]
            big = lcm(*[den for _, den in forms])
            self._nf3_table = (
                [{k: n * (big // den) for k, n in nums.items()} for nums, den in forms], big
            )
        return self._nf3_table

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
        nums, den = _block_sum(
            (n, self._nf(w[keep:]), None, 1, word_flat(w[:keep], self.nv) * stride)
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
                nums, den = _block_sum(
                    (c, self._nf((v,) + aw), None, 1, base) for c, v, base in terms
                )
                rows.append((nums, den * wden))
        return rows

    def split(self, i: int, left: bool = False) -> list[tuple[dict[int, int], int]]:
        """The W_i basis vectors (pivot order) in W_{i-1} (x) V: per
        vector, int numerators keyed m * nv + v on w_m (x) x_v (w_m the
        W_{i-1} basis) over one denominator.  With ``left``, in V (x)
        W_{i-1}, keyed v * dim W_{i-1} + m on x_v (x) w_m.  W_0 is the
        scalar line, whose one basis word is the empty word.  Kept once
        every vector is split: an escape raises and keeps nothing."""
        if (i, left) in self._splits:
            return self._splits[(i, left)]
        nv = self.nv
        wprev = self.koszul_space(i - 1)
        out = []
        for t in self.koszul_space(i).basis_tensors(nv, i):
            got = expand_scaled(t, int(left), wprev, i - 1, int(not left))
            if got is None:
                side = f"V (x) W_{i - 1}" if left else f"W_{i - 1} (x) V"
                raise EngineInvariantError(f"W_{i} escapes {side}")
            exp, den = got
            if left:
                out.append(({v * wprev.dim + m: c for ((v,), m, _), c in exp.items()}, den))
            else:
                out.append(({m * nv + v: c for (_, m, (v,)), c in exp.items()}, den))
        self._splits[(i, left)] = out
        return out

    def w_tables(self) -> "WTables":
        """The W-coordinate tables of the sequence-pair towers, built on
        the first call (``WTables``); certifies AS-regularity first."""
        if self._w_tables is None:
            self.ensure_as_regular()
            self._w_tables = WTables(self)
        return self._w_tables

    def _normal_pairs(self) -> list[list[int]] | None:
        """The PBW test of ``certify_koszul``, run once per algebra: the
        0/1 matrix of normal pairs (row a, column b for x_a x_b in
        ``basis_words(2)``) when A is PBW for ``order``, else None.  It
        reads the pieces A_2 and A_3 and nothing above."""
        if self._pbw is None:
            normal = [[0] * self.nv for _ in range(self.nv)]
            for a, b in self.basis_words(2):
                normal[a][b] = 1
            self._pbw = normal if _walk_counts(normal, 3)[3] == self.dim_A(3) else False
        return self._pbw or None

    def certify_koszul(self, bound: int) -> KoszulCertificate:
        """Prove the Koszul complex of k_A exact through internal degree
        ``bound`` and return a new certificate for exactly that bound.

        In degree m the complex is W_t (x) A_{m-t} -> ... -> W_1 (x)
        A_{m-1} -> A_m -> 0 with t = min(m, top nonzero W).  Write
        D_i = dim W_i (x) A_{m-i} (so D_0 = dim A_m) and r_i for the
        rank over Q of d_i: W_i (x) A_{m-i} -> W_{i-1} (x) A_{m-i+1},
        with r_{t+1} = 0.  d_1: V (x) A_{m-1} -> A_m is multiplication,
        onto because A is generated in degree 1 (Polishchuk-Positselski,
        *Quadratic Algebras*, AMS 2005, Ch. 2), so r_1 = D_0 in every
        degree, on every route, with no rank taken.  Exactness is then
        r_i + r_{i+1} = D_i for i = 1..t.

        PBW route (``route`` "pbw").  Order the words of one length
        lexicographically by ``order``.  The smallest words of the
        elements of R are the pivot words of its RREF, the *leading*
        pairs; the other pairs are ``basis_words(2)``.  Rewriting a
        leading pair by its relation replaces a word by larger ones, so
        this terminates, and the *normal* words, those with no leading
        pair, span every A_m.  By Bergman's diamond lemma (1978) they are
        a basis of every A_m iff every overlap x_a x_b x_c with both
        pairs leading resolves, and the overlaps live in degree 3: that
        is the test, N_3 = dim A_3 with N_m the number of normal words of
        length m (``_normal_pairs``).  When it holds, A is a PBW algebra
        and so Koszul in every degree (Priddy 1970; Polishchuk-
        Positselski, *Quadratic Algebras*, AMS 2005, Ch. 4).  Its dual
        A^! = T(V*)/(R^perp) is PBW too, for the reversed order, with the
        leading pairs of A as its normal pairs, so dim W_i = dim A^!_i is
        the number of words of length i whose pairs are all leading.
        Both counts are powers of a 0/1 transfer matrix (``_walk_counts``).
        With r_1 = D_0, an exact complex has the ranks r_{i+1} = D_i - r_i,
        so these are the ranks over Q of the differentials, the ones the
        rank route would find; no differential is built and no rank is
        taken.  The Euler identity D_t = r_t, which exactness implies, is
        kept as a safety net (``EngineInvariantError``; ``_forced_ranks``).

        Ore route (``route`` "ore"), when the PBW test fails but A =
        A'[v; sigma', delta'] for the first peeled Ore letter v
        (``_ore_base``): A' is certified to ``bound`` on its own route,
        and A's dimensions, hence the ranks exactness forces, are read
        off A''s certificate (``_ore_ranks``, which holds the proof).  No
        piece, Koszul space or differential of A is built.

        Rank route (``route`` "ranks"), for every other algebra, and
        whenever the ore route rejects sigma' or delta' or A' fails to
        certify: the ranks are computed degree by degree
        (``_prove_by_ranks``), and the certificate says nothing beyond
        the bound; that is the strongest finite statement available
        without the PBW test.
        """
        if bound < 2:
            raise ValueError("certification bound must be at least 2")
        normal = self._normal_pairs()
        if normal is not None:
            counts = _walk_counts(normal, bound), _walk_counts(_complement(normal), bound)
            proved, route = _forced_ranks(*counts, bound), "pbw"
        else:
            proved, route = self._ore_ranks(bound), "ore"
            if proved is None:
                proved, route = self._prove_by_ranks(bound), "ranks"
        if self.certificate is None:
            return KoszulCertificate(bound, proved, route)
        return replace(self.certificate, bound=bound, ranks=proved, route=route)

    def _ore_base(self):
        """(A', sigma', delta') when the first Ore letter v that
        ``_ore_order`` peeled presents A as A'[v; sigma', delta'], with A'
        = T(V')/(R') on the other letters (in index order); None when no
        letter was peeled or a check rejects sigma' or delta'.  Read
        once; A' refers to nothing of A.

        The peel keeps an echelon basis of R, fully reduced, for an order
        of the pairs with v (x) V' first.  Its rows with no entry in v (x)
        V' span R'.  Each of the |V'| others has its pivot in v (x) V', so
        those pivots fill v (x) V', and as every pivot column is cleared
        from the other rows, such a row has exactly one entry c there, at
        v (x) u.  Divided by c it reads v (x) u - sigma'(u) (x) v -
        delta'(u): sigma'(u) is read off its V' (x) v entries and
        delta'(u) off its V' (x) V' entries.  A is then A'[v; sigma',
        delta'] (z u = sigma(u) z + delta(u), the convention of
        ``ore.ore_relations``) iff sigma' is an automorphism of A' and
        delta' an admissible sigma'-derivation: the exact checks of
        ``check_automorphism`` (sigma' invertible, (sigma' (x)
        sigma')(R') = R') and ``extend_derivation`` (delta'(R') = 0 in
        A'_3).
        """
        if self._base is None:
            self._base = False
            if self._peeled is not None:
                # morphisms is built on this module
                from .morphisms import check_automorphism, extend_derivation

                v, ore_rows, rest = self._peeled
                letters = [u for u in range(self.nv) if u != v]
                at = {u: k for k, u in enumerate(letters)}
                n = len(letters)
                rows = [{at[a] * n + at[b]: c for (a, b), c in r.items()} for r in rest]
                base = QuadraticAlgebra([self.names[u] for u in letters], Subspace(n * n, rows))
                sigma: list = [None] * n
                images: list = [None] * n
                for row in ore_rows:
                    u, c = next((b, c) for (a, b), c in row.items() if a == v)
                    sigma[at[u]] = [Fraction(-row.get((a, v), 0), c) for a in letters]
                    delta = {(at[a], at[b]): Fraction(-x, c) for (a, b), x in row.items() if v not in (a, b)}
                    images[at[u]] = Tensor(n, 2, delta)
                try:
                    s = check_automorphism(Matrix(sigma), base)
                    self._base = (base, s, extend_derivation(images, s, base))
                except (NotAdmissibleError, NotInvertibleError):
                    pass
        return self._base or None

    def _ore_ranks(self, bound: int) -> dict | None:
        """The ore route of ``certify_koszul``: the ranks {(m, i): r_i}
        through ``bound``, proved from the certificate of the base A' of
        ``_ore_base`` at ``bound``; None when there is no such base or A'
        fails to certify (``CertificationError``).

        Claim.  Let B = A'[z; sigma, delta] be a graded Ore extension of
        the quadratic algebra A' by a letter z of degree 1.  If the Koszul
        complex of A' is exact in every internal degree <= N, so is that
        of B, and dim W_i(B) = dim W_i(A') + dim W_{i-1}(A') for i <= N.

        Proof.  Write T^C_{i,j} for Tor^C_i(k, k) in internal degree j.
        For a quadratic algebra C, T^C_{i,j} = 0 for j < i and T^C_{i,i}
        is the dual of W_i(C); and the Koszul complex of C is exact in
        every internal degree <= N iff T^C_{i,j} = 0 for all i < j <= N
        (Polishchuk-Positselski, *Quadratic Algebras*, AMS 2005, Ch. 2:
        the Koszul complex is the diagonal part of the minimal
        resolution of k, and they agree through degree N exactly when
        the resolution has no generator off the diagonal there).

        B is free over A' on the powers of z, on either side, as sigma is
        invertible.  Let M = B (x)_A' k, a left B-module with basis the
        classes of 1, z, z^2, ...  Right multiplication by z is well
        defined on M: for a in A'_+, a z = z sigma^-1(a) - delta(sigma^-1
        (a)) lies in B A'_+.  It is injective with cokernel B / B_+ = k,
        which gives the exact sequence of graded left B-modules

            0 -> M(-1) -> M -> k -> 0.

        A free resolution P of k over A' gives the free resolution B
        (x)_A' P of M (B is flat over A'), and k (x)_B (B (x)_A' P) = k
        (x)_A' P, so Tor^B_i(k, M) = Tor^A'_i(k, k) degree by degree.  The
        long exact sequence of Tor^B(k, -) in internal degree j reads

            T^A'_{i,j-1} -> T^A'_{i,j} -> T^B_{i,j} -> T^A'_{i-1,j-1} -> T^A'_{i-1,j}.

        For i < j <= N both T^A'_{i,j} and T^A'_{i-1,j-1} vanish, so
        T^B_{i,j} = 0: B's Koszul complex is exact through degree N.  For
        j = i <= N the outer terms vanish (i > i - 1, and i - 1 < i <= N),
        which leaves 0 -> T^A'_{i,i} -> T^B_{i,i} -> T^A'_{i-1,i-1} -> 0
        and the W formula.  With dim B_m = sum_{j <= m} dim A'_j (the free
        basis), every D_i of B through degree N is known, and exactness
        forces the ranks (``_forced_ranks``, Euler identity included).

        A''s certificate at N carries its own dimensions (``_ore_dims``),
        on whichever route it took, so nothing is built on B, and on A'
        only what its own route builds.
        """
        base = self._ore_base()
        if base is None:
            return None
        try:
            ranks = base[0].certify_koszul(bound).ranks
        except CertificationError:
            return None
        return _forced_ranks(*_ore_dims(ranks, bound), bound)

    def _ore_w_dims(self) -> list[int] | None:
        """dim W_0(B), ..., dim W_{d+4}(B) for B on the ore route: the
        base A' is certified AS-regular of some dimension d, then to
        bound d + 4, which proves the W formula of ``_ore_ranks`` through
        d + 4.  That covers W_{d+2}(B) = 0, the first zero, and B's own
        certificate at d + 4.  None when the route does not apply or A'
        fails either certification; then B's own W_i are read."""
        base = self._ore_base()
        if base is None:
            return None
        a = base[0]
        try:
            top = a.certify_as_regular()[0] + 4
            ranks = a.certify_koszul(top).ranks
        except (CertificationError, NotASRegularError):
            return None
        return _ore_dims(ranks, top)[1]

    def _prove_by_ranks(self, bound: int) -> dict:
        """The rank route of ``certify_koszul``: prove exactness in
        every degree <= ``bound`` by rank computations, plus the Euler
        identity, and return the ranks as {(m, i): r_i}.  Each degree is
        proved once per algebra (its Q ranks are kept), so a higher bound
        proves only the degrees above the highest one proved.

        r_1 = D_0 is known: d_1 is onto A_m (``certify_koszul``).  So
        only d_2..d_t are built and ranked, and A_m is read for its
        dimension alone.  The ranks are taken on the integer numerators
        of the rows, each row scaled by its denominator, which keeps the
        rank over Q.  They are first taken mod the word-size prime p =
        ``linalg.P`` = 2^30 - 35 (``linalg.rank``), giving s_i for i >= 2,
        and those stand for the r_i when they meet every equality.  That
        is sound over Q, for any prime, because
          * s_i <= r_i (scaling the rows keeps the rank over Q, and
            reduction mod p of integer rows cannot raise it);
          * d_i d_{i+1} = 0 over Q (the last two factors of W_{i+1}
            lie in R), so im d_{i+1} <= ker d_i and r_i + r_{i+1} <= D_i.
        With s_1 = r_1 = D_0, each D_i = s_i + s_{i+1} <= r_i + r_{i+1} <=
        D_i with s <= r termwise pins r_{i+1}, from i = 1 up: every Q rank
        equals its mod-p rank.

        Each modular rank stops early at a cap: D_{i-1} - s_{i-1} for d_i,
        so D_1 - D_0 for d_2.  The cap never cuts a rank short, because by
        the same facts s_i <= r_i <= D_{i-1} - r_{i-1} <= D_{i-1} -
        s_{i-1}, so the capped rank min(cap, s) is s itself.  In an exact
        degree the cap equals the rank, and the rows left once it is
        reached, which would only have cleared to zero, are never
        eliminated.

        When an equality falls short, that degree's ranks of d_2..d_t are
        recomputed over Q without a cap, and only those exact ranks can
        raise.

        Raises CertificationError at the first failing position, a W_i (x)
        A_{m-i} with i >= 1, carrying the degree's ``dims`` (D_0..D_t) and
        its Q ``ranks`` ({i: r_i}, r_1 = D_0 included).
        """
        # W spaces vanish for good once one is zero (W_i <= W_{i-1} (x) V).
        top = 0
        for m in range(len(self._exact) + 1, bound + 1):
            while top < m and self.koszul_space(top + 1).dim > 0:
                top += 1
            dims = tuple(self.koszul_space(i).dim * self.dim_A(m - i) for i in range(top + 1))
            # r_1 = D_0, so only d_2..d_t are built; the numerators alone:
            # scaling a row keeps its rank
            diffs = [[nums for nums, _ in self._differential(i, m - i)] for i in range(2, top + 1)]
            ranks = [dims[0]]
            for i, rows in enumerate(diffs, 2):
                # the cap of d_i is D_{i-1} - r_{i-1} (see the docstring)
                ranks.append(rank(rows, P, dims[i - 1] - ranks[-1]))
            if _inexact_at(dims, ranks) is not None:
                ranks = [dims[0]] + [rank(rows) for rows in diffs]
                pos = _inexact_at(dims, ranks)
                if pos is not None:
                    raise CertificationError(
                        f"complex not exact at W_{pos} (x) A_{m - pos}", degree=m, position=pos,
                        dims=dims, ranks=dict(enumerate(ranks, 1)),
                    )
            # implied by exactness; kept as an independent safety net
            if sum((-1) ** i * d for i, d in enumerate(dims)):
                raise CertificationError(
                    f"Euler identity fails in degree {m}", degree=m,
                    dims=dims, ranks=dict(enumerate(ranks, 1)),
                )
            self._exact.append(tuple(ranks))
        return {
            (m, i): r for m, rs in enumerate(self._exact[:bound], 1) for i, r in enumerate(rs, 1)
        }

    def certify_as_regular(self):
        """Locate d <= ``_MAX_D`` with W_d != 0 = W_{d+1} and run the finite
        AS checks.

        Returns (d, omega) with omega the canonical basis tensor of W_d
        (RREF representative, leading coordinate 1).  The first success
        sets ``certificate`` once, at bound d + 3; later calls read it.
        On the PBW route the dims of the W_i are counts of words
        (``certify_koszul``), so an infinite A^!, whose leading pairs
        close a cycle, is refuted with no W_i built; on the ore route
        they are sums of those of the base (``_ore_w_dims``).  Either
        way W_d is built for omega, and its dim must match.

        AS-Gorenstein at the outer cuts.  For a Koszul A, A is
        AS-Gorenstein of dimension d iff A^! is Frobenius (S. P. Smith
        1996, Prop. 5.10), that is, iff the product A^!_i (x) A^!_{d-i}
        -> A^!_d is a perfect pairing for every i.  W_i is dual to A^!_i,
        and omega's coordinates in W_i (x) W_{d-i} are the matrix of that
        pairing.  At i = 1 and d - 1 they are omega's first-letter and
        last-letter flattenings, n x n^(d-1) and n^(d-1) x n matrices
        whose ranks equal those of the coordinate matrices, as the W_{d-1}
        basis is independent; each must have rank n (``linalg.row_rank``,
        mod p first).  The middle cuts, 2 <= i <= d - 2, are not read.

        Raises NotASRegularError if any check fails.
        """
        if self.certificate is not None:
            return self.certificate.d, self.certificate.omega
        normal = self._normal_pairs()
        if normal is None:
            counts = self._ore_w_dims()
        else:
            counts = _walk_counts(_complement(normal), _MAX_D + 1)
        dims = []
        for i in range(_MAX_D + 2):
            dims.append(self.koszul_space(i).dim if counts is None else counts[i])
            if dims[-1] == 0:
                break
        else:
            raise NotASRegularError(f"W_i stays nonzero through degree {_MAX_D + 1}")
        d = len(dims) - 2
        if dims[d] != 1:
            raise NotASRegularError(f"dim W_{d} = {dims[d]} != 1")
        for i in range(0, d + 1):
            if dims[i] != dims[d - i]:
                raise NotASRegularError(
                    f"dim W_{i} != dim W_{d - i}: {dims[i]} vs {dims[d - i]}"
                )
        wd = self.koszul_space(d)
        if wd.dim != dims[d]:
            raise EngineInvariantError(f"dim W_{d} = {wd.dim}, but its route reads {dims[d]}")
        omega = wd.basis_tensors(self.nv, d)[0]
        for side, rows in (("first", _flattening(omega, 0)), ("last", _flattening(omega, -1))):
            r = row_rank(rows)
            if r != self.nv:
                raise NotASRegularError(
                    f"omega's {side}-letter flattening has rank {r} < {self.nv}: A^! is not Frobenius"
                )
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
    * ``read[i]`` = (L, rows) (i >= 1): an element X of W_i given in
      W_{i-1} (x) V, keyed m * nv + v, has the coefficient sum X[key] * n
      / L over the (key, n) pairs of rows[l] on w^i_l.  That is X's entry
      at the pivot word h + (v,) of w^i_l: key = m * nv + v and n / L the
      entry of w^(i-1)_m at h.
    * ``stage[i]`` (i >= 2): the system whose columns are the rows of
      ``differential_rows(i, 1)``, the Koszul differential W_i (x) A_1
      -> W_{i-1} (x) A_2, with the unknown of w^i_l (x) x_j at l * nv +
      j (letters by index, not by ``order``), factored once as a
      ``linalg.FactoredColumns``.  Every right tower of A reads its
      stage-i images off it; its docstring proves that the reads are
      those of eliminating each system with its right-hand sides.
    * ``pairs``: the operator (``linalg._operator``) whose row a * nv + b
      is the normal form of x_a x_b in A_2.
    * ``split[i]`` and ``left_split[i]`` (i >= 1): ``alg.split(i)`` and
      ``alg.split(i, left=True)`` as operators, W_i -> W_{i-1} (x) V and
      W_i -> V (x) W_{i-1}.  ``split_swap[i]`` holds the rows of
      ``split[i]`` keyed v * dims[i - 1] + m on w_m (x) x_v, and
      ``left_swap[i]`` those of ``left_split[i]`` keyed m * nv + v on x_v
      (x) w_m: the same vectors with the two keys swapped.
    * ``omega[j]``: omega in W_j (x) W_{d-j}, keyed a * dims[d - j] + b on
      w^j_a (x) w^(d-j)_b: omega's entry at the joined pivot words.
    """

    __slots__ = (
        "dims", "words", "words_v", "read", "stage", "pairs", "split", "left_split",
        "split_swap", "left_swap", "omega",
    )

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
        self.read = [None] + [
            (scaled[i - 1][1], [
                [(m * nv + p % nv, r[p // nv]) for m, r in enumerate(scaled[i - 1][0]) if p // nv in r]
                for p in spaces[i].pivots
            ])
            for i in range(1, d + 1)
        ]
        self.stage = [None, None]
        for i in range(2, d + 1):
            diff = alg.differential_rows(i, 1)
            cols = [diff[l * nv + alg._pos[j]] for l in range(self.dims[i]) for j in range(nv)]
            self.stage.append(FactoredColumns(cols, self.dims[i - 1] * alg.dim_A(2)))
        self.pairs = _operator([alg._nf((a, b)) for a in range(nv) for b in range(nv)])
        self.split, self.left_split, self.split_swap, self.left_swap = [None], [None], [None], [None]
        for i in range(1, d + 1):
            p = self.dims[i - 1]
            self.split.append(_operator(alg.split(i)))
            self.left_split.append(_operator(alg.split(i, left=True)))
            self.split_swap.append(_swapped(self.split[i], nv, p))
            self.left_swap.append(_swapped(self.left_split[i], p, nv))
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


def _ore_order(R: Subspace, nv: int) -> tuple[tuple[int, ...], tuple | None]:
    """The letter order of T(V)/(R): Ore letters peeled smallest index
    first, then the rest in index order (module docstring); and the
    first peel as (v, its Ore rows, the rows of R'), by ``_peel``, or
    None when no letter peels."""
    # relation rows keyed by pairs (a, b), a fully reduced echelon basis
    # for the index order of the pairs; R's own RREF is one
    rels = [{divmod(k, nv): c for k, c in row.items()} for row in R.int_rows()]
    letters = list(range(nv))
    order = []
    first = None
    while len(letters) > 1:
        for v in letters:
            split = _peel(rels, v, letters, nv)
            if split is not None:
                break
        else:
            break
        first = first or (v, *split)
        order.append(v)
        letters.remove(v)
        rels = split[1]
    return tuple(order + letters), first


def _peel(rels: list[dict], v: int, letters: list[int], nv: int) -> tuple[list, list] | None:
    """(the rows that meet v (x) V', the rest) of a fully reduced
    echelon basis of the span of ``rels`` for an order of the pairs
    with v (x) V' first, when v is an Ore letter of that span over the
    other ``letters`` V', else None.  The rest span R'.

    Its rows that meet v (x) V' have their pivots there, and the others
    span the relations with no part in v (x) V'.  So v is an Ore letter
    when no row meets v (x) v, |V'| rows meet v (x) V', and none of the
    others meets V' (x) v.  With v the smallest letter left the index
    order puts v (x) V' first, so ``rels`` is such a basis already; for
    another v one reduced echelon pass reorders the pairs.  Either way
    the rest keeps the index order on V' (x) V'.
    """
    if any((v, v) in rel for rel in rels):
        return None
    if v != letters[0]:
        n2 = nv * nv
        pivots = echelon(
            ({(0 if a == v else n2) + a * nv + b: c for (a, b), c in rel.items()} for rel in rels),
            reduced=True,
        )
        rels = [{divmod(k % n2, nv): c for k, c in row.items()} for row in pivots.values()]
    rest = [rel for rel in rels if all(a != v for a, _ in rel)]
    if len(rels) - len(rest) != len(letters) - 1 or any(b == v for rel in rest for _, b in rel):
        return None
    return [rel for rel in rels if any(a == v for a, _ in rel)], rest


def _swapped(op: tuple[list[dict], int], inner: int, outer: int) -> tuple[list[dict], int]:
    """An operator into a product of two spaces, its rows keyed m * inner
    + v, with each key v * outer + m instead."""
    rows, den = op
    return [{k % inner * outer + k // inner: n for k, n in r.items()} for r in rows], den


def _expand(vec: tuple[dict, int], head, tail, out: dict | None = None, scale: int = 1) -> tuple[dict, int]:
    """A coordinate vector on a tensor product of two spaces as a
    tensor: int numerators by word over one denominator.  ``head`` and
    ``tail`` are ``WTables.words`` or ``words_v`` entries (rows, L), and
    key k * len(tail rows) + m holds the coordinate on head row k (x)
    tail row m.  Cancelled entries stay as zeros.  Given ``out``, the
    numerators times ``scale`` are added into it, a raw sum, and it is
    returned."""
    nums, den = vec
    hrows, hden = head
    trows, tden = tail
    size = len(trows)
    if out is None:
        out = {}
    get = out.get
    for key, c in nums.items():
        h, t = divmod(key, size)
        tail_row = trows[t]
        c *= scale
        for hw, hn in hrows[h]:
            f = c * hn
            for tw, tn in tail_row:
                w = hw + tw
                out[w] = get(w, 0) + f * tn
    return out, den * hden * tden


def _flattening(omega: Tensor, pos: int) -> list[dict]:
    """omega's flattening by the letter at ``pos`` (0 or -1): row a holds
    the numerators of the words with letter a there, keyed by the flat
    index of the rest of the word."""
    rows: list[dict] = [{} for _ in range(omega.nv)]
    for w, n in omega.nums.items():
        rest = w[1:] if pos == 0 else w[:-1]
        rows[w[pos]][word_flat(rest, omega.nv)] = n
    return rows


def _walk_counts(adj: list[list[int]], top: int) -> list[int]:
    """The number of words of each length 0..top whose consecutive
    letters (a, b) all have adj[a][b] = 1: 1, then the entry sums of the
    powers of the transfer matrix adj."""
    n = len(adj)
    ends = [1] * n  # the words of the current length, by last letter
    counts = [1]
    for _ in range(top):
        counts.append(sum(ends))
        ends = [sum(ends[a] for a in range(n) if adj[a][b]) for b in range(n)]
    return counts


def _complement(adj: list[list[int]]) -> list[list[int]]:
    """The leading pairs from the normal ones, and back."""
    return [[1 - x for x in row] for row in adj]


def _forced_ranks(a_dims: Sequence[int], w_dims: Sequence[int], bound: int) -> dict:
    """The ranks {(m, i): r_i} that exactness forces in degrees
    1..``bound`` of an algebra with dim A_m = a_dims[m] and dim W_i =
    w_dims[i]: r_1 = D_0 by surjectivity and r_{i+1} = D_i - r_i by
    exactness (``certify_koszul``), with the Euler identity D_t = r_t as
    a safety net."""
    ranks = {}
    for m in range(1, bound + 1):
        # D_0..D_t: a zero W stays zero in every higher degree
        dims = [w * a_dims[m - i] for i, w in enumerate(w_dims[: m + 1]) if w]
        r = 0
        for i in range(len(dims) - 1):
            r = dims[i] - r
            ranks[(m, i + 1)] = r
        if dims[-1] != r:
            raise EngineInvariantError(f"forced ranks break the Euler identity in degree {m}")
    return ranks


def _ore_dims(ranks: dict, bound: int) -> tuple[list[int], list[int]]:
    """dim B_m and dim W_m(B) for m = 0..``bound`` of an Ore extension B
    = A'[z; sigma, delta], read off the ranks of A''s certificate at
    ``bound`` (``QuadraticAlgebra._ore_ranks``).  d_1 is onto A'_m, as A'
    is generated in degree 1, so dim A'_m = r_1 in degree m; exactness at
    W_m (x) A'_0, the last term of degree m, gives dim W_m(A') = r_m (a
    zero W_m has no rank there).  Then
    B_m is the sum of the A'_j z^(m-j), and dim W_m(B) = dim W_m(A') +
    dim W_(m-1)(A')."""
    a_dims = [1] + [ranks[(m, 1)] for m in range(1, bound + 1)]
    w_dims = [1] + [ranks.get((m, m), 0) for m in range(1, bound + 1)]
    return (
        [sum(a_dims[: m + 1]) for m in range(bound + 1)],
        [w + (w_dims[m - 1] if m else 0) for m, w in enumerate(w_dims)],
    )


def _inexact_at(dims: Sequence[int], ranks: Sequence[int]) -> int | None:
    """First position i >= 1 where the degree's complex fails to be exact
    at W_i (x) A_{m-i}, with ``dims[i]`` = dim W_i (x) A_{m-i} and
    ``ranks[i - 1]`` = rank d_i; None if exact.  At A_m it is exact in
    every degree: d_1 is onto (``certify_koszul``)."""
    for i in range(1, len(dims)):
        nxt = ranks[i] if i < len(ranks) else 0
        if ranks[i - 1] + nxt != dims[i]:
            return i
    return None
