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
This keeps every elimination matrix small while staying deterministic
under the package-wide flattening order.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import CertificationError, EngineInvariantError, NotASRegularError
from .linalg import (
    ONE,
    P,
    ZERO,
    Matrix,
    Subspace,
    Tensor,
    echelon,
    expand_scaled,
    rank,
    shift,
    subspace_intersect,
    subspace_sum,
    word_flat,
)


@dataclass
class KoszulCertificate:
    """Outcome of the finite Koszul/AS checks.

    ``ranks[(m, i)]`` is the rank over Q of the i-th Koszul differential
    in internal degree m.  ``as_regular``, ``d`` and ``omega`` stay unset
    until ``certify_as_regular`` runs.
    """

    bound: int
    ranks: dict = field(default_factory=dict)
    euler_ok: bool = True
    as_regular: bool = False
    d: int | None = None
    omega: Tensor | None = None


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

    Immutable once certified; all memoized data is filled eagerly by
    the certification entry points and read-only afterwards.
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
        self._pieces: list[_Piece] = []
        self._W: list[Subspace] = []
        self._nf_cache: dict[tuple, dict] = {}
        self._sandwich = None          # R(x)V + V(x)R, for derivation admissibility
        self.certificate: KoszulCertificate | None = None
        self._nakayama = None          # filled by morphisms.nakayama_of_A

    # -- homogeneous pieces -------------------------------------------------

    def _piece(self, m: int) -> _Piece:
        if m < 0:
            return _NO_PIECE
        while len(self._pieces) <= m:
            k = len(self._pieces)
            if k == 0:
                self._pieces.append(_Piece([()]))
            elif k == 1:
                self._pieces.append(_Piece([(j,) for j in range(self.nv)]))
            else:
                self._pieces.append(self._build_piece(k))
        return self._pieces[m]

    def _build_piece(self, m: int) -> _Piece:
        nv = self.nv
        lower = self._piece(m - 1)
        lower2 = self._piece(m - 2)
        rels = [[(divmod(pair, nv), c) for pair, c in rel.items()] for rel in self.R.basis()]
        rows = []
        for aw in lower2.words:
            for rel in rels:
                # the numerators alone: scaling a row keeps its span
                rows.append(_int_sum((c, self._nf(aw + (u,)), nv, v) for (u, v), c in rel)[0])
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
        words = [lower.words[p // nv] + (p % nv,) for p in pair_cols]
        return _Piece(words, pairs)

    def dim_A(self, m: int) -> int:
        return len(self._piece(m).words)

    def basis_words(self, m: int) -> list[tuple]:
        """Chosen monomial basis of A_m as words, in lexicographic order
        (empty for m < 0)."""
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
            return {word[0]: 1}, 1
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        prefix, pden = self._nf(word[:-1])
        pairs = self._piece(m).pairs
        last = word[-1]
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
        stride = self.dim_A(t.degree - keep)
        nums, den = _int_sum(
            (n, self._nf(w[keep:]), 1, word_flat(w[:keep], self.nv) * stride)
            for w, n in t.nums.items()
        )
        den *= t.den
        return {k: Fraction(n, den) for k, n in nums.items() if n}

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
        nv = self.nv
        wprev = self.koszul_space(i - 1)
        dim_anext = self.dim_A(j + 1)
        aj_words = self._piece(j).words
        rows = []
        for b in self.koszul_space(i).basis():
            # expansion of the W_i vector in W_{i-1} (x) V, as numerators
            # over wden; W_0 is the scalar line, whose one basis word is
            # the empty word
            got = expand_scaled(Tensor.from_vec(b, nv, i), 0, wprev, i - 1, 1)
            if got is None:
                raise EngineInvariantError(f"W_{i} escapes W_{i - 1} (x) V")
            exp, wden = got
            terms = [(c, v, l * dim_anext) for (_, l, (v,)), c in exp.items()]
            for aw in aj_words:
                nums, den = _int_sum(
                    (c, self._nf((v,) + aw), 1, base) for c, v, base in terms
                )
                rows.append((nums, den * wden))
        return rows

    def koszul_differential(self, i: int, j: int) -> Matrix:
        """Dense view of ``differential_rows(i, j)``."""
        rows = self.differential_rows(i, j)
        ncols = self.koszul_space(i - 1).dim * self.dim_A(j + 1)
        if not rows:
            return Matrix.zero(0, ncols)
        return Matrix([[row.get(k, ZERO) for k in range(ncols)] for row in rows])

    def certify_koszul(self, bound: int | None = None) -> KoszulCertificate:
        """Verify exactness of the Koszul complex of k_A through internal
        degree ``bound`` by rank computations, plus the Euler identity.

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
        n = bound if bound is not None else (self.certificate.d + 3 if self.certificate and self.certificate.d else 8)
        if n < 2:
            raise ValueError("certification bound must be at least 2")
        if self.certificate is not None and self.certificate.bound >= n:
            return self.certificate
        cert = KoszulCertificate(bound=n)
        # W spaces vanish for good once one is zero (W_i <= W_{i-1} (x) V).
        wmax = 0
        while self.koszul_space(wmax + 1).dim > 0 and wmax + 1 <= n:
            wmax += 1
        for m in range(1, n + 1):
            top = min(m, wmax)
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
            for i, r in enumerate(ranks, 1):
                cert.ranks[(m, i)] = r
            # implied by exactness; kept as an independent safety net
            euler = sum((-1) ** i * d for i, d in enumerate(dims))
            if euler != 0:
                cert.euler_ok = False
                raise CertificationError(
                    f"Euler identity fails in degree {m}", degree=m,
                    dims=dims, ranks=dict(enumerate(ranks, 1)),
                )
        if self.certificate is not None:
            cert.as_regular = self.certificate.as_regular
            cert.d = self.certificate.d
            cert.omega = self.certificate.omega
        self.certificate = cert
        return cert

    def certify_as_regular(self, max_search: int = 12):
        """Locate d with W_d != 0 = W_{d+1} and run the finite AS checks.

        Returns (d, omega) with omega the canonical basis tensor of W_d
        (RREF representative, leading coordinate 1).  Raises
        NotASRegularError if any check fails.
        """
        if self.certificate is not None and self.certificate.as_regular:
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
        cert = self.certify_koszul(max(d + 3, self.certificate.bound if self.certificate else 0))
        omega = Tensor.from_vec(wd.basis()[0], self.nv, d)
        cert.as_regular = True
        cert.d = d
        cert.omega = omega
        self.certificate = cert
        return d, omega

    # -- certified accessors -------------------------------------------------

    @property
    def certified(self) -> bool:
        return self.certificate is not None and self.certificate.as_regular

    @property
    def d(self) -> int:
        self.ensure_as_regular()
        return self.certificate.d

    @property
    def omega(self) -> Tensor:
        self.ensure_as_regular()
        return self.certificate.omega

    def ensure_as_regular(self):
        if not self.certified:
            self.certify_as_regular()
        return self

    def __repr__(self):
        rel = self.R.dim
        return f"QuadraticAlgebra(<{', '.join(self.names)}> with {rel} relations)"


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
