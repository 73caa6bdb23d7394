import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from orenaka import (
    CASES,
    CertificationError,
    Matrix,
    NotASRegularError,
    QuadraticAlgebra,
    Subspace,
    Tensor,
    enumerate_solution,
    extend_derivation,
    identity_automorphism,
    make_jordan_plane,
    make_polynomial,
    make_quantum_plane,
    ore_relations,
    random_admissible_automorphism,
    random_admissible_derivation,
    random_case_params,
    subspace_intersect,
)

from orenaka import linalg, quadratic
from orenaka.cli import parse_problem
from orenaka.linalg import P, word_flat

from conftest import (
    catalog_algebras,
    commutative_monomial_count,
    compose_rows,
    direct_koszul,
    fraction_nf_tensor,
    ideal_component,
    koszul_differential,
    rand_frac,
    shifted_relation_space,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_ideal_component_commutative_plane():
    a = make_polynomial(2)
    assert ideal_component(a, 2).dim == 1
    assert a.dim_A(2) == 3
    assert ideal_component(a, 3).dim == 2**3 - a.dim_A(3)
    assert a.dim_A(3) == 4 == commutative_monomial_count(2, 3)


def test_ideal_component_tensor_algebra():
    t = QuadraticAlgebra(["x1", "x2"], [])
    for m in (2, 3, 4):
        assert ideal_component(t, m).dim == 0
        assert t.dim_A(m) == 2**m


def test_dims_match_monomial_count():
    for n in (2, 3):
        a = make_polynomial(n)
        for m in range(7):
            assert a.dim_A(m) == commutative_monomial_count(n, m)
            assert a.dim_A(m) == math.comb(n + m - 1, m)


def test_dims_match_ideal_component():
    # quotient dimensions from two independent routes
    for a in (make_polynomial(2), make_quantum_plane(3), make_jordan_plane()):
        for m in (2, 3, 4):
            assert a.dim_A(m) == a.nv**m - ideal_component(a, m).dim


def test_koszul_space_binomial_dims():
    for n in (2, 3, 4):
        a = make_polynomial(n)
        for m in range(n + 2):
            assert a.koszul_space(m).dim == math.comb(n, m)


def test_koszul_space_dim2_brute_force():
    # direct intersection R(x)V n V(x)R, built without the engine's
    # nested recursion
    for a in (
        make_jordan_plane(),
        make_quantum_plane(2),
        make_quantum_plane(-1),
        make_quantum_plane("1/2"),
    ):
        rv = shifted_relation_space(a.R, 2, 0, 1)
        vr = shifted_relation_space(a.R, 2, 1, 0)
        w3 = subspace_intersect(rv, vr)
        assert a.koszul_space(2).dim == 1
        assert a.koszul_space(3).dim == w3.dim == 0


def test_nested_equals_direct_definition():
    for name, a in catalog_algebras():
        d = a.certificate.d
        for i in range(2, min(d + 2, 5)):
            assert a.koszul_space(i) == direct_koszul(a, i), (name, i)


def test_nested_form_invariant():
    # W_i = (W_{i-1} (x) V) n (V (x) W_{i-1}) asserted against the
    # defining intersection of all shifts
    a = make_polynomial(3)
    for i in (3, 4):
        nested = subspace_intersect(
            _pad_right(a.koszul_space(i - 1), 3),
            _pad_left(a.koszul_space(i - 1), 3),
        )
        assert nested == direct_koszul(a, i)


def _pad_right(s: Subspace, nv: int) -> Subspace:
    rows = []
    for b in s.basis():
        for j in range(nv):
            rows.append({p * nv + j: c for p, c in b.items()})
    return Subspace(s.ambient * nv, rows)


def _pad_left(s: Subspace, nv: int) -> Subspace:
    rows = []
    for b in s.basis():
        for j in range(nv):
            rows.append({j * s.ambient + p: c for p, c in b.items()})
    return Subspace(s.ambient * nv, rows)


def test_koszul_differential_degree_one():
    a = make_polynomial(2)
    m = koszul_differential(a, 1, 0)
    assert m == Matrix.identity(2)


def test_koszul_differential_injective_at_top():
    a = make_polynomial(2)
    m = koszul_differential(a, 2, 0)
    assert m.nrows == 1
    assert any(e for row in m.rows for e in row)
    sp = Subspace(m.ncols, [{j: e for j, e in enumerate(r) if e} for r in m.rows])
    assert sp.dim == 1


def test_differentials_compose_to_zero():
    # the caps of certify_koszul's modular ranks rest on d o d = 0
    algs = [(name, a, a.certificate.d) for name, a in catalog_algebras()]
    algs += [("sklyanin123", _sklyanin(), 3), ("sklyanin-ext", _sklyanin_extension(), 4)]
    for name, a, d in algs:
        for i in range(2, d + 1):
            for j in range(0, 3):
                prod = compose_rows(a.differential_rows(i, j), a.differential_rows(i - 1, j + 1))
                assert all(e == 0 for row in prod for e in row.values()), (name, i, j)


def test_dense_differential_is_view_of_rows():
    a = make_jordan_plane()
    for i, j in ((1, 2), (2, 1), (2, 3)):
        dense = koszul_differential(a, i, j)
        rows = a.differential_rows(i, j)
        assert dense.nrows == len(rows)
        assert dense.ncols == a.koszul_space(i - 1).dim * a.dim_A(j + 1)
        assert [{k: e for k, e in enumerate(r) if e} for r in dense.rows] == rows


def test_nf_tensor_keep_matches_fraction_route():
    rng = random.Random(31)
    algs = [("poly3", make_polynomial(3)), ("quantum(2)", make_quantum_plane(2)),
            ("sklyanin123", _sklyanin())]
    for name, a in algs:
        nv = a.nv
        rels = [Tensor.from_vec(b, nv, 2) for b in a.R.basis()]
        for deg in (2, 3, 4):
            for keep in range(deg - 1):
                stride = a.dim_A(deg - keep)
                # a relation inside the multiplied factors: its terms cancel
                s = rng.randrange(keep, deg - 1)
                head = tuple(rng.randrange(nv) for _ in range(s))
                tail = tuple(rng.randrange(nv) for _ in range(deg - s - 2))
                rel = Tensor.word(nv, head).tensor(rng.choice(rels)).tensor(Tensor.word(nv, tail))
                assert a.nf_tensor(rel, keep) == {}, name
                words = [tuple(rng.randrange(nv) for _ in range(deg)) for _ in range(6)]
                t = Tensor(nv, deg, {w: rand_frac(rng, 5, nonzero=True) for w in words})
                for u in (t, t + rel.scale(rand_frac(rng, 5, nonzero=True))):
                    want = {
                        word_flat(h, nv) * stride + k: v
                        for (h, k), v in fraction_nf_tensor(a, u.entries, keep).items()
                    }
                    assert want and a.nf_tensor(u, keep) == want, (name, deg, keep)


def test_negative_degree_has_no_basis():
    a = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 1): 1, (1, 0): -1})])
    assert a.dim_A(4) == 5
    for m in (-1, -2, -5):
        assert a.basis_words(m) == []
        assert a.dim_A(m) == 0
    assert a.differential_rows(1, -1) == []


def test_certify_koszul_poly3_to_8():
    a = make_polynomial(3)
    cert = a.certify_koszul(8)
    assert cert.bound >= 8 and cert.euler_ok


def test_certify_koszul_jordan_to_8():
    cert = make_jordan_plane().certify_koszul(8)
    assert cert.bound >= 8


def _non_koszul_algebra():
    # x1^2, x2^2 and x1 x2 + x2 x3: exactness breaks by degree 4
    return QuadraticAlgebra(
        ["x1", "x2", "x3"],
        [
            Tensor(3, 2, {(0, 0): 1}),
            Tensor(3, 2, {(1, 1): 1}),
            Tensor(3, 2, {(0, 1): 1, (1, 2): 1}),
        ],
    )


def test_certify_detects_non_koszul_input():
    with pytest.raises(CertificationError) as exc:
        _non_koszul_algebra().certify_koszul(5)
    assert exc.value.degree == 4
    assert exc.value.position is not None


def _spy_rank(monkeypatch, lossy=False):
    """Route quadratic.rank through a recorder of the moduli it is
    called with, forwarding any cap; ``lossy`` makes every nonzero rank
    mod p one short."""
    real = quadratic.rank
    calls = []

    def spy(rows, p=None, cap=None):
        calls.append(p)
        r = real(rows, p, cap)
        return r - 1 if lossy and p is not None and r else r

    monkeypatch.setattr(quadratic, "rank", spy)
    return calls


def _q_ranks(a, bound):
    """Every differential's rank through ``bound``, by full RREF over Q
    (``Subspace``), in the (m, i) keys of a certificate."""
    wmax = 0
    while a.koszul_space(wmax + 1).dim and wmax + 1 <= bound:
        wmax += 1
    return {
        (m, i): Subspace(
            a.koszul_space(i - 1).dim * a.dim_A(m - i + 1), a.differential_rows(i, m - i)
        ).dim
        for m in range(1, bound + 1)
        for i in range(1, min(m, wmax) + 1)
    }


def test_certification_error_carries_sizes(monkeypatch):
    a = _non_koszul_algebra()
    calls = _spy_rank(monkeypatch)
    with pytest.raises(CertificationError) as exc:
        a.certify_koszul(5)
    e = exc.value
    assert str(e) == "complex not exact at W_2 (x) A_2"
    assert (e.degree, e.position) == (4, 2)
    assert e.dims == tuple(a.koszul_space(i).dim * a.dim_A(4 - i) for i in range(5))
    q = _q_ranks(a, 4)
    assert e.ranks == {i: q[(4, i)] for i in range(1, 5)}
    assert e.ranks[2] + e.ranks[3] != e.dims[2]
    # the failing degree was recomputed over Q before raising
    assert calls[-4:] == [None] * 4


def _sklyanin() -> QuadraticAlgebra:
    """The Sklyanin algebra S(1, 2, 3) on x, y, z = 0, 1, 2, certified."""
    x, y, z = 0, 1, 2
    rels = [
        {(y, z): 1, (z, y): 2, (x, x): 3},
        {(z, x): 1, (x, z): 2, (y, y): 3},
        {(x, y): 1, (y, x): 2, (z, z): 3},
    ]
    s = QuadraticAlgebra(("x", "y", "z"), [Tensor(3, 2, r) for r in rels])
    s.certify_as_regular()
    return s


def test_certified_ranks_equal_exact_elimination():
    algs = catalog_algebras() + [("sklyanin123", _sklyanin()), ("poly5", make_polynomial(5))]
    for name, a in algs:
        cert = a.certificate
        assert cert.ranks == _q_ranks(a, cert.bound), name


def test_prime_in_denominator_certifies_over_q(monkeypatch):
    want = _q_ranks(make_quantum_plane(2), 6)
    q = Fraction(1, P)
    a = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 1): 1, (1, 0): -q})])
    # the rows are scaled to integers, so the rank mod p is defined
    rows = a.differential_rows(1, 1)
    assert quadratic.rank(rows, P) <= quadratic.rank(rows)
    calls = _spy_rank(monkeypatch)
    cert = a.certify_koszul(6)
    # the modular ranks alone certify
    assert calls and None not in calls
    assert cert.ranks == _q_ranks(a, 6) == want


def test_modular_undercount_falls_back_to_q(monkeypatch):
    want = _q_ranks(make_polynomial(3), 6)
    calls = _spy_rank(monkeypatch, lossy=True)
    a = QuadraticAlgebra(
        ["x1", "x2", "x3"],
        [Tensor(3, 2, {(i, j): 1, (j, i): -1}) for i in range(3) for j in range(i + 1, 3)],
    )
    cert = a.certify_koszul(6)
    assert calls.count(None) == calls.count(P) == len(want)
    assert cert.ranks == want


def test_certify_runs_on_monomial_algebra():
    # x1^2 = 0: Koszul but never AS-regular; certification still runs
    # and reports ranks
    a = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 0): 1})])
    cert = a.certify_koszul(5)
    assert cert.ranks and not cert.as_regular
    with pytest.raises(NotASRegularError):
        a.certify_as_regular()


def test_certify_as_regular_values():
    a2 = make_polynomial(2)
    assert a2.certificate.d == 2
    assert a2.omega == Tensor(2, 2, {(0, 1): 1, (1, 0): -1})

    a3 = make_polynomial(3)
    assert a3.certificate.d == 3
    assert a3.koszul_space(1).dim == a3.koszul_space(2).dim == 3

    q = make_quantum_plane(5)
    assert q.certificate.d == 2
    assert q.omega == Tensor(2, 2, {(0, 1): 1, (1, 0): -5})


def test_dimension_symmetry():
    for name, a in catalog_algebras():
        d = a.certificate.d
        for i in range(d + 1):
            assert a.koszul_space(i).dim == a.koszul_space(d - i).dim, name


def test_euler_identity():
    for name, a in [("poly3", make_polynomial(3)), ("jordan", make_jordan_plane())]:
        n = a.certificate.bound
        for m in range(0, n + 1):
            total = sum(
                (-1) ** i * a.koszul_space(i).dim * a.dim_A(m - i)
                for i in range(0, m + 1)
            )
            assert total == (1 if m == 0 else 0), (name, m)


def test_full_relation_space_rejected():
    a = QuadraticAlgebra(["x1"], [Tensor(1, 2, {(0, 0): 1})])
    with pytest.raises(NotASRegularError):
        a.certify_as_regular()


def test_poly1_degenerate_case():
    a = make_polynomial(1)
    assert a.certificate.d == 1
    assert a.omega == Tensor(1, 1, {(0,): 1})
    for m in range(5):
        assert a.dim_A(m) == 1


# B = S[w; id, delta] for the Sklyanin algebra S = Sklyanin(1, 2, 3).
# Three admissible lifts over x, y, z = 0, 1, 2 span the derivations of S
# modulo the lifts V -> R; delta is 1, 2 and 3 times them.
_SKLYANIN_LIFTS = (
    ({(1, 0): 1, (2, 2): 1}, {}, {(1, 2): Fraction(1, 3), (2, 1): Fraction(-1, 3)}),
    ({(1, 1): 1, (2, 0): 1}, {(1, 2): Fraction(-2, 3), (2, 1): Fraction(2, 3)}, {}),
    ({}, {(1, 0): 1, (2, 2): 1}, {(1, 1): Fraction(1, 2), (2, 0): Fraction(1, 2)}),
)


def _sklyanin_extension() -> QuadraticAlgebra:
    s = _sklyanin()
    sigma = identity_automorphism(s)
    images = [
        Tensor.combine(3, 2, ((c, Tensor(3, 2, lift[i])) for c, lift in zip((1, 2, 3), _SKLYANIN_LIFTS)))
        for i in range(3)
    ]
    delta = extend_derivation(images, sigma, s)
    return QuadraticAlgebra(("x", "y", "z", "w"), ore_relations(sigma, delta))


def _forced_ranks(bound: int) -> dict:
    """The ranks of B's Koszul differentials that exactness forces from
    dim W_i = 1, 4, 6, 4, 1 and dim B_m = C(m + 3, 3)."""
    w_dims = [1, 4, 6, 4, 1]
    want = {}
    for m in range(1, bound + 1):
        r = 0
        for i in range(min(m, 4), 0, -1):
            r = w_dims[i] * math.comb(m - i + 3, 3) - r
            want[(m, i)] = r
        assert r == math.comb(m + 3, 3)
    return want


def test_sklyanin_extension_normal_forms_and_ranks():
    b = _sklyanin_extension()
    cert = b.certify_koszul(5)
    # every word minus its normal form lies in the ideal, built without
    # the reducer
    for m in range(5):
        ideal = ideal_component(b, m)
        basis = [word_flat(w, 4) for w in b.basis_words(m)]
        for w in itertools.product(range(4), repeat=m):
            vec = {word_flat(w, 4): Fraction(1)}
            for k, c in b.nf_word(w).items():
                vec[basis[k]] = vec.get(basis[k], 0) - c
            assert ideal.contains({k: v for k, v in vec.items() if v}), w
    assert [b.koszul_space(i).dim for i in range(6)] == [1, 4, 6, 4, 1, 0]
    assert [b.dim_A(m) for m in range(6)] == [math.comb(m + 3, 3) for m in range(6)]
    assert cert.ranks == _forced_ranks(5)
    # w is the Ore letter and comes first in the order; with w last (the
    # index order) the degree-5 normal forms reached 150 bits
    bits = max(
        max(abs(c.numerator), c.denominator).bit_length()
        for w in b.basis_words(4) for v in range(4) for c in b.nf_word(w + (v,)).values()
    )
    assert bits == 35


def test_sklyanin_extension_certifies_to_default_bound():
    b = _sklyanin_extension()
    d, _ = b.certify_as_regular()
    assert (d, b.certificate.bound) == (4, 7)
    assert b.certificate.ranks == _forced_ranks(7)


def test_ore_letter_order_matches_relabelled_presentation():
    # B with its letters relabelled by hand so that w is letter 0: there
    # w is the smallest-index Ore letter, so the order is the identity
    b = _sklyanin_extension()
    assert b.order == (3, 0, 1, 2)
    new = {old: k for k, old in enumerate(b.order)}
    rels = [
        Tensor(4, 2, {(new[a], new[c]): v for (a, c), v in t.entries.items()})
        for t in (Tensor.from_vec(r, 4, 2) for r in b.R.basis())
    ]
    b0 = QuadraticAlgebra(("w", "x", "y", "z"), rels)
    assert b0.order == (0, 1, 2, 3)
    for m in range(5):
        assert [tuple(new[v] for v in w) for w in b.basis_words(m)] == b0.basis_words(m)
    assert b.certify_koszul(6).ranks == b0.certify_koszul(6).ranks == _forced_ranks(6)


def test_ore_letter_order_gives_pbw_basis():
    # B is a free S-module on the powers of w: its basis words are the
    # basis words of S followed by a power of w
    b, s = _sklyanin_extension(), _sklyanin()
    for m in range(6):
        pbw = {u + (3,) * (m - len(u)) for j in range(m + 1) for u in s.basis_words(j)}
        assert set(b.basis_words(m)) == pbw


def _poly(n: int) -> QuadraticAlgebra:
    """poly(n) built from its relations, uncertified."""
    rels = [Tensor(n, 2, {(i, j): 1, (j, i): -1}) for i in range(n) for j in range(i + 1, n)]
    return QuadraticAlgebra([f"x{i + 1}" for i in range(n)], rels)


def test_letter_order_identity_on_standard_presentations():
    rng = random.Random(11)
    algs = [(f"poly{n}", _poly(n)) for n in range(2, 7)]
    algs += catalog_algebras() + [("sklyanin123", _sklyanin())]
    algs += [(f"quantum({q})", make_quantum_plane(q)) for q in (1, 5, Fraction(-2, 3))]
    algs += [
        (case, enumerate_solution(case, random_case_params(case, rng)).algebra) for case in CASES
    ]
    for path in sorted(GOLDEN.glob("*.json")):
        if path.name != "commands.json":
            spec = parse_problem(json.loads(path.read_text()))
            algs.append((path.name, QuadraticAlgebra(spec.generators, spec.relations)))
    assert {name for name, _ in algs} >= {
        "comm.json", "jordan_cy.json", "poly3.json", "qplane.json", "readme.json"
    }
    for name, a in algs:
        assert a.order == tuple(range(a.nv)), name


def test_letter_order_puts_ore_letters_first():
    # the Jordan plane relabelled: x1 x2 - x2 x1 - x1^2 makes x2 the Ore letter
    j = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 1): 1, (1, 0): -1, (0, 0): -1})])
    assert j.order == (1, 0)
    assert j.basis_words(2) == [(1, 1), (0, 1), (0, 0)]
    # a two-level tower C = B[u; id, delta'] over swell's B
    b = _sklyanin_extension()
    sigma = identity_automorphism(b)
    delta = random_admissible_derivation(b, sigma, random.Random(7))
    c = QuadraticAlgebra(("x", "y", "z", "w", "u"), ore_relations(sigma, delta))
    assert c.order == (4, 3, 0, 1, 2)
    # poly(3)[z; sigma, delta] with dense sigma and delta
    p3 = make_polynomial(3)
    rng = random.Random(5)
    sigma = random_admissible_automorphism(p3, rng)
    delta = random_admissible_derivation(p3, sigma, rng)
    d = QuadraticAlgebra(("x1", "x2", "x3", "z"), ore_relations(sigma, delta))
    assert d.order[0] == 3


def test_sklyanin_extension_certifies_by_capped_modular_ranks(monkeypatch):
    b = _sklyanin_extension()
    calls = _spy_rank(monkeypatch)
    cert = b.certify_koszul(6)
    # every degree was certified by its capped ranks mod P: none fell back
    assert calls and None not in calls
    # against forward-only elimination over Q, which neither caps nor
    # preselects rows
    want = {
        (m, i): linalg.rank(b.differential_rows(i, m - i))
        for m in range(1, 6)
        for i in range(1, min(m, 4) + 1)
    }
    assert {k: r for k, r in cert.ranks.items() if k[0] <= 5} == want


def test_certificates_are_values_independent_of_call_history():
    shared = make_quantum_plane(2)
    stored = shared.certificate
    assert (stored.bound, stored.as_regular, stored.d) == (5, True, 2)
    assert shared.certify_koszul(10).bound == 10
    # the catalog hands out the same algebra, whose certificate never moves
    again = make_quantum_plane(2)
    assert again.certificate is stored and again.certificate.bound == 5
    assert again.certify_as_regular() == (2, stored.omega)
    assert again.certificate is stored


def test_certificate_fields_are_frozen():
    cert = make_polynomial(2).certificate
    for f in dataclasses.fields(cert):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cert, f.name, getattr(cert, f.name))
    with pytest.raises(AttributeError):
        cert.as_regular = False


def test_certify_koszul_returns_exactly_the_bound_asked_for():
    a = _poly(3)
    high = a.certify_koszul(8)
    low = a.certify_koszul(6)
    assert (high.bound, low.bound) == (8, 6)
    assert max(m for m, _ in high.ranks) == 8
    assert max(m for m, _ in low.ranks) == 6
    assert low.ranks == {k: r for k, r in high.ranks.items() if k[0] <= 6}
    # no AS certification ran, so neither certificate carries d
    assert not low.as_regular and low.d is None and a.certificate is None
    # the AS certificate made later carries its own bound d + 3, and a
    # Koszul certificate made after it carries d and omega
    assert a.certify_as_regular()[0] == 3 and a.certificate.bound == 6
    later = a.certify_koszul(8)
    assert (later.bound, later.d, later.omega) == (8, 3, a.omega)


def test_raising_the_bound_proves_only_the_new_degrees(monkeypatch):
    a = _poly(3)
    a.certify_koszul(8)
    calls = _spy_rank(monkeypatch)
    a.certify_koszul(6)
    assert calls == []
    cert = a.certify_koszul(10)
    # W_1..W_3 are nonzero: three modular ranks in each of degrees 9, 10
    assert calls == [P] * 6
    assert sorted(cert.ranks) == [(m, i) for m in range(1, 11) for i in range(1, 4) if i <= m]
    assert cert.ranks == _q_ranks(a, 10)


def test_koszul_certificate_alone_leaves_the_algebra_uncertified():
    # demo 01's monomial algebra: Koszul, but not AS-regular
    mono = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 0): 1})])
    cert = mono.certify_koszul(6)
    assert cert.bound == 6 and not cert.as_regular
    assert mono.certificate is None
    with pytest.raises(NotASRegularError):
        mono.certify_as_regular()
    assert mono.certificate is None
