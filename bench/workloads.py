"""The benchmark workloads.

Each workload makes its inputs from the seed in its constructor (the
set-up), runs one request with ``run``, and checks a result by a route
independent of the code that produced it with ``check``.  ``digest``
condenses a result into the string that the reference digests and the
pass-to-pass comparison use.  One pass is the fixed list
``requests``; the timed loop in ``worker.py`` repeats it.

Calls into the program go through module attributes (``ore.nakayama_of_B``,
not a name imported here), so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orenaka import catalog, cli, linalg, morphisms, ore, quadratic  # noqa: E402

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _terms(t) -> list:
    return [["".join(map(str, w)), _frac(c)] for w, c in sorted(t.entries.items())]


def _matrix(m) -> list:
    return [[_frac(x) for x in row] for row in m.rows]


def _ranks_digest(cert) -> str:
    return _sha(sorted([m, i, r] for (m, i), r in cert.ranks.items()))


def bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _nf_max_bits(alg, m: int) -> int:
    """Largest numerator/denominator bit-length in the normal forms of
    the degree-m pair words (an A_{m-1} basis word times a letter)."""
    return max(
        bits(c)
        for w in alg.basis_words(m - 1)
        for v in range(alg.nv)
        for c in alg.nf_word(w + (v,)).values()
    )


def _small(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if x or not nonzero:
            return x


def _recombine(rels: list[dict], rng: random.Random) -> list[dict]:
    """Another basis of the same relation space: random nonzero scalings
    followed by random row additions, invertible by construction."""
    scales = [_small(rng, nonzero=True) for _ in rels]
    rels = [{w: c * s for w, c in r.items()} for r, s in zip(rels, scales)]
    for _ in range(2 * len(rels) if len(rels) > 1 else 0):
        i, j = rng.sample(range(len(rels)), 2)
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        out = dict(rels[i])
        for w, v in rels[j].items():
            out[w] = out.get(w, 0) + c * v
        rels[i] = {w: v for w, v in out.items() if v}
    return rels


def poly_relations(n: int) -> list[dict]:
    return [{(i, j): 1, (j, i): -1} for i in range(n) for j in range(i + 1, n)]


def sklyanin_relations(a, b, c) -> list[dict]:
    """a*yz + b*zy + c*x^2 and its cyclic permutations, over x, y, z."""
    x, y, z = 0, 1, 2
    return [
        {(y, z): a, (z, y): b, (x, x): c},
        {(z, x): a, (x, z): b, (y, y): c},
        {(x, y): a, (y, x): b, (z, z): c},
    ]


def _algebra(names, rels: list[dict]):
    nv = len(names)
    return quadratic.QuadraticAlgebra(names, [linalg.Tensor(nv, 2, r) for r in rels])


def load_reference(name: str):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.requests: list = []

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out) -> str | None:
        raise NotImplementedError

    def digest(self, req, out) -> str:
        raise NotImplementedError

    def probe(self, req, out, tracer) -> None:
        """Record sizes that are too costly to take inside the spans."""

    def fingerprint(self) -> str:
        """Digest of the generated inputs."""
        raise NotImplementedError

    def references(self) -> list | None:
        """Reference digest per request index, or None where none is stored."""
        ref = load_reference(self.name)
        if ref is None or self.seed != DEFAULT_SEED:
            return None
        return ref


class Certify(Workload):
    """poly(2..5) and Sklyanin(1,2,3), each built fresh from a seeded
    basis of its relation space, certified and given mu_A."""

    name = "certify"
    ALGEBRAS = ("poly2", "poly3", "poly4", "poly5", "sklyanin123")

    def __init__(self, seed: int):
        super().__init__(seed)
        for key in self.ALGEBRAS:
            if key == "sklyanin123":
                names, rels, d = ("x", "y", "z"), sklyanin_relations(1, 2, 3), 3
            else:
                n = int(key[4:])
                names, rels, d = tuple(f"x{i + 1}" for i in range(n)), poly_relations(n), n
            self.requests.append((key, names, _recombine(rels, self.rng), d))

    def run(self, req):
        _, names, rels, _ = req
        alg = _algebra(names, rels)
        d, _ = alg.certify_as_regular()
        return alg, d, morphisms.nakayama_of_A(alg)

    def check(self, req, out) -> str | None:
        key, names, _, d_want = req
        alg, d, mu = out
        cert = alg.certificate
        if d != d_want or not cert.as_regular or cert.bound != d_want + 3:
            return f"{key}: d={d}, bound={cert.bound}, as_regular={cert.as_regular}"
        # Hilbert series 1/(1-t)^d, that of a polynomial ring in d
        # variables, which Sklyanin(1,2,3) shares for d = 3
        for m in range(cert.bound + 1):
            if alg.dim_A(m) != comb(m + d - 1, d - 1):
                return f"{key}: dim A_{m} = {alg.dim_A(m)}"
        for i in range(d + 2):
            if alg.koszul_space(i).dim != comb(d, i):
                return f"{key}: dim W_{i} = {alg.koszul_space(i).dim}"
        n = len(names)
        if any(mu.matrix[i, j] != (i == j) for i in range(n) for j in range(n)):
            return f"{key}: mu_A is not the identity"
        return None

    def digest(self, req, out) -> str:
        return _ranks_digest(out[0].certificate)

    def references(self):
        # The ranks dict is an invariant of the algebra, so it is the same
        # for every seed.
        ref = load_reference(self.name)
        return None if ref is None else [ref.get(req[0]) for req in self.requests]

    def probe(self, req, out, tracer) -> None:
        alg = out[0]
        tracer.high("quadratic.nf.max_bits", _nf_max_bits(alg, alg.certificate.bound))

    def fingerprint(self) -> str:
        return _sha([[k, [sorted((list(w), _frac(c)) for w, c in r.items()) for r in rels]]
                     for k, _, rels, _ in self.requests])


# Three admissible lifts on Sklyanin(1,2,3) with sigma = id whose classes
# span the derivations modulo the lifts V -> R; words over x, y, z = 0, 1, 2.
_SKLYANIN_DERIVATIONS = (
    ({(1, 0): 1, (2, 2): 1}, {}, {(1, 2): Fraction(1, 3), (2, 1): Fraction(-1, 3)}),
    ({(1, 1): 1, (2, 0): 1}, {(1, 2): Fraction(-2, 3), (2, 1): Fraction(2, 3)}, {}),
    ({}, {(1, 0): 1, (2, 2): 1}, {(1, 1): Fraction(1, 2), (2, 0): Fraction(1, 2)}),
)


class Swell(Workload):
    """B = S[w; id, delta] for Sklyanin S = Sklyanin(1,2,3), fed back as a
    quadratic algebra on four generators and certified to bound 5."""

    name = "swell"
    BOUND = 5
    CLASS = (1, 2, 3)
    DELTAS = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        rels = sklyanin_relations(1, 2, 3)
        self.base = _algebra(("x", "y", "z"), rels)
        self.base.certify_as_regular()
        self.sigma = morphisms.identity_automorphism(self.base)
        # B depends on delta only through its class modulo the lifts
        # V -> R.  The class is fixed at (1, 2, 3) in the basis above, so
        # every seed certifies the same B; single classes were measured at
        # 6.9 to 8.9 s each on a 2-core x86 box, too wide a spread to compare
        # runs across seeds.  The seed draws the part of each lift in R.
        for _ in range(self.DELTAS):
            images = [dict() for _ in range(3)]
            for c, lift in zip(self.CLASS, _SKLYANIN_DERIVATIONS):
                for img, part in zip(images, lift):
                    for w, v in part.items():
                        img[w] = img.get(w, 0) + c * v
            for img in images:
                for r in rels:
                    c = _small(self.rng)
                    for w, v in r.items():
                        img[w] = img.get(w, 0) + c * v
            tensors = [linalg.Tensor(3, 2, img) for img in images]
            delta = morphisms.extend_derivation(tensors, self.sigma, self.base)
            self.requests.append(delta)

    def run(self, delta):
        rel_hat = ore.ore_relations(self.sigma, delta)
        b = quadratic.QuadraticAlgebra(("x", "y", "z", "w"), rel_hat)
        return b, b.certify_koszul(self.BOUND)

    def check(self, req, out) -> str | None:
        b, cert = out
        w_dims = [b.koszul_space(i).dim for i in range(6)]
        if w_dims != [1, 4, 6, 4, 1, 0]:
            return f"dim W_i = {w_dims}"
        a_dims = [b.dim_A(m) for m in range(self.BOUND + 1)]
        if a_dims != [comb(m + 3, 3) for m in range(self.BOUND + 1)]:
            return f"dim B_m = {a_dims}"
        if cert.bound != self.BOUND:
            return f"certificate bound {cert.bound}"
        return None

    def digest(self, req, out) -> str:
        return _ranks_digest(out[1])

    def references(self):
        # The ranks follow from dim W_i and dim B_m, which do not depend on delta.
        ref = load_reference(self.name)
        return None if ref is None else [ref] * len(self.requests)

    def probe(self, req, out, tracer) -> None:
        tracer.high("quadratic.nf.max_bits", _nf_max_bits(out[0], self.BOUND))

    def fingerprint(self) -> str:
        return _sha([[_terms(t) for t in delta.images] for delta in self.requests])


class OreDense(Workload):
    """nakayama_of_B on poly(4) for seeded dense sigma and admissible delta."""

    name = "ore-dense"
    N = 4
    PAIRS = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        n = self.N
        self.base = _algebra(tuple(f"x{i + 1}" for i in range(n)), poly_relations(n))
        self.base.certify_as_regular()
        for _ in range(self.PAIRS):
            sigma = catalog.random_admissible_automorphism(self.base, self.rng)
            delta = catalog.random_admissible_derivation(self.base, sigma, self.rng)
            self.requests.append((sigma.matrix, delta.images))

    def run(self, req):
        m, images = req
        sigma = morphisms.check_automorphism(m, self.base)
        delta = morphisms.extend_derivation(images, sigma, self.base)
        return sigma, delta, ore.nakayama_of_B(sigma, delta)

    def check(self, req, out) -> str | None:
        sigma, delta, rep = out
        if morphisms.twist_solve(rep.omega_hat) != rep.mu_B:
            return "twist_solve(omega_hat) != mu_B"
        r_hat = ore.ore_relations(sigma, delta)
        if ore.derivation_quotient_relations(rep.omega_hat, self.base.d - 1) != r_hat:
            return "derivation quotient of omega_hat != R-hat"
        return None

    def digest(self, req, out) -> str:
        rep = out[2]
        return _sha([_matrix(rep.mu_B), _terms(rep.div.divergence), _terms(rep.omega_hat)])

    def fingerprint(self) -> str:
        return _sha([[_matrix(m), [_terms(t) for t in images]] for m, images in self.requests])


_FAMILY = {
    "comm": "commutative",
    "qm1": "quantum-plane",
    "qm1ii": "quantum-plane",
    "qneq1": "quantum-plane",
    "jordan": "jordan",
}


class CatalogCli(Workload):
    """``orenaka catalog`` in-process for every dim-2 case, with seeded
    parameters and stdout captured."""

    name = "catalog-cli"
    DRAWS = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        for _ in range(self.DRAWS):
            for case in catalog.CASES:
                argv = ["catalog", "--family", _FAMILY[case.split("-")[0]], "--case", case]
                for k, v in catalog.random_case_params(case, self.rng).items():
                    argv += ["--param", f"{k}={v}"]
                self.requests.append(argv)

    def run(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req)
        return code, out.getvalue(), err.getvalue()

    def check(self, req, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        # the command compares itself with the closed-form oracle and
        # exits non-zero on disagreement; the report must say so too
        if "  matches_generic: True\n" not in stdout:
            return "report lacks the oracle agreement line"
        return None

    def digest(self, req, out) -> str:
        return hashlib.sha256(out[1].encode()).hexdigest()[:16]

    def fingerprint(self) -> str:
        return _sha(self.requests)


WORKLOADS = {w.name: w for w in (Certify, Swell, OreDense, CatalogCli)}
