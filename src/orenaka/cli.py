"""Command-line interface.

Subcommands: certify | nakayama | ore | superpotential | catalog.
Inputs are a single JSON document (see README for the schema); all
rationals travel as exact strings, output is byte-stable for identical
input, and exit codes distinguish bad input (1), failed certification
(2), inadmissible sigma/delta (3) and violated engine invariants (4).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .catalog import (
    CASES,
    CASE_ALIASES,
    case_param_names,
    cy_classifier_dim2,
    dim2_instance_oracle,
    enumerate_solution,
    make_polynomial,
    polynomial_divergence_oracle,
)
from .errors import (
    CasePreconditionError,
    CertificationError,
    EngineInvariantError,
    NoSolutionError,
    NotAdmissibleError,
    NotASRegularError,
    NotInvertibleError,
    NonUniqueTwistError,
)
from .linalg import Matrix, Tensor, scalar, scalar_str
from .morphisms import (
    check_automorphism,
    extend_derivation,
    identity_automorphism,
    nakayama_of_A,
    twist_solve,
)
from .ore import derivation_quotient_relations, nakayama_of_B
from .quadratic import QuadraticAlgebra


class InputError(ValueError):
    """Malformed problem document."""


@dataclass
class ProblemSpec:
    generators: list
    relations: list
    automorphism: Matrix | None
    derivation: list | None
    options: dict


def _parse_terms(terms, names, degree, what) -> Tensor:
    idx = {n: i for i, n in enumerate(names)}
    parsed = []
    if not isinstance(terms, list):
        raise InputError(f"{what}: expected a list of terms")
    for term in terms:
        if not isinstance(term, dict) or set(term) - {"coeff", "word"}:
            raise InputError(f"{what}: terms need 'coeff' and 'word'")
        word = term.get("word")
        if not isinstance(word, list) or len(word) != degree:
            raise InputError(f"{what}: words must have length {degree}")
        try:
            letters = tuple(idx[w] for w in word)
        except KeyError as e:
            raise InputError(f"{what}: unknown generator {e.args[0]!r}") from None
        try:
            c = scalar(term.get("coeff", "1"))
        except (TypeError, ValueError) as e:
            raise InputError(f"{what}: bad coefficient: {e}") from None
        parsed.append((c, Tensor.word(len(names), letters)))
    return Tensor.combine(len(names), degree, parsed)


def parse_problem(data) -> ProblemSpec:
    if not isinstance(data, dict):
        raise InputError("top-level document must be an object")
    names = data.get("generators")
    if not isinstance(names, list) or not names or not all(isinstance(x, str) for x in names):
        raise InputError("'generators' must be a nonempty list of names")
    if len(set(names)) != len(names):
        raise InputError("generator names must be distinct")
    rels = [
        _parse_terms(r, names, 2, f"relation {i}")
        for i, r in enumerate(data.get("relations", []))
    ]
    automorphism = None
    if "automorphism" in data:
        rows = data["automorphism"]
        if (
            not isinstance(rows, list)
            or len(rows) != len(names)
            or any(not isinstance(r, list) or len(r) != len(names) for r in rows)
        ):
            raise InputError("'automorphism' must be a square matrix over the generators")
        try:
            automorphism = Matrix([[scalar(e) for e in r] for r in rows])
        except (TypeError, ValueError) as e:
            raise InputError(f"bad matrix entry: {e}") from None
    derivation = None
    if "derivation" in data:
        block = data["derivation"]
        if not isinstance(block, dict) or set(block) - set(names):
            raise InputError("'derivation' must map generator names to term lists")
        derivation = [
            _parse_terms(block.get(n, []), names, 2, f"derivation of {n}")
            for n in names
        ]
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise InputError("'options' must be an object")
    return ProblemSpec(list(names), rels, automorphism, derivation, options)


# ---------------------------------------------------------------------------
# report rendering


def _terms_out(t: Tensor, names) -> list:
    return [
        {"coeff": scalar_str(c), "word": [names[k] for k in w]}
        for w, c in t.terms()
    ]


def _matrix_out(m: Matrix) -> list:
    return [[scalar_str(e) for e in row] for row in m.rows]


def _certificate_out(alg: QuadraticAlgebra, n: int) -> dict:
    cert = alg.certificate
    return {
        "verified_to": n,
        "as_regular": cert.as_regular,
        "global_dimension": cert.d,
        "dims_A": [alg.dim_A(m) for m in range(n + 1)],
        "dims_W": [alg.koszul_space(i).dim for i in range(cert.d + 2)]
        if cert.d is not None
        else [],
        "euler_ok": cert.euler_ok,
    }


def _base_report(command, spec: ProblemSpec, alg, check_level, bound) -> dict:
    names = spec.generators
    return {
        "command": command,
        "check_level": check_level,
        "koszul_bound": bound,
        "generators": list(names),
        "relations": [
            _terms_out(Tensor.from_vec(b, alg.nv, 2), names) for b in alg.R.basis()
        ],
        "certificate": _certificate_out(alg, bound),
        "omega": _terms_out(alg.certificate.omega, names),
    }


def render_report(report: dict) -> str:
    """Plain-text rendering with a fixed key order."""
    lines = []

    def emit(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}: " + " + ".join(
                f"{t['coeff']}*{'.'.join(t['word'])}" for t in value
            ))
        elif isinstance(value, list) and value and isinstance(value[0], list):
            if value and value[0] and isinstance(value[0][0], dict):
                lines.append(f"{pad}{key}:")
                for i, sub in enumerate(value):
                    emit(f"[{i}]", sub, indent + 1)
            else:
                lines.append(f"{pad}{key}: " + "; ".join(
                    "[" + ", ".join(str(e) for e in row) + "]" for row in value
                ))
        else:
            lines.append(f"{pad}{key}: {value}")

    for k, v in report.items():
        emit(k, v)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _certify_to(alg: QuadraticAlgebra, bound) -> int:
    """Certify alg to the requested bound and return the bound to report,
    max(bound, d + 3)."""
    d, _ = alg.certify_as_regular()
    if bound:
        alg.certify_koszul(int(bound))
    return max(int(bound or 0), d + 3)


def _certify_algebra(spec: ProblemSpec, bound) -> tuple[QuadraticAlgebra, int]:
    alg = QuadraticAlgebra(spec.generators, spec.relations)
    return alg, _certify_to(alg, bound or spec.options.get("koszul_bound"))


def _sigma_delta(spec: ProblemSpec, alg):
    sigma = (
        check_automorphism(spec.automorphism, alg)
        if spec.automorphism is not None
        else identity_automorphism(alg)
    )
    images = (
        spec.derivation
        if spec.derivation is not None
        else [Tensor(alg.nv, 2) for _ in range(alg.nv)]
    )
    delta = extend_derivation(images, sigma, alg)
    return sigma, delta


def cmd_certify(spec: ProblemSpec, bound, check_level) -> dict:
    alg, n = _certify_algebra(spec, bound)
    return _base_report("certify", spec, alg, check_level, n)


def cmd_nakayama(spec: ProblemSpec, bound, check_level) -> dict:
    alg, n = _certify_algebra(spec, bound)
    report = _base_report("nakayama", spec, alg, check_level, n)
    report["mu_A"] = _matrix_out(nakayama_of_A(alg).matrix)
    return report


def _ore_body(spec, alg, sigma, delta, check_level) -> dict:
    rep = nakayama_of_B(sigma, delta)
    if check_level == "paranoid":
        rep.sequence_pair.verify()
        if twist_solve(rep.omega_hat) != rep.mu_B:
            raise EngineInvariantError("omega-hat twist solve disagrees with mu_B")
    names = spec.generators + ["z"]
    return {
        "hdet": scalar_str(rep.hdet),
        "mu_A": _matrix_out(nakayama_of_A(alg).matrix),
        "delta_r": _terms_out(rep.div.delta_r, spec.generators),
        "delta_l": _terms_out(rep.div.delta_l, spec.generators),
        "divergence": _terms_out(rep.div.divergence, spec.generators),
        "mu_B": _matrix_out(rep.mu_B),
        "omega_hat": _terms_out(rep.omega_hat, names),
        "r_hat_dim": rep.relations_hat.dim,
        "calabi_yau": rep.calabi_yau,
    }


def cmd_ore(spec: ProblemSpec, bound, check_level) -> dict:
    alg, n = _certify_algebra(spec, bound)
    sigma, delta = _sigma_delta(spec, alg)
    report = _base_report("ore", spec, alg, check_level, n)
    report.update(_ore_body(spec, alg, sigma, delta, check_level))
    return report


def cmd_superpotential(spec: ProblemSpec, bound, check_level) -> dict:
    alg, n = _certify_algebra(spec, bound)
    sigma, delta = _sigma_delta(spec, alg)
    rep = nakayama_of_B(sigma, delta)
    report = _base_report("superpotential", spec, alg, check_level, n)
    names = spec.generators + ["z"]
    d = alg.certificate.d
    report["omega_hat"] = _terms_out(rep.omega_hat, names)
    report["mu_B"] = _matrix_out(rep.mu_B)
    report["checks"] = {
        "omega_recovers_R": derivation_quotient_relations(alg.certificate.omega, d - 2)
        == alg.R,
        "omega_hat_recovers_R_hat": derivation_quotient_relations(rep.omega_hat, d - 1)
        == rep.relations_hat,
        "twist_matrix_equals_mu_B": twist_solve(rep.omega_hat) == rep.mu_B,
    }
    if not all(report["checks"].values()):
        raise EngineInvariantError("superpotential checks failed")
    return report


def cmd_catalog(family, case, params, bound, check_level, input_path=None) -> dict:
    if family == "poly":
        return _catalog_poly(case, params, bound, check_level, input_path)
    case = CASE_ALIASES.get(case, case)
    if case not in CASES:
        raise InputError(f"unknown case {case!r}; known: {', '.join(CASES)}")
    fam_prefix = case.split("-")[0]
    expect = {
        "commutative": ("comm",),
        "quantum-plane": ("qm1", "qm1ii", "qneq1"),
        "jordan": ("jordan",),
    }.get(family)
    if expect is None:
        raise InputError(f"unknown family {family!r}")
    if fam_prefix not in expect:
        raise InputError(f"case {case!r} does not belong to family {family!r}")
    _check_params(params, case_param_names(case), case)
    inst = enumerate_solution(case, params)
    spec = ProblemSpec(list(inst.algebra.names), [], None, None, {})
    n = _certify_to(inst.algebra, bound)
    report = _base_report("catalog", spec, inst.algebra, check_level, n)
    report["family"] = family
    report["case"] = case
    report["derived_by_symmetry"] = inst.derived_by_symmetry
    report["m"] = _matrix_out(inst.m)
    report["gamma"] = [[scalar_str(x) for x in row] for row in inst.gamma]
    report.update(_ore_body(spec, inst.algebra, inst.sigma, inst.delta, check_level))
    oracle = dim2_instance_oracle(inst)
    rep_mu = [[scalar(e) for e in row] for row in report["mu_B"]]
    verdict = cy_classifier_dim2(inst.algebra, inst.sigma, inst.delta)
    report["oracle"] = {
        "mu_B": _matrix_out(oracle),
        "matches_generic": Matrix(rep_mu) == oracle,
        "cy_classifier": verdict.is_cy,
        "cy_reason": verdict.reason,
        "cy_matches_generic": verdict.is_cy == report["calabi_yau"],
    }
    if not report["oracle"]["matches_generic"] or not report["oracle"]["cy_matches_generic"]:
        raise EngineInvariantError("closed-form oracle disagrees with the engine")
    return report


def _check_params(params, accepted, case) -> None:
    for name in params:
        if name not in accepted:
            raise InputError(
                f"unknown parameter {name!r} for case {case!r}; accepted: {', '.join(accepted)}"
            )


def _catalog_poly(case, params, bound, check_level, input_path) -> dict:
    """Polynomial family: sigma = id, derivation from the input document,
    oracle = the formal divergence sum of partial derivatives."""
    if case != "divergence":
        raise InputError("family 'poly' has the single case 'divergence'")
    _check_params(params, ("n",), case)
    n = params.get("n")
    if n is None or n != int(n) or int(n) < 1:
        raise InputError("family 'poly' needs --param n=<positive integer>")
    alg = make_polynomial(int(n))
    data = _load_input(input_path)
    data.setdefault("generators", list(alg.names))
    if list(data["generators"]) != list(alg.names):
        raise InputError(f"generators must be {list(alg.names)} for n={int(n)}")
    spec = parse_problem({k: v for k, v in data.items() if k != "relations"})
    if spec.automorphism is not None and spec.automorphism != Matrix.identity(alg.nv):
        raise InputError("the polynomial divergence case fixes sigma = id")
    sigma = identity_automorphism(alg)
    images = spec.derivation or [Tensor(alg.nv, 2) for _ in range(alg.nv)]
    delta = extend_derivation(images, sigma, alg)
    n = _certify_to(alg, bound)
    report = _base_report("catalog", spec, alg, check_level, n)
    report["family"] = "poly"
    report["case"] = case
    report.update(_ore_body(spec, alg, sigma, delta, check_level))
    oracle = polynomial_divergence_oracle(delta)
    generic = [scalar(e) for e in report["mu_B"][alg.nv][: alg.nv]]
    matches = all(
        oracle.entries.get((j,), 0) == generic[j] for j in range(alg.nv)
    ) and Matrix([[scalar(e) for e in row[: alg.nv]] for row in report["mu_B"][: alg.nv]]) == Matrix.identity(alg.nv)
    report["oracle"] = {
        "divergence": _terms_out(oracle, list(alg.names)),
        "matches_generic": matches,
    }
    if not matches:
        raise EngineInvariantError("divergence oracle disagrees with the engine")
    return report


# ---------------------------------------------------------------------------
# entry point


def _load_input(path) -> dict:
    if path is None:
        raise InputError("--input FILE is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}") from None


def _parse_param(kv: str):
    if "=" not in kv:
        raise InputError(f"--param expects name=value, got {kv!r}")
    k, v = kv.split("=", 1)
    try:
        return k.strip(), scalar(v)
    except (TypeError, ValueError) as e:
        raise InputError(f"bad parameter {kv!r}: {e}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orenaka",
        description="Exact Nakayama automorphisms and twisted superpotentials "
        "of graded Ore extensions of Koszul AS-regular algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("certify", "nakayama", "ore", "superpotential", "catalog"):
        sp = sub.add_parser(name)
        sp.add_argument("--input", help="problem document (JSON)")
        sp.add_argument("--koszul-bound", type=int, default=None)
        sp.add_argument("--format", choices=("report", "json"), default="report")
        sp.add_argument(
            "--check-level", choices=("fast", "paranoid"), default="fast"
        )
        if name == "catalog":
            sp.add_argument("--family", required=True)
            sp.add_argument("--case", required=True)
            sp.add_argument(
                "--param",
                action="append",
                default=[],
                metavar="NAME=VALUE",
                help="free parameter (repeatable), e.g. q=2 or g11=1/3",
            )
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "catalog":
            params = dict(_parse_param(kv) for kv in args.param)
            report = cmd_catalog(
                args.family,
                args.case,
                params,
                args.koszul_bound,
                args.check_level,
                input_path=args.input,
            )
        else:
            spec = parse_problem(_load_input(args.input))
            fn = {
                "certify": cmd_certify,
                "nakayama": cmd_nakayama,
                "ore": cmd_ore,
                "superpotential": cmd_superpotential,
            }[args.command]
            report = fn(spec, args.koszul_bound, args.check_level)
    except (InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CertificationError, NotASRegularError, NonUniqueTwistError) as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return 2
    except (NotAdmissibleError, NotInvertibleError, CasePreconditionError) as e:
        print(f"inadmissible input: {e}", file=sys.stderr)
        return 3
    except (EngineInvariantError, NoSolutionError) as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 4
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(render_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
