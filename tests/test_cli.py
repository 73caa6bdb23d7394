import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orenaka
from orenaka import cli, scalar
from orenaka.cli import main, parse_problem, render_report

GOLDEN = Path(__file__).resolve().parent / "golden"


COMM = {
    "generators": ["x1", "x2"],
    "relations": [
        [
            {"coeff": "1", "word": ["x1", "x2"]},
            {"coeff": "-1", "word": ["x2", "x1"]},
        ]
    ],
    "derivation": {"x1": [{"coeff": "1", "word": ["x1", "x1"]}], "x2": []},
}

JORDAN_CY = {
    "generators": ["x1", "x2"],
    "relations": [
        [
            {"coeff": "1", "word": ["x1", "x2"]},
            {"coeff": "-1", "word": ["x2", "x1"]},
            {"coeff": "-1", "word": ["x2", "x2"]},
        ]
    ],
    "automorphism": [["1", "2"], ["0", "1"]],
    "derivation": {
        "x1": [
            {"coeff": "1/2", "word": ["x1", "x1"]},
            {"coeff": "4", "word": ["x2", "x1"]},
            {"coeff": "5", "word": ["x2", "x2"]},
        ],
        "x2": [
            {"coeff": "2", "word": ["x1", "x1"]},
            {"coeff": "3", "word": ["x2", "x1"]},
            {"coeff": "1", "word": ["x2", "x2"]},
        ],
    },
}


def write(tmp_path, doc, name="prob.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ore_command_spec_example(tmp_path, capsys):
    path = write(tmp_path, COMM)
    code, out, err = run(capsys, "ore", "--input", path, "--format", "json",
                         "--check-level", "paranoid")
    assert code == 0, err
    rep = json.loads(out)
    assert rep["mu_B"] == [["1", "0", "0"], ["0", "1", "0"], ["2", "0", "1"]]
    assert rep["divergence"] == [{"coeff": "2", "word": ["x1"]}]
    assert rep["calabi_yau"] is False


def test_certify_command_embeds_bound(tmp_path, capsys):
    path = write(tmp_path, {"generators": ["x1", "x2"], "relations": COMM["relations"]})
    code, out, _ = run(capsys, "certify", "--input", path, "--koszul-bound", "8",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["koszul_bound"] == 8
    assert rep["certificate"]["as_regular"] is True
    assert rep["certificate"]["global_dimension"] == 2


def test_certify_jordan_to_8(tmp_path, capsys):
    doc = {"generators": ["x1", "x2"], "relations": JORDAN_CY["relations"]}
    code, out, _ = run(capsys, "certify", "--input", write(tmp_path, doc),
                       "--koszul-bound", "8", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["certificate"]["global_dimension"] == 2
    assert rep["certificate"]["verified_to"] == 8


POLY4_NAMES = ["x1", "x2", "x3", "x4"]
POLY4 = {
    "generators": POLY4_NAMES,
    "relations": [
        [{"coeff": "1", "word": [a, b]}, {"coeff": "-1", "word": [b, a]}]
        for i, a in enumerate(POLY4_NAMES) for b in POLY4_NAMES[i + 1:]
    ],
}


def test_certify_pbw_report_builds_no_piece_above_a3(tmp_path, capsys, monkeypatch):
    # poly(4) is PBW: the report reads dims_A off the certificate's
    # counts, so no normal-form piece above A_3 is built
    built = []
    real = orenaka.quadratic.QuadraticAlgebra._build_piece
    monkeypatch.setattr(
        orenaka.quadratic.QuadraticAlgebra, "_build_piece",
        lambda self, m: built.append(m) or real(self, m),
    )
    code, out, err = run(capsys, "certify", "--input", write(tmp_path, POLY4),
                         "--format", "json")
    assert code == 0, err
    cert = json.loads(out)["certificate"]
    assert cert["verified_to"] == 7
    assert cert["dims_A"] == [1, 4, 10, 20, 35, 56, 84, 120]
    assert built and max(built) <= 3


def test_certify_report_builds_no_koszul_space_above_d(tmp_path, capsys, monkeypatch):
    # certification proves W_{d+1} = 0, so the report prints that 0
    # without building W_{d+1}
    asked = []
    real = orenaka.quadratic.QuadraticAlgebra.koszul_space
    monkeypatch.setattr(
        orenaka.quadratic.QuadraticAlgebra, "koszul_space",
        lambda self, i: asked.append(i) or real(self, i),
    )
    code, out, err = run(capsys, "certify", "--input", write(tmp_path, POLY4),
                         "--format", "json")
    assert code == 0, err
    cert = json.loads(out)["certificate"]
    assert cert["global_dimension"] == 4
    assert cert["dims_W"] == [1, 4, 6, 4, 1, 0]
    assert asked and max(asked) <= 4


def test_nakayama_command(tmp_path, capsys):
    doc = {
        "generators": ["x1", "x2"],
        "relations": [
            [
                {"coeff": "1", "word": ["x1", "x2"]},
                {"coeff": "-2", "word": ["x2", "x1"]},
            ]
        ],
    }
    code, out, _ = run(capsys, "nakayama", "--input", write(tmp_path, doc),
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["mu_A"] == [["2", "0"], ["0", "1/2"]]


def test_superpotential_command_checks(tmp_path, capsys):
    code, out, _ = run(
        capsys, "superpotential", "--input", write(tmp_path, JORDAN_CY),
        "--format", "json", "--check-level", "paranoid",
    )
    assert code == 0
    rep = json.loads(out)
    assert all(rep["checks"].values())
    assert rep["mu_B"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_paranoid_level_runs_the_same_checks_for_ore_and_superpotential(capsys, monkeypatch):
    # both commands reach the paranoid checks through one helper: the
    # towers and the two omega-hat forms (SequencePair.verify), then mu_B
    # against twist_solve; superpotential reports that comparison at
    # every level and solves the twist once.  Stdout differs from the
    # fast level only in its check_level line.
    from orenaka import ore

    calls = []
    verify, twist = ore.SequencePair.verify, cli.twist_solve
    monkeypatch.setattr(ore.SequencePair, "verify", lambda sp: calls.append("verify") or verify(sp))
    monkeypatch.setattr(cli, "twist_solve", lambda t: calls.append("twist_solve") or twist(t))
    path = str(GOLDEN / "poly3.json")
    want = {
        ("ore", "fast"): [],
        ("ore", "paranoid"): ["verify", "twist_solve"],
        ("superpotential", "fast"): ["twist_solve"],
        ("superpotential", "paranoid"): ["verify", "twist_solve"],
    }
    outs = {}
    for (command, level), expected in want.items():
        calls.clear()
        code, out, err = run(capsys, command, "--input", path, "--check-level", level)
        assert code == 0, err
        assert calls == expected, (command, level)
        outs[command, level] = out
    for command in ("ore", "superpotential"):
        fast = outs[command, "fast"]
        assert "check_level: fast\n" in fast
        assert outs[command, "paranoid"] == fast.replace("check_level: fast\n", "check_level: paranoid\n")


def test_twist_disagreeing_with_mu_b_exits_4(capsys, monkeypatch):
    # a twist solve that is not mu_B fails the superpotential at both
    # levels; the paranoid level stops at its own comparison
    from orenaka import Matrix

    monkeypatch.setattr(cli, "twist_solve", lambda t: Matrix.zero(4, 4))
    path = str(GOLDEN / "poly3.json")
    for level, message in [("paranoid", "omega-hat twist solve disagrees with mu_B"),
                           ("fast", "superpotential checks failed")]:
        code, out, err = run(capsys, "superpotential", "--input", path, "--check-level", level)
        assert (code, out) == (4, ""), level
        assert message in err, level


def test_catalog_command_cy_example(capsys):
    code, out, _ = run(
        capsys, "catalog", "--family", "quantum-plane", "--case", "qneq-1-a",
        "--param", "q=2", "--param", "g11=1", "--param", "g23=1",
        "--param", "g13=0", "--param", "g21=0", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["calabi_yau"] is True
    assert rep["oracle"]["matches_generic"] is True
    assert rep["oracle"]["cy_matches_generic"] is True


def test_catalog_poly_divergence(tmp_path, capsys):
    code, out, _ = run(
        capsys, "catalog", "--family", "poly", "--case", "divergence",
        "--param", "n=2", "--input", write(tmp_path, COMM), "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["oracle"]["divergence"] == [{"coeff": "2", "word": ["x1"]}]
    assert rep["oracle"]["matches_generic"] is True


def test_ore_trimmed_defaults(tmp_path, capsys):
    # no sigma, no derivation: identity automorphism and zero derivation
    doc = {"generators": ["x1", "x2"], "relations": COMM["relations"]}
    code, out, _ = run(capsys, "ore", "--input", write(tmp_path, doc),
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["divergence"] == []
    assert rep["calabi_yau"] is True


def test_exit_code_malformed(tmp_path, capsys):
    bad = {"generators": ["x1"], "relations": [[{"coeff": "1", "word": ["x1"]}]]}
    code, _, err = run(capsys, "certify", "--input", write(tmp_path, bad))
    assert code == 1 and "length 2" in err


def test_exit_code_bad_rational(tmp_path, capsys):
    bad = {
        "generators": ["x1", "x2"],
        "relations": [[{"coeff": "one", "word": ["x1", "x2"]}]],
    }
    code, _, _ = run(capsys, "certify", "--input", write(tmp_path, bad))
    assert code == 1


def test_exit_code_not_as_regular(tmp_path, capsys):
    doc = {
        "generators": ["x1", "x2"],
        "relations": [[{"coeff": "1", "word": ["x1", "x1"]}]],
    }
    code, _, err = run(capsys, "certify", "--input", write(tmp_path, doc))
    assert code == 2


def test_exit_code_not_gorenstein(capsys):
    # k<x, y>/(xy): dim W_i = 1, 2, 1, 0 is symmetric, but omega = x y has
    # a first-letter flattening of rank 1, so A^! is not Frobenius; both
    # commands stop at certification
    path = str(GOLDEN / "not_gorenstein.json")
    for command in ("certify", "nakayama"):
        code, out, err = run(capsys, command, "--input", path)
        assert (code, out) == (2, ""), command
        assert "omega's first-letter flattening has rank 1 < 2" in err, command


def test_exit_code_inadmissible(tmp_path, capsys):
    doc = {
        "generators": ["x1", "x2"],
        "relations": [
            [
                {"coeff": "1", "word": ["x1", "x2"]},
                {"coeff": "-2", "word": ["x2", "x1"]},
            ]
        ],
        "automorphism": [["0", "1"], ["1", "0"]],
    }
    code, _, _ = run(capsys, "ore", "--input", write(tmp_path, doc))
    assert code == 3


def test_exit_code_inadmissible_derivation(capsys):
    # x1 -> x1 x1 on the q = 2 plane: delta(x1 x2 - 2 x2 x1) = x1 x1 x2 -
    # 2 x2 x1 x1 is nonzero in A_3
    code, out, err = run(capsys, "ore", "--input", str(GOLDEN / "bad_delta.json"))
    assert (code, out) == (3, "")
    assert err == (
        "inadmissible input: delta(R) leaves R(x)V + V(x)R on relation "
        "Tensor(1*(0, 1) + -2*(1, 0))\n"
    )


def test_exit_code_reader_escape_is_internal(tmp_path, capsys, monkeypatch):
    # a coefficient the R-hat reader rejects inside the engine is an
    # invariant violation (exit 4), not malformed input (exit 1)
    import orenaka.ore

    monkeypatch.setattr(orenaka.ore, "_residual", lambda *args: ({0: 1}, 1))
    code, _, err = run(capsys, "ore", "--input", write(tmp_path, COMM))
    assert code == 4 and "internal invariant violation" in err


def test_catalog_report_independent_of_call_history(capsys):
    # the catalog shares one certified algebra per family; a bound asked
    # for by an earlier command must not leak into a later report
    argv = ["catalog", "--family", "quantum-plane", "--case", "qneq1-d",
            "--param", "q=2", "--param", "m22=3", "--param", "g12=1",
            "--param", "g22=1"]
    code, first, _ = run(capsys, *argv, "--koszul-bound", "7")
    assert code == 0
    assert "koszul_bound: 7\n" in first and "  verified_to: 7\n" in first
    code, second, _ = run(capsys, *argv)
    assert code == 0
    assert "koszul_bound: 5\n" in second and "  verified_to: 5\n" in second
    assert "  dims_A: [1, 2, 3, 4, 5, 6]\n" in second


def test_shared_parser_keeps_no_params_between_calls(capsys):
    # main parses with one parser per process; the repeatable --param
    # must start empty on every call, so each command prints what it
    # prints alone (its golden output).  The second command leaves m12
    # and g23 free, so a leaked value from the first would change it.
    commands = {c["name"]: c["argv"] for c in json.loads((GOLDEN / "commands.json").read_text())}
    for name in ("catalog-jordan-b", "readme-catalog-jordan-b", "catalog-qm1-a"):
        code, out, _ = run(capsys, *commands[name])
        assert code == 0
        assert out == (GOLDEN / f"{name}.out").read_text(), name
    assert cli._parser() is cli._parser()


def test_exit_code_bad_case(capsys):
    code, _, _ = run(capsys, "catalog", "--family", "quantum-plane",
                     "--case", "qm1ii-b", "--param", "m12=2", "--param", "m21=1/2")
    assert code == 3  # precondition m12 m21 != 1 violated


def test_exit_code_unknown_param(capsys):
    # a parameter the case does not have fails instead of being ignored
    code, out, err = run(capsys, "catalog", "--family", "quantum-plane",
                         "--case", "qm1-a", "--param", "bogus=3")
    assert (code, out) == (1, "")
    assert "'bogus'" in err and "accepted: g11, g13, g21, g23" in err
    # qm1-a fixes M = -1, so m11 is no parameter of it either
    code, _, err = run(capsys, "catalog", "--family", "quantum-plane", "--case", "qm1-a",
                       "--param", "g11=-1", "--param", "m11=2")
    assert code == 1 and "'m11'" in err
    code, _, err = run(capsys, "catalog", "--family", "poly", "--case", "divergence",
                       "--param", "n=2", "--param", "q=2", "--input", str(GOLDEN / "comm.json"))
    assert code == 1 and "'q'" in err and "accepted: n" in err


def test_poly_n_above_the_bound_exits_1_at_once(monkeypatch, capsys):
    # poly(8) would run for a minute: it is refused before any algebra is built
    built = []
    monkeypatch.setattr(cli, "make_polynomial", lambda n: built.append(n))
    for n in ("8", "0"):
        start = time.perf_counter()
        code, out, err = run(capsys, "catalog", "--family", "poly", "--case", "divergence",
                             "--param", f"n={n}", "--input", str(GOLDEN / "comm.json"))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "") and "n=<integer in 1..7>" in err
    assert built == []


def test_python_dash_m_entry_point():
    # ``python -m orenaka`` runs cli.main in a fresh interpreter
    src = str(Path(orenaka.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "orenaka", "catalog", "--family", "jordan", "--case", "jordan-b",
            "--param", "m11=2", "--param", "g22=1"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / "readme-catalog-jordan-b.out").read_text()
    done = subprocess.run(argv + ["--param", "bogus=3"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1 and "'bogus'" in done.stderr


def test_byte_stability(tmp_path, capsys):
    path = write(tmp_path, JORDAN_CY)
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "ore", "--input", path, "--format", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    code, rpt1, _ = run(capsys, "ore", "--input", path)
    code, rpt2, _ = run(capsys, "ore", "--input", path)
    assert rpt1 == rpt2


def test_json_round_trip_lossless(tmp_path, capsys):
    # every scalar string parses back to the exact value and re-renders
    # to the same bytes
    path = write(tmp_path, JORDAN_CY)
    _, out, _ = run(capsys, "ore", "--input", path, "--format", "json")
    rep = json.loads(out)

    def walk(node):
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        if isinstance(node, str):
            try:
                frac = scalar(node)
            except (ValueError, TypeError):
                return node
            from orenaka import scalar_str

            assert scalar_str(frac) == node or "/" not in node
            return node
        return node

    rebuilt = walk(rep)
    assert json.dumps(rebuilt, indent=2) == json.dumps(rep, indent=2) == out.strip()


def test_ore_letter_gets_a_fresh_name(tmp_path, capsys):
    # Sklyanin(1,2,3) on x, y, z: the Ore letter is printed as z1, and
    # omega-hat's words parse back to the tensor the library computes
    rename = {"x1": "x", "x2": "y", "x3": "z"}
    text = (GOLDEN / "sklyanin123.json").read_text()
    for old, new in rename.items():
        text = text.replace(f'"{old}"', f'"{new}"')
    spec = parse_problem(json.loads(text))
    path = write(tmp_path, json.loads(text))
    alg, _ = cli._certify_algebra(spec, None)
    want = orenaka.nakayama_of_B(*cli._sigma_delta(spec, alg)).omega_hat
    names = ["x", "y", "z", "z1"]
    for command in ("ore", "superpotential"):
        code, out, err = run(capsys, command, "--input", path, "--format", "json")
        assert code == 0, err
        terms = json.loads(out)["omega_hat"]
        assert {w for t in terms for w in t["word"]} == set(names), command
        assert cli._parse_terms(terms, names, want.degree, "omega_hat") == want, command
    assert cli._ore_names(["x1", "x2"]) == ["x1", "x2", "z"]
    assert cli._ore_names(["z", "z2", "z1"]) == ["z", "z2", "z1", "z3"]


def test_parse_problem_validation():
    with pytest.raises(Exception):
        parse_problem({"generators": []})
    with pytest.raises(Exception):
        parse_problem({"generators": ["a", "a"]})
    spec = parse_problem(
        {"generators": ["x1", "x2"], "relations": [], "options": {"koszul_bound": 6}}
    )
    assert spec.options["koszul_bound"] == 6


def test_render_report_deterministic():
    rep = {"a": 1, "b": {"c": [1, 2]}, "terms": [{"coeff": "1", "word": ["x1"]}]}
    assert render_report(rep) == render_report(dict(rep))
