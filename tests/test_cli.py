import json
from pathlib import Path

import pytest

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


def test_exit_code_reader_escape_is_internal(tmp_path, capsys, monkeypatch):
    # a tensor the sandwich reader rejects inside the engine is an
    # invariant violation (exit 4), not malformed input (exit 1)
    import orenaka.ore

    monkeypatch.setattr(orenaka.ore, "expand_through", lambda *args: None)
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
