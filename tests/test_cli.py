"""CLI: grammar, golden commands, JSON schema, exit codes, determinism."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainops.cli import ElementParser, main
from chainops.elements import Element
from chainops.errors import InvalidInput
from chainops.maclane import cyc_eg, sym_eg
from chainops.minimal import minimal_complex
from chainops.rings import GF, ZZ
from chainops.surjections import surjection_complex


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "chainops.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def test_parse_surjection_expression():
    S = surjection_complex("bf", 3)
    x = ElementParser(S, ZZ).parse("(1,2,1,3) - 2*(2,1,2,3)")
    assert dict(x.terms) == {(1, 2, 1, 3): 1, (2, 1, 2, 3): -2}


def test_parse_validates_each_term_once(monkeypatch):
    from chainops.surjections import SurjectionComplex

    calls = []
    validate = SurjectionComplex.validate
    monkeypatch.setattr(
        SurjectionComplex, "validate", lambda self, gen: calls.append(gen) or validate(self, gen)
    )
    ElementParser(surjection_complex("bf", 3), ZZ).parse("(1,2,1,3) - 2*(2,1,2,3)")
    assert calls == [(1, 2, 1, 3), (2, 1, 2, 3)]


def test_parse_degenerate_warns_and_drops(capsys):
    S = surjection_complex("bf", 2)
    x = ElementParser(S, ZZ).parse("(1,1,2)")
    assert x.is_zero()
    assert "degenerate" in capsys.readouterr().err


def test_parse_eg_tuple():
    E = sym_eg(3)
    x = ElementParser(E, ZZ).parse("(1 2 3; 2 1 3)")
    gen = next(iter(x.terms))
    assert gen == ((1, 2, 3), (2, 1, 3))


def test_parse_cyclic_and_minimal():
    EC = cyc_eg(5)
    x = ElementParser(EC, ZZ).parse("(0; 2; 3)")
    assert next(iter(x.terms)) == (0, 2, 3)
    M = minimal_complex(5)
    y = ElementParser(M, ZZ).parse("3*(2,4)")
    assert dict(y.terms) == {(2, 4): 3}


def test_parse_syntax_error_position():
    S = surjection_complex("bf", 2)
    with pytest.raises(InvalidInput) as err:
        ElementParser(S, ZZ).parse("(1,2 + (2,1)")
    assert "column" in str(err.value)


def test_parse_serialize_round_trip():
    import random

    rng = random.Random(17)
    S = surjection_complex("bf", 3)
    gens = list(S.basis(2))
    for _ in range(20):
        terms = {g: rng.randint(-5, 5) for g in rng.sample(gens, 4)}
        from chainops.elements import Element

        x = Element(S, ZZ, 2, dict(terms))
        text = repr(x)
        back = ElementParser(S, ZZ).parse(text)
        assert back == x


# the complexes of the parser round trip, each with its bases in degrees 0-3
ROUND_TRIP = [
    (cplx, [list(cplx.basis(k)) for k in range(4)])
    for cplx in [surjection_complex(f, n) for f in ("bf", "aj", "ms") for n in (2, 3, 4)]
    + [sym_eg(2), sym_eg(3), minimal_complex(3)]
]


@st.composite
def printed_elements(draw):
    """A random element of degree <= 3 over ZZ or GF(3), zero included."""
    cplx, bases = draw(st.sampled_from(ROUND_TRIP))
    k = draw(st.integers(0, 3))
    ring = draw(st.sampled_from((ZZ, GF(3))))
    gens = draw(st.lists(st.sampled_from(bases[k]), max_size=4)) if bases[k] else []
    return Element(cplx, ring, k, [(draw(st.integers(-5, 5)), g) for g in gens])


@settings(max_examples=150, deadline=None)
@given(printed_elements())
def test_parse_inverts_repr(x):
    """Every element's repr parses back to it, in the surjection complexes,
    N(ESigma_2), N(ESigma_3) and the minimal model (which prints T^i.yk)."""
    assert ElementParser(x.complex, x.ring).parse(repr(x)) == x


def test_cli_golden_boundary_13_1():
    out = run_cli(
        "boundary", "--flavor", "bf", "--n", "5", "(2,1,2,3,4,2,3,1,5,4,1,2)"
    )
    assert out.returncode == 0
    # ten signed terms from the golden caesura table
    assert out.stdout.count("(") == 10
    assert "+ (2,1,2,3,2,3,1,5,4,1,2)" in out.stdout


def test_cli_constant():
    out = run_cli("constant", "--m", "2", "--p", "5")
    assert out.returncode == 0 and out.stdout.strip() == "4"


def test_cli_contract_text_case():
    out = run_cli("contract", "--flavor", "bf", "--n", "4", "(1,4,3,2,4)")
    assert out.returncode == 0
    assert out.stdout.strip() == "(1,2,3,4,3,4) + (1,2,4,3,2,4)"


def test_cli_json_schema():
    out = run_cli(
        "boundary",
        "--flavor",
        "bf",
        "--n",
        "3",
        "--format",
        "json",
        "(1,2,1,3)",
    )
    data = json.loads(out.stdout)
    assert data["complex"] == "S^bf(3)"
    assert data["n"] == 3
    assert data["ring"] == {"kind": "Z"}
    assert data["degree"] == 0
    assert all(set(t) == {"coeff", "gen"} for t in data["terms"])


def test_cli_deterministic_output():
    args = ("tr", "--n", "3", "(1 2 3; 2 1 3; 3 2 1)")
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout and a.returncode == 0


def test_cli_invalid_input_exit_2():
    out = run_cli("boundary", "--flavor", "bf", "--n", "3", "(1,2")
    assert out.returncode == 2
    out = run_cli("boundary", "(1,2)")
    assert out.returncode == 2


def test_cli_guard_exit_3():
    out = run_cli(
        "bf-action",
        "--n",
        "3",
        "--m",
        "3",
        "--term-guard",
        "2",
        "(1,2,3,1)",
    )
    assert out.returncode == 3


def test_cli_verify_suite_ok():
    out = run_cli("verify", "--suite", "golden-boundaries")
    assert out.returncode == 0
    assert "PASS" in out.stdout


def test_cli_verify_json():
    out = run_cli("verify", "--suite", "minimal", "--format", "json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["ok"] is True
    assert data["suite"] == "minimal"


def test_cli_iso_and_act():
    out = run_cli("iso", "--from", "bf", "--to", "ms", "--n", "3", "(1,2,1,3)")
    assert out.returncode == 0
    out = run_cli(
        "act", "--flavor", "ms", "--n", "3", "--g", "2 1 3", "(1,2,1,3)"
    )
    assert out.returncode == 0


def test_cli_act_refuses_a_permutation_of_another_size(capsys):
    # a surjection family says so itself; N(ESigma_n) through Perm's product
    cases = [
        (["--flavor", "bf", "--n", "3", "--g", "2 1", "(1,2,1,3)"], "arity mismatch in surjection action"),
        (["--eg", "3", "--g", "2 1", "(1 2 3)"], "composing permutations of different sizes"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(["act", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_aw_ez():
    out = run_cli("ez", "--simplex", "1", "--simplex2", "1", "(0,1)", "(0,1)")
    assert out.returncode == 0 and "((0,0)" in out.stdout
    out = run_cli("aw", "--simplex", "1", "(0,1)", "(0,1)")
    assert out.returncode == 0 and "(x)" in out.stdout


def test_cli_compose_and_partial():
    out = run_cli(
        "compose",
        "--flavor",
        "bf",
        "--arities",
        "2,1,2",
        "(1,2,1)",
        "(1)",
        "(1,2,1)",
    )
    assert out.returncode == 0
    out = run_cli(
        "partial-compose",
        "--flavor",
        "bf",
        "--i",
        "2",
        "--r",
        "3",
        "--s",
        "2",
        "(1,2,1,3,2)",
        "(1,2,1)",
    )
    assert out.returncode == 0
    assert "(1,2,1,4,2,3,2)" in out.stdout


TRIANGLE = {
    "dim": 2,
    "simplices": [
        {"id": "v0", "dim": 0},
        {"id": "v1", "dim": 0},
        {"id": "v2", "dim": 0},
        {"id": "e01", "dim": 1, "faces": ["v1", "v0"]},
        {"id": "e02", "dim": 1, "faces": ["v2", "v0"]},
        {"id": "e12", "dim": 1, "faces": ["v2", "v1"]},
        {"id": "t", "dim": 2, "faces": ["e12", "e02", "e01"]},
    ],
}


ALPHA = {"degree": 1, "values": {"e01": 1}}


def eval_cochain(tmp_path, faces, *extra, alpha=ALPHA):
    ft = tmp_path / "faces.json"
    ft.write_text(json.dumps(faces))
    a = tmp_path / "a.json"
    a.write_text(json.dumps(alpha))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"degree": 1, "values": {"e12": 1}}))
    return run_cli(
        "eval-cochain",
        "--n",
        "2",
        "--x",
        "(1,2)",
        "--faces",
        str(ft),
        "--cochains",
        str(a),
        str(b),
        *extra,
    )


def test_cli_eval_cochain(tmp_path):
    out = eval_cochain(tmp_path, TRIANGLE, "--simplex-id", "t")
    assert out.returncode == 0 and out.stdout.strip() == "-1"


# Two edges e and f from a to b, and a triangle t with faces e, e, f: every
# face has the right dimension, but d_0 d_2 t = b and d_1 d_0 t = a.
NOT_SIMPLICIAL = {
    "dim": 2,
    "simplices": [
        {"id": "a", "dim": 0},
        {"id": "b", "dim": 0},
        {"id": "e", "dim": 1, "faces": ["b", "a"]},
        {"id": "f", "dim": 1, "faces": ["b", "a"]},
        {"id": "t", "dim": 2, "faces": ["e", "e", "f"]},
    ],
}


def test_cli_eval_cochain_refuses_a_table_that_is_not_simplicial(tmp_path):
    from chainops.action import FaceTable

    with pytest.raises(InvalidInput, match="simplicial identity d_0 d_2 = d_1 d_0"):
        FaceTable(NOT_SIMPLICIAL)
    out = eval_cochain(tmp_path, NOT_SIMPLICIAL, alpha={"degree": 0, "values": {"a": 1}})
    assert out.returncode == 2 and out.stdout == ""
    [line] = out.stderr.splitlines()
    assert line == "error: simplex 't' breaks the simplicial identity d_0 d_2 = d_1 d_0"


def test_cli_eval_cochain_invalid_input(tmp_path):
    out = eval_cochain(tmp_path, TRIANGLE, "--simplex-id", "nowhere")
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and "nowhere" in out.stderr
    assert "Traceback" not in out.stderr
    # a face naming no simplex of one dimension lower
    for bad_face in ("v9", "v2"):
        faces = json.loads(json.dumps(TRIANGLE))
        faces["simplices"][-1]["faces"][0] = bad_face
        out = eval_cochain(tmp_path, faces)
        assert out.returncode == 2 and out.stderr.startswith("error: ")
    # a missing key, and integer ids that no cochain file can name
    integer_ids = {
        "dim": 1,
        "simplices": [
            {"id": 0, "dim": 0},
            {"id": 1, "dim": 0},
            {"id": 2, "dim": 1, "faces": [1, 0]},
        ],
    }
    # a simplex dim that is not a non-negative int, faces that are not a
    # list, and an id or a face entry that is a list
    malformed = [
        {"id": "x", "dim": "0"},
        {"id": "x", "dim": -1},
        {"id": "x", "dim": 1.0, "faces": ["v1", "v2"]},
        {"id": "x", "dim": True, "faces": ["v1", "v2"]},
        {"id": "x", "dim": 0, "faces": 5},
        {"id": ["x"], "dim": 0},
        {"id": "x", "dim": 1, "faces": [["v1"], "v0"]},
    ]
    records = [{"dim": 2, "simplices": TRIANGLE["simplices"] + [r]} for r in malformed]
    for faces in [{"simplices": []}, integer_ids] + records:
        out = eval_cochain(tmp_path, faces)
        assert out.returncode == 2 and out.stderr.startswith("error: "), faces
        assert "Traceback" not in out.stderr
    # cochain files without an integer degree and an object of integer values
    for alpha in (
        {"values": {}},
        {"degree": 1},
        {"degree": "1", "values": {}},
        {"degree": 1, "values": [1]},
        {"degree": 1, "values": {"e01": "x"}},
        {"degree": 1, "values": {"e01": 1.5}},
        [1, 2],
        "alpha",
    ):
        out = eval_cochain(tmp_path, TRIANGLE, alpha=alpha)
        assert out.returncode == 2 and out.stderr.startswith("error: "), alpha
        assert "Traceback" not in out.stderr
    # a null (degenerate) face is allowed; the cup product never reads face 1
    faces = json.loads(json.dumps(TRIANGLE))
    faces["simplices"][-1]["faces"][1] = None
    out = eval_cochain(tmp_path, faces, "--simplex-id", "t")
    assert out.returncode == 0 and out.stdout.strip() == "-1"


# B(Z/2) up to dimension 4 with one simplex sN per dimension: d_0 and d_N
# are s(N-1), and the inner face d_j is the degeneracy record s_(j-1) s(N-2)
BZ2 = {
    "dim": 4,
    "simplices": [
        {
            "id": f"s{k}",
            "dim": k,
            "faces": [f"s{k - 1}" if j in (0, k) else {"of": f"s{k - 2}", "s": [j - 1]} for j in range(k + 1)]
            if k
            else [],
        }
        for k in range(5)
    ],
}


def test_cli_eval_cochain_degeneracy_records(tmp_path, capsys):
    """eval-cochain reads a face table with degeneracy records: Sq^2(x^2) =
    x^4 on B(Z/2), the cup square of x^2 through the records.  A malformed
    record exits 2 with one error line."""
    ft, x2 = tmp_path / "bz2.json", tmp_path / "x2.json"
    ft.write_text(json.dumps(BZ2))
    x2.write_text(json.dumps({"degree": 2, "values": {"s2": 1}}))
    argv = ["eval-cochain", "--n", "2", "--x", "(1,2)", "--ring", "F2", "--faces", str(ft)]
    main(argv + ["--cochains", str(x2), str(x2)])
    assert capsys.readouterr().out == '{"degree": 4, "values": {"s4": 1}}\n'
    # 'of' missing, null or of the wrong dimension; 's' not a list of ints,
    # not strictly decreasing or out of range
    for record in (
        {"s": [1]},
        {"of": None, "s": [1]},
        {"of": "s1", "s": [1]},
        {"of": "s2", "s": "1"},
        {"of": "s2", "s": [1.0]},
        {"of": "s1", "s": [0, 1]},
        {"of": "s1", "s": [1, 1]},
        {"of": "s2", "s": [3]},
    ):
        bad = json.loads(json.dumps(BZ2))
        bad["simplices"][4]["faces"][2] = record
        ft.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cochains", str(x2), str(x2)])
        assert exc.value.code == 2, record
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and ("record" in line or "face" in line), record


def test_cli_eval_cochain_term_guard(tmp_path):
    """eval-cochain trips the term guard one below bf_action's term count."""
    from chainops.action import bf_action

    count = len(bf_action(surjection_complex("bf", 2).el(ZZ, (1, 2)), 2).terms)
    out = eval_cochain(tmp_path, TRIANGLE, "--term-guard", str(count - 1))
    assert out.returncode == 3
    assert out.stderr == f"error: formal sum holds {count} terms, above the guard {count - 1}\n"
    out = eval_cochain(tmp_path, TRIANGLE, "--term-guard", str(count))
    assert out.returncode == 0


EVAL = ("eval-cochain", "--n", "2", "--x", "(1,2)")
MALFORMED = {
    "act-eg-letter": ("act", "--eg", "3", "--g", "2 x 1", "(1 2 3)"),
    "act-cyclic-pair": ("act", "--cyclic", "3", "--g", "1 2", "(0)"),
    "ring-Fx": ("boundary", "--flavor", "bf", "--n", "3", "--ring", "Fx", "(1,2,1,3)"),
    "ring-F": ("boundary", "--flavor", "bf", "--n", "3", "--ring", "F", "(1,2,1,3)"),
    "constant-p9": ("constant", "--m", "1", "--p", "9"),
    "constant-m-negative": ("constant", "--m", "-1", "--p", "3"),
    "verify-max-degree-negative": ("verify", "--suite", "contracted", "--max-degree", "-1"),
    "verify-jobs-0": ("verify", "--suite", "contracted", "--jobs", "0"),
    "verify-trpr-max-degree-negative": ("verify", "--suite", "trpr", "--max-degree", "-1"),
    "verify-signs-n-negative": ("verify", "--suite", "signs", "--n", "-3"),
    "verify-isos-max-degree-negative": ("verify", "--suite", "isos", "--max-degree", "-2"),
    "verify-action-m-negative": ("verify", "--suite", "action", "--m", "-1"),
    "term-guard-0": ("boundary", "--flavor", "bf", "--n", "3", "--term-guard", "0", "(1,2,1,3)"),
    "term-guard-negative": ("boundary", "--flavor", "bf", "--n", "3", "--term-guard", "-1", "(1,2,1,3)"),
    "faces-missing": EVAL + ("--faces", "{missing}", "--cochains", "{a}", "{a}"),
    "faces-garbled": EVAL + ("--faces", "{garbled}", "--cochains", "{a}", "{a}"),
    "cochain-missing": EVAL + ("--faces", "{faces}", "--cochains", "{a}", "{missing}"),
    "cochain-garbled": EVAL + ("--faces", "{faces}", "--cochains", "{garbled}", "{a}"),
    "faces-null-id": EVAL + ("--faces", "{nullid}", "--cochains", "{a}", "{a}"),
    "faces-dim-string": EVAL + ("--faces", "{dimstring}", "--cochains", "{a}", "{a}"),
    "faces-duplicate-id": EVAL + ("--faces", "{duplicate}", "--cochains", "{a}", "{a}"),
    "cochain-bool": EVAL + ("--faces", "{faces}", "--cochains", "{bool}", "{a}"),
    "cochain-stray-id": EVAL + ("--faces", "{faces}", "--cochains", "{a}", "{stray}"),
    "cochain-off-degree-id": EVAL + ("--faces", "{faces}", "--cochains", "{offdegree}", "{a}"),
    "verify-isos-n-1": ("verify", "--suite", "isos", "--n", "1"),
    "diagonal-eg-arity-0": ("diagonal", "--eg", "3", "--arity", "0", "(1 2 3)"),
    # a permutation of another size in N(ESigma_n), which used to print a boundary
    "boundary-eg-short-entry": ("boundary", "--eg", "3", "(1 2; 2 1 3)"),
    "compose-be-long-inner": ("compose", "--be", "--arities", "2,1,2", "(1 2; 2 1)", "(1)", "(1 2 3)"),
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_cli_malformed_input_one_error_line(tmp_path, argv):
    names = (
        "faces", "a", "garbled", "missing", "nullid", "dimstring", "duplicate", "bool", "stray",
        "offdegree",
    )
    paths = {name: tmp_path / f"{name}.json" for name in names}
    paths["faces"].write_text(json.dumps(TRIANGLE))
    paths["nullid"].write_text(json.dumps({"dim": 0, "simplices": [{"id": None, "dim": 0}]}))
    paths["dimstring"].write_text(json.dumps(dict(TRIANGLE, dim="five")))
    # a second record for the edge e01, which used to replace the first
    again = {"id": "e01", "dim": 1, "faces": ["v2", "v0"]}
    paths["duplicate"].write_text(json.dumps(dict(TRIANGLE, simplices=TRIANGLE["simplices"] + [again])))
    paths["a"].write_text(json.dumps(ALPHA))
    paths["garbled"].write_text('{"degree": 1,')
    paths["bool"].write_text(json.dumps({"degree": True, "values": {"e": True}}))
    # an id the table lacks, and one of a simplex of another dimension
    paths["stray"].write_text(json.dumps({"degree": 1, "values": {"e12": 1, "nowhere": 5}}))
    paths["offdegree"].write_text(json.dumps({"degree": 1, "values": {"e01": 1, "t": 7}}))
    out = run_cli(*(arg.format(**paths) for arg in argv))
    assert out.returncode == 2
    [line] = out.stderr.splitlines()
    assert line.startswith("error: ") and "Traceback" not in out.stderr
    for bad in ("missing", "garbled"):
        if "{" + bad + "}" in argv:
            assert str(paths[bad]) in line


# Multi-term outputs whose term order the generators' own comparison
# decides, recorded as text and JSON: a change of that order shows here.
GOLDEN_ORDER = json.loads(Path(__file__).with_name("golden_order.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_ORDER, ids=lambda c: " ".join(c["argv"][:4]))
def test_cli_multi_term_output_golden(case, capsys):
    main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]


# Help, usage and parse errors of the whole parser, recorded before each
# invocation built only its own subcommand's arguments.
GOLDEN_ARGPARSE = json.loads(Path(__file__).with_name("golden_argparse.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN_ARGPARSE, ids=lambda c: " ".join(c["argv"]) or "no-command"
)
def test_cli_argparse_output_golden(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    assert exc.value.code == case["code"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


# An explicit 0 selects its complex, whose factory rejects it, or is the
# arity of a multidiagonal, which rejects it in one message for every model.
ZERO = {
    "diagonal-simplex-arity-0": (("diagonal", "--simplex", "2", "--arity", "0", "(0,1)"), "multidiagonal arity must be >= 1"),
    "diagonal-cyclic-arity-0": (("diagonal", "--cyclic", "3", "--arity", "0", "(0)"), "multidiagonal arity must be >= 1"),
    "aw-cyclic2-0": (("aw", "--cyclic", "2", "--cyclic2", "0", "(0)", "(0)"), "order must be >= 1"),
    "ez-eg2-0": (("ez", "--eg", "2", "--eg2", "0", "(1 2)", "(1)"), "arity must be >= 1"),
    "eg-0": (("boundary", "--eg", "0", "(1)"), "arity must be >= 1"),
    "cyclic-0": (("boundary", "--cyclic", "0", "(0)"), "order must be >= 1"),
    "minimal-0": (("boundary", "--minimal", "0", "(0,0)"), "cyclic order must be >= 2"),
    "flavor-n-0": (("boundary", "--flavor", "bf", "--n", "0", "(1)"), "arity must be >= 1"),
}


@pytest.mark.parametrize("argv,message", ZERO.values(), ids=ZERO.keys())
def test_cli_zero_is_a_given_value(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# The invalid twins of the aw and ez --simplex golden cases.  aw reads the
# two rows as one product generator: it refuses rows of unequal length
# first, then checks the first row whole and then the second.
INVALID_ROWS = {
    "aw-empty": (("aw", "--simplex", "2", "()", "()"), "product generator rows must share a length >= 1"),
    "aw-vertex": (("aw", "--simplex", "1", "--simplex2", "2", "(0,5)", "(0,1)"), "vertex 5 outside Delta^1"),
    "aw-vertex-2": (("aw", "--simplex", "1", "--simplex2", "2", "(0,1)", "(0,3)"), "vertex 3 outside Delta^2"),
    "aw-order": (("aw", "--simplex", "2", "(1,0,2)", "(0,1,2)"), "row (1, 0, 2) out of order"),
    "aw-order-first": (("aw", "--simplex", "1", "(1,0,5)", "(0,1,1)"), "row (1, 0, 5) out of order"),
    "aw-row-1-first": (("aw", "--simplex", "1", "(0,9)", "(1,0)"), "vertex 9 outside Delta^1"),
    "aw-unequal": (("aw", "--simplex", "1", "--simplex2", "2", "(0,1,1)", "(0,1)"), "aw needs rows of equal length"),
    "ez-vertex": (("ez", "--simplex", "1", "--simplex2", "2", "(0,5)", "(0,1,2)"), "vertex 5 outside Delta^1"),
    "ez-order": (("ez", "--simplex", "2", "(0,2)", "(2,1)"), "vertices (2, 1) out of order"),
    "boundary-simplex-empty": (
        ("boundary", "--simplex", "2", "()"), "a generator of N(Delta^2) has at least one vertex"
    ),
    "ez-empty": (("ez", "--simplex", "2", "()", "(0,1)"), "a generator of N(Delta^2) has at least one vertex"),
}


@pytest.mark.parametrize("argv,message", INVALID_ROWS.values(), ids=INVALID_ROWS.keys())
def test_cli_invalid_product_rows(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Each suite's checks stop at the suite's bounds: (argv, module, function
# the suite calls, the arity or degree a call works at, the bound, the
# check line that states it).
BOUNDED = {
    "trpr-n-2": (
        ("verify", "--suite", "trpr", "--n", "2"),
        "chainops.morphisms", "table_reduction_standard", lambda flavor, n: n, 2,
        "PASS TR closed = recursive, commutes with h (n<=2)",
    ),
    "action-n-2": (
        ("verify", "--suite", "action", "--n", "2"),
        "chainops.action", "bf_action", lambda x, m: x.complex.n, 2,
        "PASS Phi = 0 when k > m(n-1) (n<=2)",
    ),
    "signs-max-degree-2": (
        ("verify", "--suite", "signs", "--max-degree", "2"),
        "chainops.suites", "_basis", lambda flavor, max_n, max_k: max_k, 2,
        "PASS delta = parity of caesuras in even blocks (k<=2)",
    ),
}


@pytest.mark.parametrize(
    "argv,module,name,reach,bound,line", BOUNDED.values(), ids=BOUNDED.keys()
)
def test_cli_verify_checks_no_case_beyond_its_bound(
    argv, module, name, reach, bound, line, monkeypatch, capsys
):
    mod = importlib.import_module(module)
    real = getattr(mod, name)
    seen = []

    def recorded(*args):
        seen.append(reach(*args))
        return real(*args)

    monkeypatch.setattr(mod, name, recorded)
    assert main(list(argv)) == 0
    assert max(seen) == bound
    assert line in capsys.readouterr().out.splitlines()


# A fresh interpreter running one command imports no module of chainops
# that the command does not use.
LOADED = (
    "import sys\n"
    "from chainops.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "finally:\n"
    "    print(*sorted(m for m in sys.modules if m.startswith('chainops.')), file=sys.stderr)\n"
)
NOT_LOADED = {
    "boundary": (
        ("boundary", "--flavor", "bf", "--n", "3", "(1,2,1,3)"),
        {"action", "maclane", "minimal", "morphisms", "operads", "procedure", "simplex", "suites"},
    ),
    "boundary-simplex": (
        ("boundary", "--simplex", "2", "(0,1,2)"),
        {"action", "maclane", "minimal", "morphisms", "operads", "procedure", "suites"},
    ),
    "tr": (
        ("tr", "--n", "3", "(1 2 3; 2 3 1)"),
        {"action", "minimal", "operads", "procedure", "simplex", "suites"},
    ),
    "compose": (
        ("compose", "--arities", "2,1,1", "(1,2,1)", "(1)", "(1)"),
        {"action", "maclane", "minimal", "morphisms", "procedure", "simplex", "suites"},
    ),
    "compose-be": (
        ("compose", "--be", "--arities", "2,1,1", "(1 2; 2 1)", "(1)", "(1)"),
        {"action", "minimal", "morphisms", "procedure", "suites", "witnesses"},
    ),
    "partial-compose": (
        ("partial-compose", "--i", "2", "--r", "3", "--s", "2", "(1,2,1,3,2)", "(1,2,1)"),
        {"action", "maclane", "minimal", "morphisms", "procedure", "simplex", "suites"},
    ),
    "bf-action": (
        ("bf-action", "--n", "2", "--m", "1", "(1,2,1)"),
        {"maclane", "minimal", "morphisms", "operads", "suites", "witnesses"},
    ),
    "eval-cochain": (
        EVAL + ("--faces", "{faces}", "--cochains", "{a}", "{a}"),
        {"maclane", "minimal", "morphisms", "operads", "suites", "witnesses"},
    ),
    "verify-golden-boundaries": (
        ("verify", "--suite", "golden-boundaries"),
        {"action", "maclane", "minimal", "morphisms", "operads", "simplex", "witnesses"},
    ),
}


@pytest.mark.parametrize("argv,unused", NOT_LOADED.values(), ids=NOT_LOADED.keys())
def test_cli_command_imports_only_its_modules(argv, unused, tmp_path):
    paths = {"faces": tmp_path / "faces.json", "a": tmp_path / "a.json"}
    paths["faces"].write_text(json.dumps(TRIANGLE))
    paths["a"].write_text(json.dumps(ALPHA))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *(arg.format(**paths) for arg in argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".", 1)[1] for name in proc.stderr.splitlines()[-1].split()}
    assert "cli" in loaded and not loaded & unused


def test_cli_phi_pi_lambda_diagonal():
    assert run_cli("phi-M", "--n", "3", "(0,2)").returncode == 0
    assert run_cli("pi-M", "--n", "3", "(0; 2; 0)").returncode == 0
    assert run_cli("lambda", "--n", "5", "--l", "2", "(0,3)").returncode == 0
    assert (
        run_cli(
            "diagonal", "--minimal", "3", "--arity", "3", "(0,2)"
        ).returncode
        == 0
    )
    assert (
        run_cli("diagonal", "--simplex", "2", "--arity", "2", "(0,1,2)").returncode
        == 0
    )
    assert run_cli("pr", "--flavor", "bf", "--n", "3", "(1,2,1,3)").returncode == 0


def test_cli_prime_field_ring():
    out = run_cli(
        "boundary", "--flavor", "bf", "--n", "3", "--ring", "F3",
        "3*(1,2,1,3)",
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "0"


def test_cli_verify_all_suites_listed():
    out = run_cli("verify", "--suite", "no-such-suite")
    assert out.returncode == 2
    assert "contracted" in out.stderr


def test_cli_verify_parallel_jobs():
    out = run_cli(
        "verify", "--suite", "contracted", "--n", "2",
        "--max-degree", "2", "--jobs", "2",
    )
    assert out.returncode == 0
    assert "FAIL" not in out.stdout


def test_cli_compose_barratt_eccles():
    out = run_cli(
        "compose", "--be", "--arities", "2,1,2",
        "(1 2; 2 1)", "(1)", "(1 2)",
    )
    assert out.returncode == 0 and "(x)" not in out.stdout


def test_cli_ez_maclane():
    out = run_cli("ez", "--eg", "2", "--eg2", "2", "(1 2; 2 1)", "(1 2; 2 1)")
    assert out.returncode == 0


def test_cli_bf_action_json():
    out = run_cli(
        "bf-action", "--n", "2", "--m", "1", "--format", "json", "(1,2,1)"
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["degree"] == 2


def test_term_guard_env_var():
    import os, subprocess

    env = dict(os.environ, CHAINOPS_TERM_GUARD="2")
    proc = subprocess.run(
        [sys.executable, "-m", "chainops.cli", "bf-action", "--n", "3",
         "--m", "3", "(1,2,3,1)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_term_guard_env_var_must_be_a_positive_integer(raw):
    import os, subprocess

    env = dict(os.environ, CHAINOPS_TERM_GUARD=raw)
    for argv in (("boundary", "--flavor", "bf", "--n", "3", "(1,2,1,3)"),
                 ("constant", "--m", "1", "--p", "3")):
        proc = subprocess.run(
            [sys.executable, "-m", "chainops.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: CHAINOPS_TERM_GUARD={raw!r} is not a positive integer\n"
