import json
import os
import subprocess
import sys

import pytest

from entwine import QQ, WitnessKind, check_witness, make_example
from entwine.cli import main
from entwine import schema


@pytest.fixture()
def c2_q_file(tmp_path):
    path = tmp_path / "c2_q.json"
    assert main(["catalog", "--name", "hopf_self_galois", "--n", "2",
                 "--field", "Q", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def c2_f2_file(tmp_path):
    path = tmp_path / "c2_f2.json"
    assert main(["catalog", "--name", "hopf_self_galois", "--n", "2",
                 "--field", "Fp", "--p", "2", "-o", str(path)]) == 0
    return str(path)


def test_check_passes(c2_q_file, capsys):
    assert main(["check", c2_q_file]) == 0
    out = capsys.readouterr().out
    assert "algebra: ok" in out
    assert "entwining: ok" in out


def test_check_detects_failure(tmp_path, c2_q_file, capsys):
    doc = json.load(open(c2_q_file))
    doc["psi"][0][0] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_malformed_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2


def test_unknown_key_rejected(tmp_path):
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps({"schema": "entwine/1", "field": {"kind": "Q"},
                               "surprise": 1}))
    assert main(["check", str(bad)]) == 2


def test_wrong_schema_version(tmp_path):
    bad = tmp_path / "v0.json"
    bad.write_text(json.dumps({"schema": "entwine/0", "field": {"kind": "Q"}}))
    assert main(["check", str(bad)]) == 2


def test_solve_integral_found(c2_q_file, tmp_path, capsys):
    out = tmp_path / "witness.json"
    code = main(["solve", "--kind", "integral", "--normalized", c2_q_file,
                 "-o", str(out)])
    assert code == 0
    assert "found" in capsys.readouterr().out
    doc = json.load(open(out))
    assert doc["witness"]["kind"] == "integral"
    # the emitted certificate re-verifies after the round trip
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload
    matrix = schema.parse_matrix(QQ, doc["witness"]["matrix"],
                                 tuple(doc["witness"]["domain_shape"]),
                                 tuple(doc["witness"]["codomain_shape"]),
                                 "witness")
    flat = tuple(x for row in matrix.entries for x in row)
    assert not check_witness(WitnessKind.INTEGRAL, ext.ent, flat, True)


def test_solve_integral_infeasible(c2_f2_file, capsys):
    assert main(["solve", "--kind", "integral", "--normalized",
                 c2_f2_file]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_solve_integral_map_roundtrip(c2_q_file, tmp_path):
    out = tmp_path / "gamma.json"
    assert main(["solve", "--kind", "integral-map", "--normalized", c2_q_file,
                 "-o", str(out)]) == 0
    doc = json.load(open(out))
    assert doc["witness"]["domain_shape"] == [2, 2]
    assert doc["witness"]["codomain_shape"] == [2]
    assert doc["family"]["homogeneous_dim"] == 1


def test_solve_lambda_and_frakz(c2_q_file):
    assert main(["solve", "--kind", "lambda", c2_q_file]) == 0
    assert main(["solve", "--kind", "frakz", c2_q_file]) == 0
    assert main(["solve", "--kind", "lambda", "--morphism", "unit",
                 c2_q_file]) == 0
    assert main(["solve", "--kind", "frakz", "--morphism", "unit",
                 c2_q_file]) == 0


def test_extension_report(c2_q_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["extension", "report", c2_q_file, "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "separable: true" in printed
    assert "split: true" in printed
    assert 'tau: "1/2"' in printed
    report = json.load(open(out))
    assert report["separable"] and report["split"]
    assert report["strong"]["found"]
    assert report["strong"]["tau"] == "1/2"
    assert report["hochschild"]["h1_dim"] == 0
    assert report["hypothesis_flags"]["faithfully_flat_left_module"] is True
    assert report["hypothesis_flags"]["free_right_module"] == "verified"
    # certificates re-verify after the JSON round trip
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload
    z = [QQ.parse(x) for x in report["certificates"]["integral"]]
    assert not check_witness(WitnessKind.INTEGRAL, ext.ent, tuple(z), True)
    from entwine.separability import verify_idempotent
    reps = [QQ.parse(x) for x in report["certificates"]["idempotent"]]
    u = ext.square.projection.apply(tuple(reps))
    assert not verify_idempotent(ext, u)


def test_extension_report_mod2(c2_f2_file, capsys):
    assert main(["extension", "report", c2_f2_file]) == 0
    printed = capsys.readouterr().out
    assert "separable: false" in printed
    assert "split: true" in printed
    assert "hochschild H1: 2" in printed


def test_extension_report_rejects_non_galois(tmp_path, capsys):
    doc = {
        "schema": "entwine/1", "field": {"kind": "Q"},
        "algebra": {"dim": 1, "mult": [["1"]], "unit": ["1"]},
        "coalgebra": {"dim": 2,
                      "comult": [["1", "0"], ["0", "0"], ["0", "0"],
                                 ["0", "1"]],
                      "counit": ["1", "1"]},
        "coactionA": [["1"], ["0"]],
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    assert main(["extension", "report", str(path)]) == 1
    assert "not a coalgebra-Galois extension" in capsys.readouterr().out


def test_coextension_report_rejects_non_galois(tmp_path, capsys):
    # the transposed data of test_galois.py's graded dual numbers: the
    # canonical map C (x) A -> C [] C has rank 3 of 4
    doc = {
        "schema": "entwine/1", "field": {"kind": "Q"},
        "algebra": {"dim": 2, "mult": [["1", "0", "0", "0"],
                                       ["0", "0", "0", "1"]],
                    "unit": ["1", "1"]},
        "coalgebra": {"dim": 2,
                      "comult": [["1", "0"], ["0", "1"], ["0", "1"],
                                 ["0", "0"]],
                      "counit": ["1", "0"]},
        "actionC": [["1", "0", "0", "0"], ["0", "0", "0", "1"]],
    }
    path = tmp_path / "graded.json"
    path.write_text(json.dumps(doc))
    assert main(["coextension", "report", str(path)]) == 1
    assert capsys.readouterr().out == ("not an algebra-Galois coextension: "
                                       "canonical map of the coextension is "
                                       "not bijective\n")


def test_coextension_report(tmp_path, capsys):
    path = tmp_path / "coext.json"
    assert main(["catalog", "--name", "self_coextension", "--n", "2",
                 "--field", "Q", "-o", str(path)]) == 0
    out = tmp_path / "report.json"
    assert main(["coextension", "report", str(path), "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "coseparable: true" in printed
    assert "pointed: true" in printed
    report = json.load(open(out))
    assert "cotranslation" in report["certificates"]
    assert report["dims"]["coideal"] == 1


def test_coextension_report_dual_mod2(tmp_path, capsys):
    path = tmp_path / "coextd.json"
    assert main(["catalog", "--name", "self_coextension", "--n", "2",
                 "--dual", "--field", "Fp", "--p", "2", "-o", str(path)]) == 0
    assert main(["coextension", "report", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "coseparable: false" in printed


def test_hochschild_command(c2_f2_file, capsys):
    assert main(["hochschild", "--n", "1", c2_f2_file]) == 0
    out = capsys.readouterr().out
    assert "H^1 dimension: 2" in out
    assert "representative" in out


def test_hochschild_with_bimodule_file(c2_q_file, tmp_path, capsys):
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload
    a = ext.alg
    bim = {"schema": "entwine/1", "field": {"kind": "Q"},
           "bimodule": {"dim": 2,
                        "left": schema.matrix_to_json(
                            a.mult.reshaped((2, 2), (2,))),
                        "right": schema.matrix_to_json(a.mult)}}
    path = tmp_path / "bim.json"
    path.write_text(json.dumps(bim))
    assert main(["hochschild", "--n", "1", "--bimodule", str(path),
                 c2_q_file]) == 0
    assert "H^1 dimension: 0" in capsys.readouterr().out


def test_catalog_to_stdout(capsys):
    assert main(["catalog", "--name", "trivial_entwining", "--field", "Q"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "entwine/1"


def test_catalog_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["catalog", "--name", "hopf_quotient_galois", "--n", "4",
                     "--d", "2", "--field", "Q", "-o", str(target)]) == 0
    assert a.read_text() == b.read_text()


def test_catalog_fixed_subalgebra_mismatch_is_a_failure(capsys, monkeypatch):
    # a fixed subalgebra other than the subgroup algebra is a failed
    # identity of the catalog's own construction (exit 1), never an input
    # error (exit 2)
    from entwine import Subspace, catalog
    build = catalog.build_galois

    def wrong_fixed(*args):
        ext = build(*args)
        return ext.replace(fixed=Subspace.full(ext.field, ext.fixed.ambient))
    monkeypatch.setattr(catalog, "build_galois", wrong_fixed)
    assert main(["catalog", "--name", "hopf_quotient_galois", "--n", "4",
                 "--d", "2", "--field", "Q"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: fixed subalgebra is not the subgroup algebra"]


def test_catalog_unknown_name():
    assert main(["catalog", "--name", "nope", "--field", "Q"]) == 2


def test_module_section_checked(tmp_path, c2_q_file, capsys):
    doc = json.load(open(c2_q_file))
    # A itself as an entwined module: action = mult, coaction = comult
    doc["module"] = {"dim": 2, "action": doc["algebra"]["mult"],
                     "coaction": doc["coalgebra"]["comult"]}
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    assert "module: ok" in capsys.readouterr().out


def test_morphism_section_checked(tmp_path, c2_q_file, capsys):
    doc = json.load(open(c2_q_file))
    ident = [["1", "0"], ["0", "1"]]
    doc["morphism"] = {"f": ident, "g": ident,
                       "dst": {"algebra": doc["algebra"],
                               "coalgebra": doc["coalgebra"],
                               "psi": doc["psi"]}}
    path = tmp_path / "mor.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    assert "morphism: ok" in capsys.readouterr().out
    assert main(["solve", "--kind", "lambda", "--morphism", "doc",
                 str(path)]) == 0


@pytest.mark.parametrize("kind", ["integral", "cointegral", "integral-map",
                                  "cointegral-map", "lambda", "frakz"])
def test_solve_rechecks_the_solution_it_prints(c2_q_file, capsys, monkeypatch,
                                              kind):
    # a solver that hands back a wrong particular solution is caught by the
    # re-check on the system that was solved: one error line, exit 1
    from entwine.linalg import LinearConstraints
    solve = LinearConstraints.solve

    def corrupted(self):
        sol = solve(self)
        wrong = (QQ.add(sol.particular[0], QQ.one),) + sol.particular[1:]
        return sol.replace(particular=wrong)
    monkeypatch.setattr(LinearConstraints, "solve", corrupted)
    assert main(["solve", "--kind", kind, "--normalized", c2_q_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: particular solution")


def test_solve_lambda_roundtrip(c2_q_file, tmp_path):
    out = tmp_path / "lambda.json"
    assert main(["solve", "--kind", "lambda", c2_q_file, "-o", str(out)]) == 0
    doc = json.load(open(out))
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload
    from entwine.entwining import counit_morphism
    from entwine.witness import lambda_witness
    mor = counit_morphism(ext.ent)
    matrix = schema.parse_matrix(QQ, doc["witness"]["matrix"],
                                 tuple(doc["witness"]["domain_shape"]),
                                 tuple(doc["witness"]["codomain_shape"]),
                                 "lambda")
    flat = tuple(x for row in matrix.entries for x in row)
    lambda_witness(mor, flat)   # re-verifies every identity


def test_solve_on_broken_entwining_is_mathematical_failure(tmp_path,
                                                           c2_q_file, capsys):
    doc = json.load(open(c2_q_file))
    doc["psi"][0][0] = "2"   # well-formed file, failed axioms
    path = tmp_path / "badpsi.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--kind", "integral", "--normalized",
                 str(path)]) == 1
    assert "invalid entwining" in capsys.readouterr().out


def _break_psi(part):
    part["psi"][0][0] = "2"


def _break_associativity(part):
    part["algebra"]["mult"][1][1] = "0"   # 1 . s = 0


def _failing_part(doc, where, breaks):
    """Break the document's own entwining, or give it an identity morphism
    onto a broken copy of it."""
    if where == "source":
        breaks(doc)
        return
    target = json.loads(json.dumps({key: doc[key] for key in
                                    ("algebra", "coalgebra", "psi")}))
    breaks(target)
    ident = [["1", "0"], ["0", "1"]]
    doc["morphism"] = {"f": ident, "g": ident, "dst": target}


@pytest.mark.parametrize("argv, where, breaks, line", [
    (["--kind", "lambda", "--morphism", "doc"], "target", _break_psi,
     "error: entwining: FAIL "),
    (["--kind", "frakz", "--morphism", "doc"], "target", _break_psi,
     "error: entwining: FAIL "),
    (["--kind", "lambda", "--morphism", "doc"], "target",
     _break_associativity, "error: algebra: FAIL associativity fails "),
    (["--kind", "frakz", "--morphism", "doc"], "target",
     _break_associativity, "error: algebra: FAIL associativity fails "),
    (["--kind", "integral"], "source", _break_psi,
     "invalid entwining: entwining: FAIL "),
], ids=["lambda-psi", "frakz-psi", "lambda-associativity",
        "frakz-associativity", "integral-source"])
def test_solve_on_a_failed_law_is_one_fail_line(tmp_path, c2_q_file, capsys,
                                               argv, where, breaks, line):
    # a well-formed document whose entwining, or whose morphism's target,
    # fails a law: exit 1 and the one report line, never an input error
    path = _write_doc(tmp_path, c2_q_file,
                      lambda doc: _failing_part(doc, where, breaks))
    assert main(["check", path]) == 1
    capsys.readouterr()
    assert main(["solve", *argv, path]) == 1
    out, err = capsys.readouterr()
    text = out + err
    assert text.startswith(line) and text.count("\n") == 1
    assert "input error:" not in text
    assert text.count("invalid entwining:") == (1 if where == "source" else 0)


def test_json_flag_emits_pure_json(c2_q_file, capsys):
    assert main(["extension", "report", c2_q_file, "--json"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)   # a single clean document
    assert parsed["strong"]["tau"] == "1/2"
    assert parsed["strong"]["note"] == ""


def test_hochschild_degree_two(c2_f2_file, capsys):
    assert main(["hochschild", "--n", "2", c2_f2_file]) == 0
    assert "H^2 dimension: 2" in capsys.readouterr().out


# -- the input contract: malformed values exit 2 with one line ---------------

def _assert_input_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert err.count("\n") == 1


def _write_doc(tmp_path, c2_q_file, edit):
    doc = json.load(open(c2_q_file))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_string_dim_is_input_error(tmp_path, c2_q_file, capsys):
    path = _write_doc(tmp_path, c2_q_file,
                      lambda d: d["algebra"].__setitem__("dim", "x"))
    _assert_input_error(["check", path], capsys)


def test_string_modulus_is_input_error(tmp_path, c2_f2_file, capsys):
    path = _write_doc(tmp_path, c2_f2_file,
                      lambda d: d["field"].__setitem__("p", "abc"))
    _assert_input_error(["check", path], capsys)


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "entwine/1", "field": {"kind": "Q\xe9"}}')
    _assert_input_error(["check", str(path)], capsys)


@pytest.mark.parametrize("value", [2.5, 2.0])
def test_float_dim_is_input_error(tmp_path, c2_q_file, capsys, value):
    # int() would truncate these to the true dimension, 2, and accept them
    path = _write_doc(tmp_path, c2_q_file,
                      lambda d: d["coalgebra"].__setitem__("dim", value))
    _assert_input_error(["check", path], capsys)


@pytest.mark.parametrize("value", [True, 1.5])
def test_boolean_or_float_dim_one_is_input_error(tmp_path, capsys, value):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "schema": "entwine/1", "field": {"kind": "Q"},
        "algebra": {"dim": value, "mult": [["1"]], "unit": ["1"]}}))
    _assert_input_error(["check", str(path)], capsys)


def test_catalog_modulus_out_of_range_is_input_error(capsys):
    _assert_input_error(["catalog", "--name", "hopf_self_galois", "--n", "2",
                         "--field", "Fp", "--p", str(2 ** 64 + 13)], capsys)


@pytest.mark.parametrize("args", [
    ["group_algebra", "--n", "17"],
    ["group_function_coalgebra", "--n", "17"],
    ["hopf_self_galois", "--n", "17"],
    ["hopf_quotient_galois", "--n", "34", "--d", "17"],
    ["comodule_algebra_entwining", "--n", "17"],
    ["self_coextension", "--n", "17", "--dual"],
    ["trivial_entwining", "--n", "17"],
    ["flip_entwining", "--na", "17", "--nc", "2"],
    ["flip_entwining", "--na", "2", "--nc", "17"],
])
def test_catalog_order_above_the_cap_is_input_error(capsys, args):
    from entwine.catalog import MAX_ORDER
    assert MAX_ORDER == 16
    _assert_input_error(["catalog", "--name", *args], capsys)


@pytest.mark.parametrize("args", [
    ["group_algebra", "--hopf", "bogus"],
    ["self_coextension", "--n", "2", "--hopf", "sweedler"],
    ["hopf_quotient_galois", "--hopf", "sweedler"],
])
def test_catalog_unread_or_unknown_hopf_is_input_error(capsys, args):
    _assert_input_error(["catalog", "--name", *args], capsys)


def test_catalog_parameter_the_family_does_not_read_is_input_error(capsys):
    assert main(["catalog", "--name", "group_algebra", "--n", "2", "--dual",
                 "--d", "7", "--nc", "3"]) == 2
    err = capsys.readouterr().err
    assert err == ("input error: group_algebra does not read d, dual, nc "
                   "(it reads hopf, n)\n")


@pytest.mark.parametrize("argv", [
    ["catalog", "--name", "group_algebra", "--field", "Q", "--p", "4"],
    ["catalog", "--name", "group_algebra", "--p", "2"],
    ["solve", "--kind", "integral", "--morphism", "doc", "DOC"],
    ["solve", "--kind", "cointegral-map", "--morphism", "counit", "DOC"],
])
def test_an_option_the_command_does_not_read_is_input_error(c2_q_file, capsys,
                                                            argv):
    _assert_input_error([c2_q_file if a == "DOC" else a for a in argv], capsys)


def test_omitted_modulus_and_morphism_keep_their_defaults(c2_q_file, capsys):
    outputs = []
    for argv in (["catalog", "--name", "group_algebra", "--field", "Fp"],
                 ["catalog", "--name", "group_algebra", "--field", "Fp",
                  "--p", "2"],
                 ["solve", "--kind", "lambda", c2_q_file],
                 ["solve", "--kind", "lambda", "--morphism", "counit",
                  c2_q_file]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
    assert json.loads(outputs[0].out)["field"] == {"kind": "Fp", "p": 2}


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("argv", [
    ["solve", "--kind", "integral", "DOC"],
    ["extension", "report", "DOC"],
    ["coextension", "report", "COEXT"],
    ["hochschild", "DOC"],
    ["catalog", "--name", "group_algebra"],
])
def test_an_unwritable_output_is_input_error(tmp_path, c2_q_file, capsys,
                                             argv, target):
    coext = tmp_path / "coext.json"
    assert main(["catalog", "--name", "self_coextension", "--n", "2",
                 "-o", str(coext)]) == 0
    out = tmp_path / "missing" / "out.json" if target == "missing" else tmp_path
    capsys.readouterr()
    argv = [{"DOC": c2_q_file, "COEXT": str(coext)}.get(a, a) for a in argv]
    assert main(argv + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("argv", [
    ["solve", "--kind", "integral", "DOC"],
    ["extension", "report", "DOC"],
    ["coextension", "report", "COEXT"],
    ["hochschild", "DOC"],
])
def test_an_unwritable_output_prints_no_answer(tmp_path, c2_q_file, capsys,
                                               argv, as_json):
    # the file is written before anything is printed, so a command whose
    # -o target cannot be written leaves standard output empty
    coext = tmp_path / "coext.json"
    assert main(["catalog", "--name", "self_coextension", "--n", "2",
                 "-o", str(coext)]) == 0
    capsys.readouterr()
    argv = [{"DOC": c2_q_file, "COEXT": str(coext)}.get(a, a) for a in argv]
    flags = ["--json"] if as_json else []
    out = tmp_path / "missing" / "out.json"
    assert main(argv + flags + ["-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot write {out}: ")


def test_an_unwritable_output_gives_no_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-m", "entwine.cli", "catalog", "--name",
         "group_algebra", "-o", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 2
    assert child.stderr.startswith(f"input error: cannot write {tmp_path}: ")
    assert child.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["self_coextension", "--n", "2", "--dual"],
    ["self_coextension", "--n", "3"],
    ["hopf_self_galois", "--n", "3", "--field", "Fp", "--p", "7"],
    ["hopf_self_galois", "--hopf", "sweedler"],
    ["hopf_quotient_galois", "--n", "4", "--d", "2"],
])
def test_catalog_reads_every_parameter_it_is_given(args, capsys):
    assert main(["catalog", "--name", *args]) == 0
    assert capsys.readouterr().err == ""


def test_solve_without_psi_is_input_error(tmp_path, c2_q_file, capsys):
    # the missing entwining is a SchemaError, which is also an InputError;
    # it must stay malformed input (2), not become a failed axiom (1)
    path = _write_doc(tmp_path, c2_q_file, lambda d: d.pop("psi"))
    assert main(["solve", "--kind", "integral", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: document has no full entwining")
    assert err.count("\n") == 1


# -- scalars follow the README grammar ---------------------------------------

@pytest.mark.parametrize("scalar", ["1.5", " 1 ", "1_0", "\u0661", "+1", "1e3",
                                    "1e999999", "0x1", "1/0", "1/", "",
                                    "1" * 4301, "1/" + "1" * 4301, 1.0, None])
def test_rational_scalar_outside_the_grammar_is_input_error(
        tmp_path, c2_q_file, capsys, scalar):
    def put(doc):
        doc["algebra"]["unit"][0] = scalar
    _assert_input_error(["check", _write_doc(tmp_path, c2_q_file, put)], capsys)


def test_rational_scalars_in_the_grammar_are_accepted(tmp_path, c2_q_file,
                                                      capsys):
    # "1" as "2/2", "01" and a JSON integer; "0" as "-0" and "0/5"
    forms = {"1": ["2/2", "01", 1], "0": ["-0", "0/5"]}

    def rewrite(doc):
        mult = doc["algebra"]["mult"]
        for r, row in enumerate(mult):
            mult[r] = [forms[x][(r + c) % len(forms[x])]
                       for c, x in enumerate(row)]
    assert main(["check", _write_doc(tmp_path, c2_q_file, rewrite)]) == 0
    assert "algebra: ok" in capsys.readouterr().out


@pytest.mark.parametrize("scalar", ["1", 2, -1, True])
def test_mod_p_scalar_must_be_an_integer_in_range(tmp_path, c2_f2_file, capsys,
                                                  scalar):
    def put(doc):
        doc["algebra"]["unit"][0] = scalar
    _assert_input_error(["check", _write_doc(tmp_path, c2_f2_file, put)], capsys)


def _with_long_integer(text):
    """The JSON text with the placeholder "X" replaced by a 5,000-digit
    integer literal."""
    return text.replace('"X"', "1" * 5000)


def test_overlong_integer_literal_is_input_error(tmp_path, c2_q_file, capsys):
    def put(doc):
        doc["algebra"]["unit"][0] = "X"
    path = _write_doc(tmp_path, c2_q_file, put)
    with open(path) as fh:
        text = _with_long_integer(fh.read())
    with open(path, "w") as fh:
        fh.write(text)
    _assert_input_error(["check", path], capsys)


# -- the --bimodule file of `hochschild` follows the same contract ------------

def _bimodule_file(tmp_path, section):
    path = tmp_path / "bimodule.json"
    path.write_text(json.dumps({"schema": "entwine/1", "field": {"kind": "Q"},
                                "bimodule": section}))
    return str(path)


@pytest.mark.parametrize("dim", ["x", 1.5, True])
def test_bimodule_dim_must_be_an_integer(tmp_path, c2_q_file, capsys, dim):
    # int() would read 1.5 and true as 1, and the augmentation bimodule of
    # dimension 1 below would be accepted
    path = _bimodule_file(tmp_path, {"dim": dim, "left": [["1", "1"]],
                                     "right": [["1", "1"]]})
    _assert_input_error(["hochschild", "--bimodule", path, c2_q_file], capsys)


def test_bimodule_missing_matrix_is_input_error(tmp_path, c2_q_file, capsys):
    path = _bimodule_file(tmp_path, {"dim": 1, "left": [["1", "1"]]})
    _assert_input_error(["hochschild", "--bimodule", path, c2_q_file], capsys)


@pytest.mark.parametrize("key", ["field", "bimodule"])
def test_bimodule_file_names_its_missing_key(tmp_path, c2_q_file, capsys, key):
    path = tmp_path / "bimodule.json"
    doc = {"schema": "entwine/1", "field": {"kind": "Q"},
           "bimodule": {"dim": 1, "left": [["1", "1"]], "right": [["1", "1"]]}}
    del doc[key]
    path.write_text(json.dumps(doc))
    assert main(["hochschild", "--bimodule", str(path), c2_q_file]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: missing key {key!r} in bimodule document\n"


def test_overlong_integer_in_bimodule_file_is_input_error(tmp_path, c2_q_file,
                                                           capsys):
    path = _bimodule_file(tmp_path, {"dim": "X", "left": [], "right": []})
    with open(path) as fh:
        text = _with_long_integer(fh.read())
    with open(path, "w") as fh:
        fh.write(text)
    _assert_input_error(["hochschild", "--bimodule", path, c2_q_file], capsys)


def test_non_utf8_bimodule_file_is_input_error(tmp_path, c2_q_file, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "entwine/1", "field": {"kind": "Q\xe9"}}')
    _assert_input_error(["hochschild", "--bimodule", str(path), c2_q_file],
                        capsys)


# -- hochschild checks the algebra it reads -----------------------------------

def _non_associative_files(tmp_path):
    """Basis 1, x, y with x.x = y, x.y = x and every other product of x and y
    zero, so (x.x).y = 0 but x.(x.y) = y; and k as a bimodule through
    chi(1) = 1, chi(x) = chi(y) = 0."""
    mult = [["0"] * 9 for _ in range(3)]
    for j in range(3):
        mult[j][j] = mult[j][3 * j] = "1"          # 1.e_j = e_j . 1 = e_j
    mult[2][3 * 1 + 1] = "1"                       # x.x = y
    mult[1][3 * 1 + 2] = "1"                       # x.y = x
    doc = tmp_path / "non_associative.json"
    doc.write_text(json.dumps({
        "schema": "entwine/1", "field": {"kind": "Q"},
        "algebra": {"dim": 3, "mult": mult, "unit": ["1", "0", "0"]}}))
    chi = [["1", "0", "0"]]
    bim = _bimodule_file(tmp_path, {"dim": 1, "left": chi, "right": chi})
    return str(doc), bim


@pytest.mark.parametrize("degree", ["0", "1", "2"])
@pytest.mark.parametrize("bimodule", [False, True])
def test_hochschild_fails_on_a_non_associative_algebra(tmp_path, capsys,
                                                       degree, bimodule):
    doc, bim = _non_associative_files(tmp_path)
    assert main(["check", doc]) == 1
    capsys.readouterr()
    extra = ["--bimodule", bim] if bimodule else []
    assert main(["hochschild", "--n", degree, *extra, doc]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("algebra: FAIL ")
    assert "associativity fails" in out
    assert out.count("\n") == 1 and err == ""


@pytest.mark.parametrize("degree", ["0", "1", "2"])
def test_hochschild_fails_on_an_invalid_coaction(tmp_path, c2_q_file, capsys,
                                                 degree):
    def break_coaction(doc):
        doc["coactionA"][0][0] = "2"
    doc = _write_doc(tmp_path, c2_q_file, break_coaction)
    assert main(["check", doc]) == 1
    capsys.readouterr()
    assert main(["hochschild", "--n", degree, doc]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("coaction: FAIL ")
    assert out.count("\n") == 1 and err == ""


# -- a deeply nested document is malformed input ------------------------------

def _deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


@pytest.mark.parametrize("command", [["check"], ["extension", "report"]])
def test_deeply_nested_document_is_input_error(tmp_path, capsys, command):
    _assert_input_error([*command, _deeply_nested(tmp_path)], capsys)


def test_deeply_nested_bimodule_file_is_input_error(tmp_path, c2_q_file,
                                                    capsys):
    _assert_input_error(["hochschild", "--bimodule", _deeply_nested(tmp_path),
                         c2_q_file], capsys)


# -- each law runs once per command -------------------------------------------

def test_each_command_runs_each_law_once(tmp_path, law_calls, capsys):
    ext3, coext3 = str(tmp_path / "ext3.json"), str(tmp_path / "coext3.json")
    assert main(["catalog", "--name", "hopf_self_galois", "--n", "3",
                 "-o", ext3]) == 0
    assert main(["catalog", "--name", "self_coextension", "--n", "3",
                 "-o", coext3]) == 0
    mult = json.load(open(ext3))["algebra"]["mult"]
    bim = _bimodule_file(tmp_path, {"dim": 3, "left": mult, "right": mult})
    # a build: 3 algebra + 3 coalgebra + 2 (co)action + 3 for the fixed
    # subalgebra (quotient coalgebra) + 4 entwining + 1 entwined
    # compatibility; then the certificates of a report: for an extension,
    # 2 separability idempotent (centrality, unit image) + 3 conditional
    # expectation (unitality, image, bimodule) + 2 strong pair
    # (expectation-first, expectation-second), the strong pair reusing the
    # split certificate when its phi is the split phi; for a coextension,
    # 2 for the dual's separability idempotent + 3 cotranslation map
    # (action law, contraction law, normalisation).  hochschild: 3 algebra
    # + 3 coalgebra + 2 coaction + 3 fixed subalgebra, and 5 for a
    # bimodule file; a lambda or frakz solve: 3 algebra + 3 coalgebra + 4
    # entwining on the document's entwining, and none on the flip target
    # (or source) of the counit (or unit) morphism.  No law restated by
    # another runs a second time.
    for argv, laws in ((["extension", "report", ext3], 23),
                       (["coextension", "report", coext3], 21),
                       (["solve", "--kind", "lambda", ext3], 10),
                       (["solve", "--kind", "frakz", ext3], 10),
                       (["hochschild", "--n", "1", ext3], 11),
                       (["hochschild", "--n", "1", "--bimodule", bim, ext3],
                        16)):
        law_calls.clear()
        assert main(argv) == 0
        assert len(law_calls) == laws, argv
    capsys.readouterr()


# -- a reader that closes standard output early -------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _run_with_closed_stdout(args, unbuffered):
    """(exit code, stderr) of entwine args in a child process whose
    standard output is a pipe with its read end already closed.  Unbuffered,
    the first write finds the pipe closed; buffered, the final flush."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run([sys.executable, "-m", "entwine.cli", *args],
                               stdout=write_end, stderr=subprocess.PIPE,
                               env=env, timeout=60)
    finally:
        os.close(write_end)
    return child.returncode, child.stderr.decode()


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_keeps_the_commands_exit_code(unbuffered):
    assert _run_with_closed_stdout(
        ["catalog", "--name", "hopf_self_galois", "--n", "2"],
        unbuffered) == (0, "")
    assert _run_with_closed_stdout(["--help"], unbuffered) == (0, "")


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_keeps_a_failing_exit_code(tmp_path, c2_q_file,
                                                   unbuffered):
    doc = json.load(open(c2_q_file))
    doc["psi"][0][0] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert _run_with_closed_stdout(["check", str(bad)],
                                   unbuffered) == (1, "")
