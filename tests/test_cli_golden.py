"""Golden command-line outputs: every README subcommand on small catalog
documents, and the reports on committed documents whose structure constants
have denominators other than 1 (tests/golden/docs, written by
tests/golden/rational_docs.py), must print byte-identical stdout with the
same exit code.

The golden file was written by the solver this suite guards; rewrite it
only for an intended output change, by running this file as a script:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from entwine.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")

# catalog documents, n <= 3, over Q and GF(p): stem -> catalog argv
DOCS = {
    "ext_q2": ["--name", "hopf_self_galois", "--n", "2", "--field", "Q"],
    "ext_f2": ["--name", "hopf_self_galois", "--n", "2", "--field", "Fp",
               "--p", "2"],
    "ext_q3": ["--name", "hopf_self_galois", "--n", "3", "--field", "Q"],
    "ext_f7": ["--name", "hopf_self_galois", "--n", "3", "--field", "Fp",
               "--p", "7"],
    "ext_f3": ["--name", "hopf_self_galois", "--n", "3", "--field", "Fp",
               "--p", "3"],
    "coext_q2": ["--name", "self_coextension", "--n", "2", "--field", "Q"],
    "coext_f7": ["--name", "self_coextension", "--n", "3", "--field", "Fp",
                 "--p", "7"],
    "coext_dual_q3": ["--name", "self_coextension", "--n", "3", "--dual",
                      "--field", "Q"],
}

# committed documents over Q in random rational bases: stem -> path
FIXTURES = {stem: os.path.join(os.path.dirname(__file__), "golden", "docs",
                               f"{stem}.json")
            for stem in ("rat_sweedler_q", "rat_ext_q3", "rat_coext_q3")}

# case name -> argv, with {stem} replaced by the document path
CASES = {
    "catalog_ext_q2": ["catalog"] + DOCS["ext_q2"],
    "catalog_coext_f7": ["catalog"] + DOCS["coext_f7"],
    "catalog_group_algebra_f3": ["catalog", "--name", "group_algebra", "--n",
                                 "3", "--field", "Fp", "--p", "3"],
    "check_ext_q2": ["check", "{ext_q2}"],
    "check_ext_f7": ["check", "{ext_f7}"],
    "check_coext_f7": ["check", "{coext_f7}"],
    "solve_integral_q2": ["solve", "--kind", "integral", "--normalized",
                          "--json", "{ext_q2}"],
    "solve_integral_f2": ["solve", "--kind", "integral", "--normalized",
                          "{ext_f2}"],
    "solve_integral_f3": ["solve", "--kind", "integral", "--json",
                          "{ext_f3}"],
    "solve_cointegral_coext_q2": ["solve", "--kind", "cointegral",
                                  "--normalized", "--json", "{coext_q2}"],
    "solve_cointegral_coext_f7": ["solve", "--kind", "cointegral",
                                  "{coext_f7}"],
    "solve_integral_map_q3": ["solve", "--kind", "integral-map",
                              "--normalized", "--json", "{ext_q3}"],
    "solve_integral_map_f7": ["solve", "--kind", "integral-map", "--json",
                              "{ext_f7}"],
    "solve_cointegral_map_q2": ["solve", "--kind", "cointegral-map",
                                "--normalized", "--json", "{ext_q2}"],
    "solve_cointegral_map_f3": ["solve", "--kind", "cointegral-map",
                                "--json", "{ext_f3}"],
    "solve_lambda_q2": ["solve", "--kind", "lambda", "--json", "{ext_q2}"],
    "solve_lambda_f7": ["solve", "--kind", "lambda", "--json", "{ext_f7}"],
    "solve_lambda_q3": ["solve", "--kind", "lambda", "--json", "{ext_q3}"],
    "solve_lambda_unit_f2": ["solve", "--kind", "lambda", "--morphism",
                             "unit", "{ext_f2}"],
    "solve_frakz_q2": ["solve", "--kind", "frakz", "--json", "{ext_q2}"],
    "solve_frakz_f7": ["solve", "--kind", "frakz", "--json", "{ext_f7}"],
    "solve_frakz_unit_f3": ["solve", "--kind", "frakz", "--morphism", "unit",
                            "--json", "{ext_f3}"],
    "extension_report_q2": ["extension", "report", "{ext_q2}"],
    "extension_report_f2": ["extension", "report", "--json", "{ext_f2}"],
    "extension_report_q3": ["extension", "report", "--json", "{ext_q3}"],
    "extension_report_f3_search": ["extension", "report", "--strategy",
                                   "search", "--json", "{ext_f3}"],
    "extension_report_f7": ["extension", "report", "{ext_f7}"],
    "extension_report_coext": ["extension", "report", "{coext_q2}"],
    "coextension_report_q2": ["coextension", "report", "{coext_q2}"],
    "coextension_report_f7": ["coextension", "report", "--json",
                              "{coext_f7}"],
    "coextension_report_dual_q3": ["coextension", "report", "--json",
                                   "{coext_dual_q3}"],
    "hochschild_0_f7": ["hochschild", "--n", "0", "{ext_f7}"],
    "hochschild_1_f2": ["hochschild", "--n", "1", "{ext_f2}"],
    "hochschild_1_q3": ["hochschild", "--n", "1", "--json", "{ext_q3}"],
    "hochschild_2_q2": ["hochschild", "--n", "2", "{ext_q2}"],
    "hochschild_2_f3": ["hochschild", "--n", "2", "--json", "{ext_f3}"],
    "extension_report_rat_sweedler_q": ["extension", "report", "--json",
                                        "{rat_sweedler_q}"],
    "extension_report_rat_ext_q3": ["extension", "report", "--json",
                                    "{rat_ext_q3}"],
    "extension_report_rat_ext_q3_search": ["extension", "report",
                                           "--strategy", "search", "--json",
                                           "{rat_ext_q3}"],
    "coextension_report_rat_coext_q3": ["coextension", "report", "--json",
                                        "{rat_coext_q3}"],
    "hochschild_2_rat_ext_q3": ["hochschild", "--n", "2", "--json",
                                "{rat_ext_q3}"],
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _outputs(workdir):
    paths = dict(FIXTURES)
    for stem, argv in DOCS.items():
        paths[stem] = os.path.join(workdir, f"{stem}.json")
        assert _run(["catalog"] + argv + ["-o", paths[stem]])["exit"] == 0
    return {name: _run([a.format(**paths) for a in argv])
            for name, argv in CASES.items()}


def test_cli_stdout_matches_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(CASES)
    got = _outputs(str(tmp_path))
    for name in CASES:
        assert got[name] == golden[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        result = _outputs(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(result)} cases to {GOLDEN}", file=sys.stderr)
