"""Expected basis-invariant answers, per catalog family and field class.

Keys are "<slot>/<field class>", where the field class is "Q", "p|n" (a
prime dividing the group order) or "p∤n" (a prime that does not).  An entry
holds for every prime of its class: `selftest.py` cross-checks each entry
against catalog-basis runs for every prime in the class, and the benchmark
compares every answer it receives, in whatever basis, against it.

Where a theorem gives an entry it is cited next to it; the other entries
(the solution-family dimensions, and which strategy finds a strong
certificate) are taken from catalog-basis runs and cross-checked as above.
"""

# ---------------------------------------------------------------------------
# extension and coextension reports (reports_dense)


def _ext(n, fixed, separable, h1, phi_dim, coalg=None):
    return {"dims": {"algebra": n, "coalgebra": coalg or n,
                     "fixed_subalgebra": fixed},
            "separable": separable,
            # B is split by a unital B-bimodule projection A -> B; for B = k
            # any unital functional does (the counit, for Hopf data)
            "split": True,
            # rho(1) = 1 (x) 1 for Hopf-Galois data: 1 is group-like
            "copointed": True,
            "h1_dim": h1,
            # strong separability implies separability; when separable the
            # fixed_integral strategy finds tau (catalog-basis runs)
            "strong_found": separable,
            "phi_family_dim": phi_dim}


def _coext(n, coseparable):
    return {"dims": {"coalgebra": n, "algebra": n, "coideal": n - 1,
                     "base": 1},
            "coseparable": coseparable, "pointed": True}


REPORTS = {}

# hopf_self_galois: A = C = k[C_n] coacting on itself, B = A^coC = k.
# Separable iff char k does not divide n (Maschke).  A is commutative, so
# H^1(A, A) relative to k is Der(A); on k[x]/(x^n - 1) a derivation is fixed
# by D(x) subject to n x^(n-1) D(x) = 0, so H^1 = 0 when char k does not
# divide n and H^1 = A (dimension n) when it does.
for _n in (2, 3, 4, 5):
    REPORTS[f"hsg-n{_n}/Q"] = _ext(_n, 1, True, 0, _n - 1)
    REPORTS[f"hsg-n{_n}/p∤n"] = _ext(_n, 1, True, 0, _n - 1)
    REPORTS[f"hsg-n{_n}/p|n"] = _ext(_n, 1, False, _n, _n - 1)

# Sweedler's four-dimensional Hopf algebra (char k != 2) is not semisimple:
# its integral (1 + s)t has counit 0 (Larson-Sweedler), so the extension
# k -> H is not separable.  H^1 = 1 from catalog-basis runs.
REPORTS["hsg-sweedler/Q"] = _ext(4, 1, False, 1, 3)
REPORTS["hsg-sweedler/p∤n"] = _ext(4, 1, False, 1, 3)

# hopf_quotient_galois n=4, d=2: B = k[C_2] inside A = k[C_4], C = A/(B^+ A).
# Separable iff the index [C_4 : C_2] = 2 is invertible in k (relative
# Maschke, D. G. Higman 1954, for the positive direction; the negative one
# and H^1 = 4 are from catalog-basis runs).
REPORTS["hqg-n4-d2/Q"] = _ext(4, 2, True, 0, 2, coalg=2)
REPORTS["hqg-n4-d2/p∤n"] = _ext(4, 2, True, 0, 2, coalg=2)
REPORTS["hqg-n4-d2/p|n"] = _ext(4, 2, False, 4, 2, coalg=2)

# self_coextension: C = k[C_n] as a coalgebra of group-likes, acted on by
# A = k[C_n].  A coalgebra spanned by group-likes is cosemisimple in every
# characteristic, so the coextension is coseparable for every p.
REPORTS["coext-n2/Q"] = _coext(2, True)
for _n in (3, 4):
    REPORTS[f"coext-n{_n}/Q"] = _coext(_n, True)
    REPORTS[f"coext-n{_n}/p∤n"] = _coext(_n, True)
REPORTS["coext-n4/p|n"] = _coext(4, True)

# dual=True: C = k^(C_n), the dual of k[C_n], is cosemisimple iff k[C_n] is
# semisimple, i.e. iff char k does not divide n (Maschke, dualised).
for _n in (3, 4):
    REPORTS[f"coext-dual-n{_n}/Q"] = _coext(_n, True)
    REPORTS[f"coext-dual-n{_n}/p|n"] = _coext(_n, False)


# ---------------------------------------------------------------------------
# functor-level systems (functor_systems), catalog-basis hopf_self_galois

# Keys are "<field class>/n<order>/<ask>".  lambda (counit) and frakz (unit)
# have an (n-1)-dimensional solution family, as do the integral and
# cointegral maps; lambda (unit) and frakz (counit) are unique when they
# exist.  frakz along the counit exists iff char k does not divide n, like
# the normalised integral it pulls back to (Maschke).  For A = k[x]/(f), the
# Hochschild groups in positive degree are 0 when f is separable and A (of
# dimension n) when f' = 0, i.e. when char k divides n.  The shapes of the
# adjunction maps and of nu are (domain, codomain) dimensions.  Entries not
# derived this way are catalog-basis runs, cross-checked over every prime
# of the class.


def _functors(n, p_divides):
    out = {"lambda/counit": {"feasible": True, "nullity": n - 1},
           "frakz/counit": ({"feasible": False, "nullity": n} if p_divides
                            else {"feasible": True, "nullity": 0}),
           "nu/counit": {"shape": [n * n, n]},
           "lambda/unit": {"feasible": True, "nullity": 0},
           "frakz/unit": {"feasible": True, "nullity": n - 1},
           "nu/unit": {"shape": [n * n, n]},
           "adjunction/counit": {"unit": [n * n, n ** 3],
                                 "counit": [n * n, n]},
           "adjunction/unit": {"unit": [n, n * n],
                               "counit": [n ** 3, n * n]},
           "integral-map": {"feasible": True, "nullity": n - 1},
           "cointegral-map": {"feasible": True, "nullity": n - 1},
           "H2": {"h2_dim": n if p_divides else 0}}
    return out


FUNCTORS = {}
for _label, _n in (("Q", 2), ("Q", 3), ("p|n", 2), ("p|n", 3), ("p∤n", 4)):
    for _ask, _answer in _functors(_n, _label == "p|n").items():
        FUNCTORS[f"{_label}/n{_n}/{_ask}"] = _answer


# ---------------------------------------------------------------------------
# command line (cli_batch): key -> (exit code, required stdout parts); a
# dict part names JSON paths in the --json output.

_q2, _p2 = REPORTS["hsg-n2/Q"], REPORTS["hsg-n2/p|n"]
_p3, _cq2 = REPORTS["hsg-n3/p∤n"], REPORTS["coext-n2/Q"]
_cp3 = REPORTS["coext-n3/p∤n"]


def _said(flag):
    return str(flag).lower()


CLI = {
    "check": (0, ["algebra: ok", "coalgebra: ok", "entwining: ok"]),
    # a normalised integral exists iff the extension is separable
    "solve/integral/ext_q2": (0, ["integral: found; solution family "
                                  "dimension 0"]),
    "solve/integral/ext_p2": (1, ["integral: infeasible"]),
    "solve/cointegral/coext_q2": (0, ["cointegral: found"]),
    "solve/integral-map/ext_p3": (0, ["integral_map: found; solution family "
                                      "dimension 2"]),
    "solve/cointegral-map/ext_q2": (0, [{"witness.kind": "cointegral_map",
                                         "family.feasible": True,
                                         "family.homogeneous_dim": 1}]),
    "solve/lambda/ext_q2": (0, ["lambda: found; solution family dimension "
                                "%d" % FUNCTORS["Q/n2/lambda/counit"]
                                ["nullity"]]),
    "solve/frakz/ext_q2": (0, ["frakz: found; solution family dimension "
                               "%d" % FUNCTORS["Q/n2/frakz/counit"]
                               ["nullity"]]),
    "report/ext_q2": (0, [f"separable: {_said(_q2['separable'])}",
                          f"split: {_said(_q2['split'])}",
                          f"hochschild H1: {_q2['h1_dim']}"]),
    "report/ext_p2": (0, [{"separable": _p2["separable"],
                           "split": _p2["split"],
                           "copointed": _p2["copointed"],
                           "hochschild.h1_dim": _p2["h1_dim"]}]),
    "report/ext_p3": (0, [f"separable: {_said(_p3['separable'])}",
                          f"split: {_said(_p3['split'])}",
                          f"hochschild H1: {_p3['h1_dim']}"]),
    "report/coext_q2": (0, [f"coseparable: {_said(_cq2['coseparable'])}",
                            f"pointed: {_said(_cq2['pointed'])}"]),
    "report/coext_p3": (0, [{"coseparable": _cp3["coseparable"],
                             "pointed": _cp3["pointed"]}]),
    # H^0 is the centraliser of B = k in the commutative A: all of A
    "hochschild/0/ext_p3": (0, ["H^0 dimension: 3"]),
    "hochschild/1/ext_p2": (0, [f"H^1 dimension: {_p2['h1_dim']}"]),
    "hochschild/2/ext_q2": (0, ["H^2 dimension: %d"
                                % FUNCTORS["Q/n2/H2"]["h2_dim"]]),
    "catalog": (0, [{"schema": "entwine/1"}]),
    # every malformed document must end with exit code 2
    "malformed": (2, []),
}
