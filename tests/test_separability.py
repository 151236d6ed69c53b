import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entwine import (Algebra, Coalgebra, GF, LinMap, QQ, Subspace, WitnessKind,
                     build_galois, check_coseparable,
                     check_separable, check_split, check_strongly_separable,
                     kron, make_example, quotient_coalgebra,
                     separability_from_integral,
                     split_from_integral_map, solve_witness)
from entwine.separability import (STRATEGIES, expectation_violations,
                                  phi_from_expectation, right_free_basis,
                                  verify_strong, verify_idempotent)
from entwine import separability
from entwine.entwining import counit_morphism
from entwine.errors import (CheckFailure, DomainError, InconsistencyError,
                            InputError)
from entwine.linalg import compose_all, invert
from entwine.witness import (Witness, as_witness, check_witness,
                             integrability_system, lambda_witness)

import oracle


def q(x):
    return Fraction(x)


def test_separability_certificate(c2_q):
    cert = check_separable(c2_q)
    assert cert is not None
    reps = c2_q.square.section.apply(cert.u)
    assert reps == (Fraction(1, 2), 0, 0, Fraction(1, 2))
    assert not verify_idempotent(c2_q, cert.u)


def test_separability_from_integral_explicit(c2_q):
    z = as_witness(WitnessKind.INTEGRAL, c2_q.ent,
                   (Fraction(1, 2), Fraction(1, 2), q(0), q(0)), True)
    cert = separability_from_integral(c2_q, z)
    assert cert.source_integral is z


def test_failed_witnesses_are_domain_errors(c2_q):
    """A well-formed witness that fails its identities is a DomainError, as
    in as_witness, whichever certificate it was meant to build."""
    ones = (q(1),) * 4
    z = Witness(WitnessKind.INTEGRAL, c2_q.ent, ones, True)
    with pytest.raises(DomainError, match="normalisation"):
        separability_from_integral(c2_q, z)
    gamma = Witness(WitnessKind.INTEGRAL_MAP, c2_q.ent, ones * 2, True)
    with pytest.raises(DomainError, match="witness identities"):
        split_from_integral_map(c2_q, gamma)


def _plus_one(f, vec):
    """vec with one added to its first entry."""
    return (f.add(vec[0], f.one),) + tuple(vec[1:])


def _perturbed_idempotent(g, monkeypatch):
    z = _plus_one(g.field, check_separable(g).source_integral.value)
    return (verify_idempotent(g, g.can_inv.apply(z)),
            lambda: separability._separability_certificate(
                g, Witness(WitnessKind.INTEGRAL, g.ent, z, True)))


def _perturbed_expectation(g, monkeypatch):
    phi = check_split(g)[0].phi
    phi = LinMap.from_flat(g.field, phi.domain, phi.codomain,
                           _plus_one(g.field, phi.flat()))
    expectation = compose_all(g.alg.mult, kron(g.alg.identity(), phi), g.rho_a)
    return (expectation_violations(g, expectation),
            lambda: separability.expectation_from_phi(g, phi))


def _perturbed_strong_pair(g, monkeypatch):
    cert = check_strongly_separable(g).certificate
    u = _plus_one(g.field, cert.separability.u)
    found = separability.check_separable
    monkeypatch.setattr(separability, "check_separable",
                        lambda ext: found(ext).replace(u=u))
    return (verify_strong(g, u, cert.split.expectation, cert.tau),
            lambda: check_strongly_separable(g))


def _perturbed_lambda(g, monkeypatch):
    mor = counit_morphism(g.ent)
    system, _ = integrability_system(mor)
    x = _plus_one(g.field, system.solve().particular)
    return system.violations(x), lambda: lambda_witness(mor, x)


@pytest.mark.parametrize("perturb, error, subject, law", [
    (_perturbed_idempotent, InconsistencyError, "separability idempotent",
     "centrality"),
    (_perturbed_expectation, InconsistencyError, "conditional expectation",
     "unitality"),
    (_perturbed_strong_pair, InconsistencyError, "strong pair",
     "expectation-first"),
    (_perturbed_lambda, DomainError, "candidate for the lambda identities",
     "module map"),
], ids=["idempotent", "expectation", "strong pair", "lambda candidate"])
def test_a_perturbed_certificate_fails_a_named_law(c2_q, monkeypatch, perturb,
                                                   error, subject, law):
    """The checker lists CheckFailure records, the first naming the law, and
    the error raised through CheckReport.require prints all of them."""
    failures, build = perturb(c2_q, monkeypatch)
    assert all(isinstance(x, CheckFailure) for x in failures)
    assert failures[0].law == law
    with pytest.raises(error) as err:
        build()
    message = f"{subject}: FAIL " + "; ".join(map(repr, failures))
    assert str(err.value) == message
    assert message.startswith(f"{subject}: FAIL {law} fails at basis index (")
    if error is DomainError:
        assert err.value.witness == failures[0]


def test_trivial_extension_separable():
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 1}).payload
    cert = check_separable(ext)
    assert cert is not None
    assert ext.square.section.apply(cert.u) == (q(1),)


def test_mod2_not_separable(c2_f2):
    assert check_separable(c2_f2) is None


def test_split_family(c2_q):
    result = check_split(c2_q)
    assert result is not None
    cert, family = result
    assert family.homogeneous.dim == 1
    # phi(1) = 1 forced; phi(s) free along s
    assert cert.phi.column(0) == (q(1), q(0))
    member = [q(0)] * 4
    member[0] = q(1)          # phi(1) = 1
    member[2 + 1] = q(7)      # phi(s) = 7 s
    assert family.contains(tuple(member))


def test_split_mod2_still_feasible(c2_f2):
    result = check_split(c2_f2)
    assert result is not None
    _, family = result
    _ = GF(2)
    member = [0] * 4
    member[0] = 1
    member[3] = 1
    assert family.contains(tuple(member))


def test_expectation_reconstruction_invariant(c2_q):
    cert, family = check_split(c2_q)
    phi2 = phi_from_expectation(c2_q, cert.expectation)
    vec = tuple(x for row in phi2.entries for x in row)
    assert family.contains(vec)


def test_split_from_integral_map(c2_q):
    gam_sol = solve_witness(WitnessKind.INTEGRAL_MAP, c2_q.ent, True)
    gamma = as_witness(WitnessKind.INTEGRAL_MAP, c2_q.ent, gam_sol.particular,
                       True)
    cert = split_from_integral_map(c2_q, gamma)
    # the delta-pattern integral map gives the coefficient-of-1 projection
    assert cert.expectation.entries == ((q(1), q(0)), (q(0), q(0)))
    # a shifted member still satisfies the split conditions
    f = QQ
    shifted_vec = tuple(f.add(a, b) for a, b in
                        zip(gam_sol.particular, gam_sol.homogeneous.basis[0]))
    shifted = as_witness(WitnessKind.INTEGRAL_MAP, c2_q.ent, shifted_vec, True)
    cert2 = split_from_integral_map(c2_q, shifted)
    assert cert2.phi.cols == 2


def test_trivial_extension_split():
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 1}).payload
    cert, _ = check_split(ext)
    assert cert.expectation.equals(LinMap.identity(QQ, (1,)))


def test_strong_fixed_integral(c2_q):
    out = check_strongly_separable(c2_q, "fixed_integral")
    assert out.found
    assert out.certificate.tau == Fraction(1, 2)
    # phi is forced to kill the non-identity group element
    assert out.certificate.split.phi.column(1) == (q(0), q(0))
    assert not verify_strong(c2_q, out.certificate.separability.u,
                             out.certificate.split.expectation,
                             out.certificate.tau)


def test_strong_trivial_extension():
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 1}).payload
    out = check_strongly_separable(ext, "fixed_integral")
    assert out.found and out.certificate.tau == q(1)


def test_strong_identities_reject_a_wrong_tau(c2_q):
    base = check_strongly_separable(c2_q, "fixed_integral").certificate
    assert base.tau == Fraction(1, 2)
    assert verify_strong(c2_q, base.separability.u, base.split.expectation,
                         q(3))


def test_only_the_listed_strategies_are_accepted(c2_q):
    assert STRATEGIES == ("fixed_integral", "search")
    for strategy in STRATEGIES:
        assert check_strongly_separable(c2_q, strategy).found
    for strategy in ("given", "Search", ""):
        with pytest.raises(InputError, match="unknown strategy"):
            check_strongly_separable(c2_q, strategy)


def dihedral_homogeneous_space(field, m=3):
    """k[D_m] -> k[D_m]/K+k[D_m] for K = {1, s}: the group algebra, the
    quotient of the group coalgebra by span{(s - 1) h}, and the coaction
    (1 (x) pi) Delta.  Basis element r^i s^a sits at index i + m a."""
    n = 2 * m
    one, zero = field.one, field.zero

    def index(i, a):
        return i % m + m * (a % 2)
    product = {(index(i, a), index(k, b)): index(i + (-1) ** a * k, a + b)
               for i in range(m) for a in range(2)
               for k in range(m) for b in range(2)}
    rows = [[one if product[x, y] == out else zero
             for x in range(n) for y in range(n)] for out in range(n)]
    alg = Algebra(n, LinMap.from_rows(field, (n, n), (n,), rows),
                  tuple(one if t == 0 else zero for t in range(n)))
    comult = LinMap.from_rows(field, (n,), (n, n),
                              [[one if t == x * n + x else zero
                                for x in range(n)] for t in range(n * n)])
    coalg = Coalgebra(n, comult, (one,) * n)
    s = index(0, 1)
    spanners = []
    for h in range(n):
        v = [zero] * n
        v[product[s, h]] = field.add(v[product[s, h]], one)
        v[h] = field.sub(v[h], one)
        spanners.append(tuple(v))
    quot, pi = quotient_coalgebra(coalg, Subspace.from_vectors(field, (n,),
                                                               spanners))
    return alg, quot, kron(alg.identity(), pi).compose(comult)


def in_random_bases(field, alg, coalg, rho, rng):
    """(alg, coalg, rho) transported along seeded random changes of basis
    P of A and Q of C."""
    def random_invertible(n):
        while True:
            m = LinMap.from_rows(field, (n,), (n,),
                                 [[field.of_int(rng.randint(-2, 2))
                                   for _ in range(n)] for _ in range(n)])
            try:
                return m, invert(m)
            except InputError:
                continue
    p, p_inv = random_invertible(alg.dim)
    c, c_inv = random_invertible(coalg.dim)
    return (Algebra(alg.dim, compose_all(p_inv, alg.mult, kron(p, p)),
                    p_inv.apply(alg.unit)),
            Coalgebra(coalg.dim, compose_all(kron(c_inv, c_inv), coalg.comult, c),
                      coalg.counit_map().compose(c).flat()),
            compose_all(kron(p_inv, c_inv), rho, p))


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
def test_fixed_integral_says_no_only_for_a_unique_integral(field):
    # the homogeneous space has a one-dimensional family of normalised
    # integrals, and whether the particular one couples to some phi depends
    # on the basis; a basis where it does not must not answer "no"
    outcomes = []
    for seed in range(8):
        data = in_random_bases(field, *dihedral_homogeneous_space(field),
                               random.Random(seed))
        ext = build_galois(*data)
        out = check_strongly_separable(ext, "fixed_integral")
        assert out.separability.family.homogeneous.dim == 1
        assert out.found or out.inconclusive, (seed, out.note)
        if out.found:
            cert = out.certificate
            assert verify_strong(ext, cert.separability.u,
                                 cert.split.expectation, cert.tau) == []
        else:
            assert "dimension 1" in out.note
        outcomes.append(out.found)
    assert not all(outcomes)


def search_agrees_with_fixed_integral(ext):
    """The search outcome, after checking that wherever fixed_integral
    couples, search (which tries the particular integral first) answers
    with the very same certificate."""
    fixed = check_strongly_separable(ext, "fixed_integral")
    out = check_strongly_separable(ext, "search")
    if fixed.found:
        assert out.certificate == fixed.certificate
    return out


def test_search_returns_the_fixed_integral_certificate_over_q():
    # seeds 0-5 hold the three bases (2, 4, 5) where fixed_integral couples
    # in the D3 loop over Q
    for seed in range(6):
        data = in_random_bases(QQ, *dihedral_homogeneous_space(QQ),
                               random.Random(seed))
        out = search_agrees_with_fixed_integral(build_galois(*data))
        assert out.found or out.inconclusive, seed


@pytest.mark.parametrize("field", [GF(3), GF(5), GF(7)], ids=str)
@pytest.mark.parametrize("m, bases", [(3, 8), (4, 4)], ids=["D3", "D4"])
def test_search_decides_small_prime_fields(field, m, bases):
    # over GF(p) the normalised-integral family of these homogeneous spaces
    # (nullity at most 1) is enumerated whole, so the answer is exact and
    # cannot depend on the basis
    found, other_integral = set(), []
    for seed in range(bases):
        data = in_random_bases(field, *dihedral_homogeneous_space(field, m),
                               random.Random(seed))
        ext = build_galois(*data)
        out = (search_agrees_with_fixed_integral(ext) if m == 3
               else check_strongly_separable(ext, "search"))
        assert not out.inconclusive, (seed, out.note)
        found.add(out.found)
        if out.found:
            cert = out.certificate
            assert verify_strong(ext, cert.separability.u,
                                 cert.split.expectation, cert.tau) == []
            z = cert.separability.source_integral.value
            if z != out.separability.source_integral.value:
                assert check_witness(WitnessKind.INTEGRAL, ext.ent, z) == []
                assert verify_idempotent(ext, cert.separability.u) == []
                other_integral.append(seed)
    assert len(found) == 1
    if (m, field) == (3, GF(5)):
        # a basis where only a member other than the particular one couples
        assert 1 in other_integral


def test_report_text_line_says_inconclusive(tmp_path, capsys):
    # D3 over Q in basis seed 0: the particular integral does not couple,
    # so the default strategy leaves strong separability undecided, and the
    # text line must say so just as --json does
    import json
    from entwine import schema
    from entwine.cli import main
    ext = build_galois(*in_random_bases(QQ, *dihedral_homogeneous_space(QQ),
                                        random.Random(0)))
    path, out = tmp_path / "d3.json", tmp_path / "report.json"
    path.write_text(schema.dumps(schema.entwining_document(ext.ent, ext.rho_a)))
    # one run prints the text lines and writes the --json report to out
    assert main(["extension", "report", str(path), "-o", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    strong = json.loads(out.read_text())["strong"]
    assert (strong["found"], strong["inconclusive"]) == (False, True)
    assert "strong: {found: false, tau: null, inconclusive: true}" in printed


def test_search_tries_a_unique_integral_alone(monkeypatch):
    # a unique normalised integral (k = 0) is the whole family, so search
    # makes the one coupled solve fixed_integral makes and builds no
    # coefficient grid, however large the field
    from entwine import separability
    from entwine.fields import Field
    field = GF(2 ** 61 - 1)
    ext = make_example("hopf_self_galois", {"field": field, "n": 3}).payload
    tried = []
    coupled = separability.coupled_system
    of_int = Field.of_int

    def counted(g, zvec, equations):
        tried.append(zvec)
        return coupled(g, zvec, equations)

    def bounded_of_int(self, n):
        # a grid over all of GF(p) calls this p times: stop it early
        assert n < 1000, "a coefficient grid over the field is being built"
        return of_int(self, n)
    monkeypatch.setattr(separability, "coupled_system", counted)
    monkeypatch.setattr(Field, "of_int", bounded_of_int)
    out = check_strongly_separable(ext, "search")
    assert out.found and not out.inconclusive
    assert field.mul(out.certificate.tau, 3) == field.one
    assert tried == [out.separability.source_integral.value]


@pytest.mark.parametrize("field, m, seed, cap, note", [
    (GF(2), 3, 1, 1, "only it was tried"),
    (GF(7), 4, 0, 2, "any of the 2 normalised integrals tried"),
    (QQ, 3, 0, 2, "any of the 2 normalised integrals tried")],
    ids=["F2-D3", "F7-D4", "Q-D3"])
def test_search_makes_at_most_the_capped_number_of_solves(monkeypatch, field,
                                                          m, seed, cap, note):
    # the whole family over GF(2) and GF(7) couples only at its last member
    # (2 and 7 solves uncapped), and over Q the grid (0, 1, -1) couples at
    # none; with the cap below the family's size, search stops at the cap
    # and leaves the answer undecided, in every field
    from entwine import separability
    ext = build_galois(*in_random_bases(
        field, *dihedral_homogeneous_space(field, m), random.Random(seed)))
    tried = []
    coupled = separability.coupled_system

    def counted(g, zvec, equations):
        tried.append(zvec)
        return coupled(g, zvec, equations)
    monkeypatch.setattr(separability, "coupled_system", counted)
    monkeypatch.setattr(separability, "SEARCH_ENUMERATION_CAP", cap)
    out = check_strongly_separable(ext, "search")
    assert len(tried) == cap
    assert out.inconclusive and not out.found
    assert note in out.note


def test_report_names_the_integral_search_coupled_on():
    # D3 over GF(5), basis seed 1: search couples on an integral other than
    # the particular one, and the report's (strong_integral, strong_phi, tau)
    # re-verify from the JSON alone
    import json
    from entwine import schema
    from entwine.cli import extension_report
    from entwine.separability import expectation_from_phi
    field = GF(5)
    ext = build_galois(*in_random_bases(field, *dihedral_homogeneous_space(field),
                                        random.Random(1)))
    blob = json.loads(schema.dumps(extension_report(ext, "search")))
    certs = blob["certificates"]
    z = tuple(field.parse(x) for x in certs["strong_integral"])
    assert z != tuple(field.parse(x) for x in certs["integral"])
    assert check_witness(WitnessKind.INTEGRAL, ext.ent, z, True) == []
    phi = schema.parse_matrix(field, certs["strong_phi"], (ext.coalg.dim,),
                              (ext.alg.dim,), "strong phi")
    tau = field.parse(blob["strong"]["tau"])
    assert verify_strong(ext, ext.can_inv.apply(z),
                         expectation_from_phi(ext, phi), tau) == []
    # the default strategy couples on the reported integral or not at all
    assert "strong_integral" not in extension_report(
        ext, "fixed_integral")["certificates"]


def test_strong_search_strategy(c2_q):
    out = check_strongly_separable(c2_q, "search")
    assert out.found
    assert out.certificate.tau == Fraction(1, 2)
    assert not out.inconclusive


def test_strong_absent_mod2(c2_f2):
    for strategy in ("fixed_integral", "search"):
        out = check_strongly_separable(c2_f2, strategy)
        assert not out.found
        assert not out.inconclusive  # not separable at all, a hard absence


def test_strong_outcome_order_independent(c2_q):
    # the verification outcome depends only on the pair (u, E)
    base = check_strongly_separable(c2_q, "fixed_integral").certificate
    violations = verify_strong(c2_q, base.separability.u,
                               base.split.expectation, base.tau)
    assert violations == []


@pytest.mark.parametrize("name", ["c2_q", "c2_f2"])
def test_expectation_image_witness_is_the_first_column_outside_b(name,
                                                                 request):
    g = request.getfixturevalue(name)
    f, n = g.field, g.alg.dim
    expectation = check_split(g)[0].expectation
    units = [tuple(f.one if i == r else f.zero for i in range(n))
             for r in range(n)]
    r = next(r for r in range(n) if not g.fixed.contains(units[r]))

    def image_violations(e):
        return [v for v in expectation_violations(g, e) if v.law == "image"]
    assert image_violations(expectation) == []
    for j in range(n):
        # column j moved out of B by e_r; the columns before it stay in B
        rows = [list(row) for row in expectation.entries]
        rows[r][j] = f.add(rows[r][j], f.one)
        moved = LinMap.from_rows(f, (n,), (n,), rows)
        assert image_violations(moved) == [CheckFailure("image", (j,))]


def test_free_basis_heuristic(c2_q, c2_f2):
    assert right_free_basis(c2_q) is not None
    assert right_free_basis(c2_f2) is not None


def test_coseparable_self_coextension(coext_q):
    cert = check_coseparable(coext_q)
    assert cert is not None
    # upsilon is the diagonal-detecting functional on the cotensor square
    assert cert.upsilon == (q(1), q(0), q(0), q(1))


def test_coseparable_dim_one():
    entry = make_example("self_coextension", {"field": QQ, "n": 1})
    cert = check_coseparable(entry.payload)
    assert cert is not None


def test_coseparable_absent_mod2_dual():
    entry = make_example("self_coextension", {"field": GF(2), "n": 2,
                                              "dual": True})
    assert check_coseparable(entry.payload) is None


def test_coseparable_dual_infeasibility_oracle():
    # the function-algebra self-coextension forces y constant in its second
    # index and 2 y = 1 on the unit row: assemble by hand and row-reduce
    rows = []
    n = 2
    for p in range(n):
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                row[((p + i) % n) * n + j] += 1
                row[((p + i) % n) * n + (p + j) % n] -= 1
                if any(row):
                    rows.append(row)
    nrows, rhs = [], []
    for i in range(n):
        row = [0] * (n * n)
        for j in range(n):
            row[i * n + j] = 1
        nrows.append(row)
        rhs.append(1 if i == 0 else 0)
    part2, _ = oracle.solve(rows + nrows, [0] * len(rows) + rhs, p=2)
    assert part2 is None
    part_q, _ = oracle.solve(rows + nrows, [0] * len(rows) + rhs)
    assert part_q is not None


@settings(max_examples=20, deadline=None)
@given(st.integers(-4, 4))
def test_every_phi_family_member_gives_expectation(coeff):
    # any member of the split solution family rebuilds into a verified
    # conditional expectation, and tau extraction stays consistent
    from entwine.separability import _phi_as_map, expectation_from_phi
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 2}).payload
    _, family = check_split(ext)
    member = list(family.particular)
    for h in family.homogeneous.basis:
        for j, x in enumerate(h):
            member[j] = member[j] + q(coeff) * x
    phi = _phi_as_map(ext, tuple(member))
    expectation_from_phi(ext, phi)  # raises on any violated condition


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 4))
def test_tau_is_inverse_group_order(n):
    # over the rationals every cyclic self-extension is strongly separable
    # with coupling scalar 1/n
    ext = make_example("hopf_self_galois", {"field": QQ, "n": n}).payload
    out = check_strongly_separable(ext, "fixed_integral")
    assert out.found
    assert out.certificate.tau == Fraction(1, n)


def test_extension_report_solves_each_system_once(monkeypatch):
    from entwine import separability, witness
    from entwine.cli import extension_report
    from entwine.linalg import LinearConstraints
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 3}).payload
    tagged = []                     # (system, name), kept alive while counting
    builds = {"integral": 0, "split": 0}
    solves = {"integral": 0, "split": 0}
    build_witness_system = witness.witness_system
    build_split_system = separability.split_system
    solve = LinearConstraints.solve

    def counted_witness_system(kind, e, normalized):
        system = build_witness_system(kind, e, normalized)
        if kind == WitnessKind.INTEGRAL:
            builds["integral"] += 1
            tagged.append((system, "integral"))
        return system

    def counted_split_system(g):
        system = build_split_system(g)
        builds["split"] += 1
        tagged.append((system, "split"))
        return system

    def counted_solve(self):
        for system, name in tagged:
            if system is self:
                solves[name] += 1
        return solve(self)
    monkeypatch.setattr(witness, "witness_system", counted_witness_system)
    monkeypatch.setattr(separability, "split_system", counted_split_system)
    monkeypatch.setattr(LinearConstraints, "solve", counted_solve)
    report = extension_report(ext, "fixed_integral")
    assert report["strong"]["found"]
    # each system is solved once, and each certificate drawn from it is
    # re-checked on the system that was solved
    assert solves == {"integral": 1, "split": 1}
    assert builds["split"] == 1


def test_extension_report_builds_and_solves_each_certificate_once(monkeypatch):
    import inspect
    from entwine import separability, witness
    from entwine.cli import extension_report
    from entwine.linalg import SCALAR, LinearConstraints
    assert "integral" not in inspect.signature(check_separable).parameters
    assert "solved" not in inspect.signature(check_strongly_separable).parameters
    ext = make_example("hopf_self_galois", {"field": QQ, "n": 3}).payload
    n_phi_tau = ext.alg.dim * ext.coalg.dim + 1
    tagged = []                     # (system, name), kept alive while counting
    builds = {"integral": 0, "split": 0}
    solves = {"integral": 0, "split": 0, "phi_tau": 0}
    build_witness_system = witness.witness_system
    build_split_system = separability.split_system
    solve = LinearConstraints.solve

    def counted_witness_system(kind, e, normalized):
        system = build_witness_system(kind, e, normalized)
        if kind == WitnessKind.INTEGRAL:
            builds["integral"] += 1
            tagged.append((system, "integral"))
        return system

    def counted_split_system(g):
        system = build_split_system(g)
        builds["split"] += 1
        tagged.append((system, "split"))
        return system

    def counted_solve(self):
        for system, name in tagged:
            if system is self:
                solves[name] += 1
        if self.x_dom == SCALAR and self.x_cod == (n_phi_tau,):
            solves["phi_tau"] += 1
        return solve(self)
    monkeypatch.setattr(witness, "witness_system", counted_witness_system)
    monkeypatch.setattr(separability, "witness_system", counted_witness_system,
                        raising=False)
    monkeypatch.setattr(separability, "split_system", counted_split_system)
    monkeypatch.setattr(LinearConstraints, "solve", counted_solve)
    report = extension_report(ext, "fixed_integral")
    assert report["strong"]["found"] and report["strong"]["tau"] == "1/3"
    assert builds == {"integral": 1, "split": 1}
    assert solves == {"integral": 1, "split": 1, "phi_tau": 1}


def test_strong_outcome_carries_separability_and_split(c2_q, c2_f2):
    out = check_strongly_separable(c2_q, "fixed_integral")
    assert out.separability == check_separable(c2_q)
    family = out.separability.family          # the unique normalised integral
    assert family.homogeneous.dim == 0
    assert family.particular == out.separability.source_integral.value
    assert out.split == check_split(c2_q)
    # fixed_integral reuses the separability certificate it was handed
    assert out.certificate.separability is out.separability
    for strategy in ("fixed_integral", "search"):
        out = check_strongly_separable(c2_f2, strategy)
        assert out.separability is None and out.note == "not separable"
        assert out.split == check_split(c2_f2)
