"""Named verification suites, shared by the CLI `verify` command and the
acceptance tests.  Each suite returns a Report; suites compose under
`run_suite("all", ...)`.  `run_suite(name)` with no options is exactly
`chainops verify --suite name` at its defaults, and each acceptance
criterion that names a suite runs it that way.

Every exhaustive check is stated the same way: a generator yields
(case, ok) pairs and procedure.first_fail turns them into a Check that
stops at the first case that is not ok and carries it as the
counterexample.  A passing check keeps its name, including the case
counts some names state.

The module imports only the package core, `procedure` and `surjections`,
which every suite uses.  Each suite imports the other families it
checks when it runs: `contracted` the family of each complex it sweeps,
`trpr` `maclane` and `morphisms`, `minimal` the minimal model,
`operads` the operads (and `maclane` for the Barratt-Eccles components),
`morphisms` `maclane`, `morphisms`, `operads` and `action`, `witnesses`
and `action` their own modules.  So one `chainops verify` compiles only
the families its suite needs, and a function sent to a `--jobs` worker
imports what it needs there.  A test that substitutes one of these
functions patches the module that defines it.

Three checks stop at n = 3 or k = 3 whatever the bounds (`trpr`'s
closed-versus-recursive TR, `action`'s vanishing of Phi and `signs`'s
delta count); a lower `--n` or `--max-degree` cuts them there too.  The
`trpr` check's name always states its n bound, and the other two names
state theirs when it is below 3, so default output reads as before.
`contraction_tasks` stops at arity 4 whatever `--n` says: it sweeps the
surjection complexes, N(ESigma_n) and Delta^m to min(max_n, 4), and the
check names list what was swept.
"""

from itertools import product as _product

from .complexes import TensorComplex, boundary, contract
from .elements import add_terms, reduce_terms
from .errors import InvalidInput
from .groups import SymmetricGroup
from .perms import Perm, all_perms, block_perm
from .procedure import Check, Report, StandardMap, first_fail, verify_contracted
from .rings import GF, ZZ
from .surjections import (
    bf_signs,
    caesuras,
    is_clean_gen,
    iso,
    iso_sign,
    ms_signs,
    sign_c,
    sign_delta,
    sign_p,
    surjection_complex,
    tau_f,
)


def _basis(flavor, max_n, max_k):
    """(S^flavor(n), gen) for every basis generator, 2 <= n <= max_n,
    degree <= max_k."""
    for n in range(2, max_n + 1):
        S = surjection_complex(flavor, n)
        for k in range(max_k + 1):
            for gen in S.basis(k):
                yield S, gen


def _tensors(comps, max_degree, ring=ZZ, basis="basis"):
    """(gens, elements) for every tensor of basis generators of the
    factors, total degree <= max_degree."""
    enum = getattr(TensorComplex(comps), basis)
    for D in range(max_degree + 1):
        for gens in enum(D):
            yield gens, [c.el(ring, g) for c, g in zip(comps, gens)]


# -- contraction suite ------------------------------------------------------------


def contracted_suite(max_n=4, max_degree=4, jobs=1):
    """Acceptance criterion 1: the full contraction sweep."""
    if jobs < 1:
        raise InvalidInput(f"jobs must be >= 1, got {jobs}")
    tasks = contraction_tasks(max_n, max_degree)
    checks = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for task_checks in pool.map(run_contraction_task, tasks):
                checks.extend(task_checks)
    else:
        for task in tasks:
            checks.extend(run_contraction_task(task))
    return Report("contraction suite", checks)


def contraction_tasks(max_n, max_degree):
    tasks = []
    for m in range(0, min(max_n, 4) + 1):
        tasks.append(("simplex", m, max_degree))
    for n in range(2, min(max_n, 4) + 1):
        tasks.append(("eg-sym", n, max_degree))
    for n in range(2, 8):
        tasks.append(("eg-cyc", n, max_degree))
    for n in (3, 5, 7):
        tasks.append(("minimal", n, max_degree))
    for flavor in ("aj", "bf", "ms"):
        for n in range(2, min(max_n, 4) + 1):
            tasks.append((f"surj-{flavor}", n, max_degree))
    return tasks


def complex_by_tag(tag, n):
    if tag == "simplex":
        from .simplex import simplex_complex

        return simplex_complex(n)
    if tag == "eg-sym":
        from .maclane import sym_eg

        return sym_eg(n)
    if tag == "eg-cyc":
        from .maclane import cyc_eg

        return cyc_eg(n)
    if tag == "minimal":
        from .minimal import minimal_complex

        return minimal_complex(n)
    if tag.startswith("surj-"):
        return surjection_complex(tag.split("-", 1)[1], n)
    raise InvalidInput(f"unknown complex tag {tag}")


def run_contraction_task(task):
    tag, n, max_degree = task
    cplx = complex_by_tag(tag, n)
    report = verify_contracted(cplx, max_degree)
    return [
        Check(f"{cplx.name}: {c.name}", c.ok, c.counterexample, c.checked)
        for c in report.checks
    ]


# -- golden boundary tables ----------------------------------------------------------


def golden_boundaries_suite():
    checks = []
    x = (2, 1, 2, 3, 4, 2, 3, 1, 5, 4, 1, 2)
    checks.append(
        Check(
            "bf caesura sign table, 12-entry golden case",
            bf_signs(x) == [1, -1, 1, -1, 1, -1, 1, 1, 0, -1, -1, 1],
        )
    )
    dx = boundary(surjection_complex("bf", 5).el(ZZ, x))
    expect = {}
    for j, s in enumerate(bf_signs(x)):
        if s:
            gen = surjection_complex("bf", 5).normalize(x[:j] + x[j + 1 :])
            if gen is not None:
                expect[gen] = s
    checks.append(Check("bf golden boundary terms", dict(dx.terms) == expect))

    y = (2, 1, 2, 4, 2, 3, 1, 4, 1, 2)
    checks.append(
        Check(
            "ms prism sign table, 10-entry golden case",
            ms_signs(y) == [1, 1, -1, -1, 1, -1, -1, 1, 1, -1],
        )
    )
    dy = boundary(surjection_complex("ms", 4).el(ZZ, y))
    checks.append(Check("ms golden boundary has six nonzero terms", len(dy.terms) == 6))
    return Report("golden boundaries", checks)


# -- sign identities -----------------------------------------------------------------


def signs_suite(max_n=4, max_k=4):
    checks = [
        first_fail(
            f"p = c.delta.tau_f (n<={max_n}, k<={max_k})",
            (
                (x, sign_p(x) == sign_c(x) * sign_delta(x) * tau_f(x))
                for _, x in _basis("bf", max_n, max_k)
            ),
        )
    ]

    x = (2, 1, 2, 3, 4, 2, 3, 1, 5, 4, 1, 2)
    checks.append(
        Check(
            "sign functions on the 12-entry golden case",
            (sign_c(x), sign_delta(x), tau_f(x), sign_p(x)) == (1, -1, -1, 1),
        )
    )
    g = (3, 1, 2)
    checks.append(
        Check("degree 0: c=+1, p=tau", sign_c(g) == 1 and sign_p(g) == Perm(g).parity())
    )
    # delta via the caesuras-in-even-blocks count, the interpretation that
    # holds exhaustively (the raw aj/bf sign discrepancy count does not);
    # it stops at k = 3, and its name states a lower --max-degree
    top_k = min(max_k, 3)
    checks.append(
        first_fail(
            "delta = parity of caesuras in even blocks"
            + ("" if top_k == 3 else f" (k<={top_k})"),
            (
                (x, sign_delta(x) == (-1) ** _even_block_caesuras(x))
                for _, x in _basis("bf", max_n, top_k)
            ),
        )
    )
    return Report("sign identities", checks)


def _even_block_caesuras(x):
    caes = set(caesuras(x))
    evens = 0
    in_block = 0
    block_no = 1
    for j in range(1, len(x) + 1):
        if j in caes:
            in_block += 1
        else:
            if block_no % 2 == 0:
                evens += in_block
            in_block = 0
            block_no += 1
    if block_no % 2 == 0:
        evens += in_block
    return evens


# -- isomorphism suite ----------------------------------------------------------------


def _iso_cases(src_fl, dst_fl, max_n, max_k):
    sign_fn = iso_sign(src_fl, dst_fl)
    for n in range(2, max_n + 1):
        A = surjection_complex(src_fl, n)
        B = surjection_complex(dst_fl, n)
        elements = list(SymmetricGroup(n).elements())
        for k in range(0, max_k + 1):
            for gen in A.basis(k):
                xa = A.el(ZZ, gen)
                fwd = iso(src_fl, dst_fl, xa)
                yield ("chain", n, gen), iso(src_fl, dst_fl, boundary(xa)) == boundary(fwd)
                yield ("contraction", n, gen), iso(
                    src_fl, dst_fl, contract(xa)
                ) == contract(fwd)
                yield ("roundtrip", n, gen), iso(dst_fl, src_fl, fwd) == xa
                # equivariance as the scalar identity
                # s(gx) asign_src(g, x) = asign_dst(g, x) s(x)
                for g in elements:
                    (sa, gx), = A.act_terms(g, gen)
                    (sb, _), = B.act_terms(g, gen)
                    yield ("equivariance", n, gen, g), sign_fn(gx) * sa == sb * sign_fn(gen)


def iso_suite(max_n=4, max_k=3):
    checks = [
        first_fail(f"iso {src_fl}->{dst_fl} suite", _iso_cases(src_fl, dst_fl, max_n, max_k))
        for src_fl, dst_fl in (("bf", "ms"), ("aj", "ms"), ("aj", "bf"))
    ]

    def triple():
        for A, gen in _basis("aj", max_n, max_k):
            xa = A.el(ZZ, gen)
            yield (A.n, gen), iso("ms", "aj", iso("bf", "ms", iso("aj", "bf", xa))) == xa

    checks.append(first_fail("aj->bf->ms->aj = Id", triple()))
    return Report("isomorphism suite", checks)


# -- TR / PR suite ----------------------------------------------------------------------


def roundtrip_check(flavor, n, max_degree, ring=ZZ):
    """TR . PR = Id and the fundamental-simplex dichotomy, exhaustively."""
    from .maclane import sym_eg
    from .morphisms import fundamental_simplex, prism_map, prism_terms, table_reduction

    S = surjection_complex(flavor, n)
    gens = [gen for k in range(max_degree + 1) for gen in S.basis(k)]

    def roundtrip():
        for gen in gens:
            x = S.el(ring, gen)
            yield gen, table_reduction(flavor, prism_map(flavor, x)) == x

    def dichotomy():
        E = sym_eg(n)
        for gen in gens:
            fund = fundamental_simplex(gen)
            for _, simplex in prism_terms(gen):
                if E.normalize(simplex) is None:
                    continue
                tr = table_reduction(flavor, E.el(ring, simplex))
                ok = tr == S.el(ring, gen) if simplex == fund else tr.is_zero()
                yield (gen, simplex), ok

    checks = [first_fail(f"TR.PR = Id on S^{flavor}({n}), k<={max_degree}", roundtrip())]
    if flavor == "bf":
        checks.append(
            first_fail(
                f"fundamental-simplex dichotomy on S^bf({n}), k<={max_degree}",
                dichotomy(),
            )
        )
    return Report(f"TR/PR roundtrip S^{flavor}({n})", checks)


def trpr_suite(max_n=4, max_k=3):
    from .maclane import sym_eg
    from .morphisms import fundamental_simplex, table_reduction, table_reduction_standard

    checks = []
    for flavor in ("bf", "ms", "aj"):
        for n in range(2, max_n + 1):
            rep = roundtrip_check(flavor, n, max_k)
            checks.extend(rep.checks)

    top_n = min(max_n, 3)

    def closed_vs_recursive():
        for flavor in ("bf", "ms", "aj"):
            for n in range(2, top_n + 1):
                E = sym_eg(n)
                std = table_reduction_standard(flavor, n)
                for k in range(max_k + 1):
                    for gen in E.basis(k):
                        x = E.el(ZZ, gen)
                        tr = table_reduction(flavor, x)
                        yield (flavor, n, gen), tr == std(x)
                        yield (flavor, n, gen, "h"), table_reduction(
                            flavor, contract(x)
                        ) == contract(tr)

    checks.append(
        first_fail(
            f"TR closed = recursive, commutes with h (n<={top_n})", closed_vs_recursive()
        )
    )

    x = (2, 1, 2, 3, 4, 2, 3, 1, 5, 4, 1, 2)
    expect = [
        (2, 1, 3, 4, 5),
        (1, 2, 3, 4, 5),
        (2, 3, 4, 1, 5),
        (3, 4, 2, 1, 5),
        (4, 2, 3, 1, 5),
        (2, 3, 1, 5, 4),
        (3, 1, 5, 4, 2),
        (3, 5, 4, 1, 2),
    ]
    fs = fundamental_simplex(x)
    checks.append(
        Check(
            "fundamental 7-simplex golden case",
            list(fs) == expect and sign_c(x) == 1,
        )
    )
    return Report("TR/PR suite", checks)


# -- minimal model suite -------------------------------------------------------------------


def minimal_suite():
    from .minimal import (
        delta_M,
        lambda_power,
        minimal_complex,
        minimal_tensor,
        multidiagonal_M,
        phi_to_EC,
        pi_from_EC,
    )

    checks = []
    for n in (3, 5):
        ys = [minimal_complex(n).el(ZZ, (0, k)) for k in range(0, 7)]
        checks.append(
            first_fail(
                f"pi.phi = Id on M({n}), k<=6",
                ((k, pi_from_EC(phi_to_EC(y)) == y) for k, y in enumerate(ys)),
            )
        )

    M5 = minimal_complex(5)

    def lambda_chain_map():
        for k in range(0, 5):
            for i in range(5):
                x = M5.el(ZZ, (i, k))
                yield (i, k), lambda_power(2, boundary(x)) == boundary(lambda_power(2, x))

    checks.append(first_fail("lambda chain-map identity (n=5, ell=2)", lambda_chain_map()))

    M3 = minimal_complex(3)
    T3 = minimal_tensor(3, 3)
    std3 = StandardMap(M3, T3, group_hom=lambda a: (a, a, a))
    ys = [M3.el(ZZ, (0, k)) for k in range(0, 5)]
    checks.append(
        first_fail(
            "(Id x Delta).Delta = h3-standard diagonal (k<=4, n=3)",
            ((k, multidiagonal_M(3, y) == std3(y)) for k, y in enumerate(ys)),
        )
    )

    y2 = M3.el(ZZ, (0, 2))
    left = delta_M(y2).map_terms(
        lambda gen: [
            (c, g + (gen[1],))
            for g, c in delta_M(M3.el(ZZ, gen[0])).terms.items()
        ],
        codomain=T3,
    )
    checks.append(
        Check("(Delta x Id).Delta differs at y_2 (n=3)", left != multidiagonal_M(3, y2))
    )

    # mod-p coinvariant image of Delta(y_2k)
    p = 3
    Fp = GF(p)
    Mp = minimal_complex(p)
    for k in (1, 2):
        val = delta_M(Mp.el(Fp, (0, 2 * k)))
        degrees = ((c, (a[1], b[1])) for (a, b), c in val.terms.items())
        proj = reduce_terms(add_terms({}, degrees, lambda key: key), Fp)
        want = {}
        for i in range(0, k + 1):
            want[(2 * i, 2 * k - 2 * i)] = 1
        checks.append(
            Check(f"coinvariant Delta(y_{2*k}) = sum y_2i x y_2j mod {p}", proj == want)
        )
    return Report("minimal model suite", checks)


# -- operad suite -----------------------------------------------------------------------------


def _perm_tuples(sizes):
    return _product(*(list(all_perms(s)) for s in sizes))


def sigma_suite(max_r=3, max_size=3, assoc_bound=3):
    from .operads import oplus, sigma_compose

    checks = []
    u = Perm((2, 3, 1))
    vs = [Perm((2, 1)), Perm((3, 1, 2, 4)), Perm((3, 2, 1))]
    checks.append(
        Check(
            "block composition golden case",
            sigma_compose(u, vs) == (5, 3, 4, 6, 9, 8, 7, 2, 1)
            and block_perm(u, (2, 4, 3)) == (3, 4, 5, 6, 7, 8, 9, 1, 2),
        )
    )

    def composition_law():
        for r in range(1, 5):
            for sizes in _product(range(1, 4), repeat=r):
                for h in all_perms(r):
                    for g in all_perms(r):
                        lhs = block_perm(h * g, sizes)
                        rhs = block_perm(h, sizes) * block_perm(
                            g, tuple(sizes[h(i) - 1] for i in range(1, r + 1))
                        )
                        yield (h, g, sizes), lhs == rhs

    checks.append(
        first_fail("block-perm composition law exhaustive (r<=4, sizes<=3)", composition_law())
    )

    def equivariance_1():
        for r in range(1, max_r + 1):
            for sizes in _product(range(1, max_size + 1), repeat=r):
                for g in all_perms(r):
                    g_blocks = block_perm(g, sizes)
                    for u_ in all_perms(r):
                        for vs_ in _perm_tuples(sizes):
                            lhs = sigma_compose(g * u_, list(vs_))
                            vg = [vs_[g(i) - 1] for i in range(1, r + 1)]
                            rhs = g_blocks * sigma_compose(u_, vg)
                            yield (g, u_, vs_), lhs == rhs

    checks.append(
        first_fail(lambda n: f"equivariance axiom 1 exhaustive [{n} cases]", equivariance_1())
    )

    def equivariance_2():
        for r in range(1, max_r + 1):
            for sizes in _product(range(1, max_size + 1), repeat=r):
                for u_ in all_perms(r):
                    # sigma_compose(u_, vs_) does not depend on hs
                    composites = [
                        (vs_, sigma_compose(u_, list(vs_)))
                        for vs_ in _perm_tuples(sizes)
                    ]
                    for hs in _perm_tuples(sizes):
                        h_sum = oplus(list(hs))
                        for vs_, composite in composites:
                            lhs = sigma_compose(
                                u_, [h * v for h, v in zip(hs, vs_)]
                            )
                            yield (u_, hs, vs_), lhs == h_sum * composite

    checks.append(
        first_fail(lambda n: f"equivariance axiom 2 exhaustive [{n} cases]", equivariance_2())
    )

    def associativity():
        for r in range(1, assoc_bound + 1):
            for r_list in _product(range(1, assoc_bound + 1), repeat=r):
                size_choices = []
                for ri in r_list:
                    choices = [
                        c
                        for c in _product(range(1, assoc_bound + 1), repeat=ri)
                        if sum(c) <= assoc_bound
                    ]
                    size_choices.append(choices)
                for s_matrix in _product(*size_choices):
                    for u_ in all_perms(r):
                        for vs_ in _perm_tuples(r_list):
                            mid = sigma_compose(u_, list(vs_))
                            for ws_flat in _perm_tuples(
                                tuple(s for row in s_matrix for s in row)
                            ):
                                ws = []
                                idx = 0
                                for row in s_matrix:
                                    ws.append(ws_flat[idx : idx + len(row)])
                                    idx += len(row)
                                inner = [
                                    sigma_compose(vs_[i], list(ws[i]))
                                    for i in range(r)
                                ]
                                top = sigma_compose(u_, inner)
                                bottom = sigma_compose(mid, list(ws_flat))
                                yield (u_, vs_, ws), top == bottom

    checks.append(
        first_fail(lambda n: f"associativity diagram exhaustive [{n} cases]", associativity())
    )
    return Report("symmetric group operad", checks)


def _family_compose(kind, outer, inners, ring):
    from .operads import be_compose, surj_compose

    if kind == "be":
        return be_compose(outer, inners, ring)
    return surj_compose(kind, outer, inners, ring)


def _family_component(kind, n):
    if kind == "be":
        from .maclane import sym_eg

        return sym_eg(n)
    return surjection_complex(kind, n)


def family_associativity(kind, r, r_list, s_matrix, max_degree, ring=ZZ):
    """Both routes around the associativity square on all basis tensors of total degree
    <= max_degree; the regrouping isomorphism carries Koszul signs."""
    comps = [_family_component(kind, r)]
    for i in range(r):
        comps.append(_family_component(kind, r_list[i]))
        comps.extend(_family_component(kind, s) for s in s_matrix[i])

    def squares():
        for gens, els in _tensors(comps, max_degree, ring):
            u = els[0]
            idx = 1
            vs, ws = [], []
            for i in range(r):
                vs.append(els[idx])
                idx += 1
                ws.append(els[idx : idx + len(s_matrix[i])])
                idx += len(s_matrix[i])
            # top: inner composites then outer
            inner_vals = [_family_compose(kind, vs[i], ws[i], ring) for i in range(r)]
            top = _family_compose(kind, u, inner_vals, ring)
            # bottom: Koszul for moving each v_i left past earlier w-blocks
            exp = 0
            for i in range(1, r):
                wdeg = sum(w.degree for row in ws[:i] for w in row)
                exp += vs[i].degree * wdeg
            mid = _family_compose(kind, u, vs, ring)
            flat = [w for row in ws for w in row]
            bottom = (-1) ** exp * _family_compose(kind, mid, flat, ring)
            yield gens, top == bottom

    return first_fail(
        f"{kind} associativity (r={r}, inner={r_list}, sizes={s_matrix}, deg<={max_degree})",
        squares(),
    )


def _recursive_vs_closed(kind, engine, max_degree):
    from .operads import engine_compose

    for sizes in ((1, 2), (2, 2)):
        comps = [_family_component(kind, n) for n in (2,) + sizes]
        for gens, els in _tensors(comps, max_degree):
            closed = _family_compose(kind, els[0], els[1:], ZZ)
            yield (sizes,) + gens, engine_compose(engine, els[0], els[1:]) == closed


def _unit_axioms():
    for kind in ("be", "bf"):
        unit = _family_component(kind, 1).basepoint(ZZ)
        comp2 = _family_component(kind, 2)
        for k in range(0, 3):
            for b in comp2.basis(k):
                el = comp2.el(ZZ, b)
                yield (kind, b, "right unit"), _family_compose(kind, el, [unit, unit], ZZ) == el
                yield (kind, b, "left unit"), _family_compose(kind, unit, [el], ZZ) == el


def _clean_outputs():
    from .operads import surj_compose

    for sizes in ((2, 2), (1, 2)):
        comps = [surjection_complex("bf", n) for n in (2,) + sizes]
        for gens, els in _tensors(comps, 2, basis="gbasis"):
            for g in surj_compose("bf", els[0], els[1:]).terms:
                yield gens + (g,), is_clean_gen(g)


def operads_suite(max_degree=2):
    from .operads import be_engine, partial_compose, surj_compose, surj_engine

    checks = []
    checks.extend(sigma_suite().checks)

    S = lambda n: surjection_complex("bf", n)
    x = S(3).el(ZZ, (1, 2, 1, 3, 2))
    y1 = S(3).el(ZZ, (1, 2, 3, 1))
    y2 = S(4).el(ZZ, (1, 2, 1, 4, 3))
    y3 = S(2).el(ZZ, (1, 2, 1))
    full = surj_compose("bf", x, [y1, y2, y3])
    checks.append(
        Check(
            "full composition golden case, sign -1",
            full.coeff((1, 2, 4, 5, 4, 7, 2, 3, 1, 8, 9, 8, 7, 6)) == -1,
        )
    )
    pc = partial_compose("bf", 2, x, S(2).el(ZZ, (1, 2, 1)))
    checks.append(
        Check(
            "partial composition golden case, three terms",
            dict(pc.terms)
            == {
                (1, 2, 1, 4, 2, 3, 2): 1,
                (1, 2, 3, 1, 4, 3, 2): -1,
                (1, 2, 3, 2, 1, 4, 2): -1,
            },
        )
    )

    # recursive engines against closed forms
    for kind, engine in (("be", be_engine()), ("bf", surj_engine("bf"))):
        checks.append(
            first_fail(
                f"{kind} recursive = closed at (2;1,2),(2;2,2), deg<={max_degree}",
                _recursive_vs_closed(kind, engine, max_degree),
            )
        )

    checks.append(first_fail("unit axioms", _unit_axioms()))

    # associativity squares, degrees <= 1
    for kind in ("be", "bf"):
        checks.append(
            family_associativity(kind, 2, (1, 2), ((1,), (1, 1)), 1)
        )
        checks.append(
            family_associativity(kind, 2, (2, 1), ((1, 1), (1,)), 1)
        )
        checks.append(
            family_associativity(kind, 2, (2, 1), ((2, 1), (1,)), 1)
        )

    checks.append(first_fail("clean inputs, clean output summands", _clean_outputs()))
    return Report("operad suite", checks)


def morphism_squares_suite():
    """The table-reduction quotient square and the chain-action square."""
    from .action import sz_square
    from .maclane import sym_eg
    from .morphisms import table_reduction
    from .operads import be_compose, surj_compose

    S = lambda n: surjection_complex("bf", n)

    def quotient_square():
        for sizes in ((1, 2), (2, 2)):
            comps = [sym_eg(n) for n in (2,) + sizes]
            for gens, (X, Y1, Y2) in _tensors(comps, 1):
                lhs = table_reduction("bf", be_compose(X, [Y1, Y2]))
                rhs = surj_compose(
                    "bf",
                    table_reduction("bf", X),
                    [table_reduction("bf", Y1), table_reduction("bf", Y2)],
                )
                yield gens, lhs == rhs

    def action_square():
        x = S(2).el(ZZ, (1, 2, 1))
        for sizes in ((1, 2), (2, 2)):
            inner = [
                [S(s).el(ZZ, g) for d in (0, 1) for g in S(s).basis(d)] for s in sizes
            ]
            for y1 in inner[0]:
                for y2 in inner[1]:
                    for m in (0, 1, 2):
                        l, r = sz_square(x, [y1, y2], m)
                        yield (tuple(y1.terms), tuple(y2.terms), m), l == r

    checks = [
        first_fail("TR quotient square (2;1,2),(2;2,2), deg<=1", quotient_square()),
        first_fail(
            "S -> Z square on x=(1,2,1), inner degree<=1, m<=2 (exhaustive)",
            action_square(),
        ),
    ]
    return Report("operad morphism squares", checks)


def witnesses_suite(p=3, ell=2, max_k=2, max_degree=4):
    from .witnesses import diagonal_homotopy_report, power_witness_report

    rep = power_witness_report(p, ell, max_k, max_degree)
    rep2 = diagonal_homotopy_report(p, max_degree)
    return Report("join homotopy witnesses", rep.checks + rep2.checks)


def action_suite(max_n=3, max_k=2, max_m=3):
    from .action import BFActionStandard, bf_action, bf_action_terms, steenrod_constant

    checks = []
    terms = bf_action_terms((1, 2, 1, 3, 2, 1, 3), 5)
    co = [c for c, g in terms if g == ((0, 1, 2, 4, 5), (0, 1, 2, 3, 4), (2, 5))]
    checks.append(Check("monomial action golden term, sign +1", co == [1]))

    def closed_vs_recursive():
        engines = {}
        for S, gen in _basis("bf", max_n, max_k):
            if S.n not in engines:
                engines[S.n] = BFActionStandard(S.n)
            std = engines[S.n]
            x = S.el(ZZ, gen)
            for m in range(0, max_m + 1):
                yield (S.n, gen, m), bf_action(x, m) == std.apply(x, m)

    checks.append(
        first_fail(
            f"closed = recursive (n<={max_n}, k<={max_k}, m<={max_m})",
            closed_vs_recursive(),
        )
    )

    # the vanishing check stops at n = 3; its name states a lower --n
    top_n = min(max_n, 3)

    def vanishing():
        for n in range(2, top_n + 1):
            S = surjection_complex("bf", n)
            for m in (0, 1, 2):
                for k in range(m * (n - 1) + 1, m * (n - 1) + 3):
                    for gen in S.basis(k):
                        yield (n, gen, m), bf_action(S.el(ZZ, gen), m).is_zero()

    checks.append(
        first_fail(
            "Phi = 0 when k > m(n-1)" + ("" if top_n == 3 else f" (n<={top_n})"),
            vanishing(),
        )
    )

    checks.append(Check("c_{2,5} = 4", steenrod_constant(2, 5) == 4))
    checks.append(Check("c_{1,3} = 1", steenrod_constant(1, 3) == 1))
    return Report("Berger-Fresse action suite", checks)


SUITES = {
    "contracted": lambda **kw: contracted_suite(
        kw.get("n", 4), kw.get("max_degree", 4), kw.get("jobs", 1)
    ),
    "golden-boundaries": lambda **kw: golden_boundaries_suite(),
    "signs": lambda **kw: signs_suite(kw.get("n", 4), kw.get("max_degree", 4)),
    "isos": lambda **kw: iso_suite(kw.get("n", 4), kw.get("max_degree", 3)),
    "trpr": lambda **kw: trpr_suite(kw.get("n", 4), kw.get("max_degree", 3)),
    "minimal": lambda **kw: minimal_suite(),
    "witnesses": lambda **kw: witnesses_suite(max_degree=kw.get("max_degree", 4)),
    "operads": lambda **kw: operads_suite(kw.get("max_degree", 2)),
    "morphisms": lambda **kw: morphism_squares_suite(),
    "action": lambda **kw: action_suite(
        kw.get("n", 3), kw.get("max_degree", 2), kw.get("m", 3)
    ),
}


# The smallest n each suite that reads n as an arity bound checks: below
# it the suite's loops over arities are empty, and its checks would pass
# having checked nothing.  "contracted" also reads n as a simplex dimension,
# from 0, so every n >= 0 checks something there.
MIN_N = {"signs": 2, "isos": 2, "trpr": 2, "action": 2}


def run_suite(name, **kw):
    for key in ("n", "max_degree", "m"):
        if kw.get(key, 0) < 0:
            raise InvalidInput(f"{key} must be >= 0, got {kw[key]}")
    least = max(MIN_N.values()) if name == "all" else MIN_N.get(name, 0)
    if kw.get("n", least) < least:
        raise InvalidInput(f"n must be >= {least} for suite {name!r}, got {kw['n']}")
    if name == "all":
        checks = []
        for key in SUITES:
            rep = SUITES[key](**kw)
            checks.extend(
                Check(f"{rep.title}: {c.name}", c.ok, c.counterexample, c.checked)
                for c in rep.checks
            )
        return Report("all suites", checks)
    if name not in SUITES:
        raise InvalidInput(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**kw)
