"""Permutations, signs, rings, and the sparse element type."""

import functools
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainops.complexes import TensorComplex, act, boundary, named_complex
from chainops.elements import Element
from chainops import errors
from chainops.errors import GuardExceeded, InvalidInput, check_guard, set_term_guard, term_guard
from chainops.groups import CyclicGroup, SymmetricGroup
from chainops.maclane import sym_eg
from chainops.perms import (
    Perm,
    all_perms,
    block_perm,
    koszul_sign,
    perm_of_word,
    permute_by,
)
from chainops.rings import GF, ZZ
from chainops.simplex import simplex_complex, tensor_power
from chainops.surjections import SurjectionComplex, surjection_complex
from chainops.complexes import tensor_elements


def test_parity_golden():
    assert Perm.identity(4).parity() == 1
    assert Perm((2, 3, 1)).parity() == 1
    assert Perm((2, 3, 1, 5, 4)).parity() == -1


def test_parity_brute_force():
    # against transposition count via explicit inversions, every Sigma_n
    # with n <= 6
    for n in range(1, 7):
        for g in all_perms(n):
            inv = sum(
                1
                for i, j in itertools.combinations(range(n), 2)
                if g[i] > g[j]
            )
            assert g.parity() == (-1) ** inv


@settings(max_examples=300)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_parity_is_the_sorting_sign(images):
    # the cycle count and the stable-sort sign of the images agree
    g = Perm(images)
    assert g.parity() == perm_of_word(g)


def test_parity_homomorphism_exhaustive_S3():
    for g in all_perms(3):
        for h in all_perms(3):
            assert (g * h).parity() == g.parity() * h.parity()


@settings(max_examples=200)
@given(st.permutations(range(1, 6)), st.permutations(range(1, 6)))
def test_parity_homomorphism_random_S5(a, b):
    g, h = Perm(a), Perm(b)
    assert (g * h).parity() == g.parity() * h.parity()


def test_koszul_golden():
    assert koszul_sign(Perm.identity(3), (1, 2, 3)) == 1
    assert koszul_sign(Perm((2, 1)), (1, 1)) == -1
    assert koszul_sign(Perm((2, 3, 1)), (1, 2, 1)) == -1


def test_koszul_brute_force_adjacent_transpositions():
    # decompose into adjacent swaps; each swap of odd-degree neighbors flips
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 6)
        degrees = [rng.randint(0, 3) for _ in range(n)]
        g = Perm(rng.sample(range(1, n + 1), n))
        # bubble-sort the slots of the left action and count odd-odd swaps
        arr = permute_by(g, list(range(n)))  # slot i holds original index
        sign = 1
        a = list(arr)
        for i in range(len(a)):
            for j in range(len(a) - 1):
                if a[j] > a[j + 1]:
                    if degrees[a[j]] % 2 and degrees[a[j + 1]] % 2:
                        sign = -sign
                    a[j], a[j + 1] = a[j + 1], a[j]
        assert koszul_sign(g, degrees) == sign


def test_koszul_composition():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 5)
        degrees = tuple(rng.randint(0, 3) for _ in range(n))
        g = Perm(rng.sample(range(1, n + 1), n))
        h = Perm(rng.sample(range(1, n + 1), n))
        # the degrees seen by g are those of h's output slots
        hd = tuple(permute_by(h, degrees))
        assert koszul_sign(g * h, degrees) == koszul_sign(g, hd) * koszul_sign(
            h, degrees
        )


def test_block_perm_golden():
    u = Perm((2, 3, 1))
    assert block_perm(u, (2, 4, 3)) == (3, 4, 5, 6, 7, 8, 9, 1, 2)
    assert block_perm(Perm.identity(3), (2, 2, 2)) == Perm.identity(6)
    with pytest.raises(InvalidInput):
        block_perm(u, (2, 4))


def test_block_perm_composition_law_instance():
    sizes = (2, 1, 3)
    for h in all_perms(3):
        for g in all_perms(3):
            lhs = block_perm(h * g, sizes)
            rhs = block_perm(h, sizes) * block_perm(
                g, tuple(sizes[h(i) - 1] for i in range(1, 4))
            )
            assert lhs == rhs


@settings(max_examples=200)
@given(st.permutations(range(1, 6)), st.permutations(range(1, 6)))
def test_perm_is_the_tuple_of_its_images(a, b):
    a, b = tuple(a), tuple(b)
    g, h = Perm(a), Perm(b)
    assert g == a and (g == h) == (a == b) and (g != h) == (a != b)
    assert hash(g) == hash(a)
    assert (g < h) == (a < b) and (g <= h) == (a <= b)
    assert sorted([g, h]) == sorted([a, b])
    trusted = Perm._trusted(a)
    assert type(trusted) is Perm and trusted == g
    bad = a[:-1] + (a[0],)
    with pytest.raises(InvalidInput) as err:
        Perm(bad)
    assert str(err.value) == f"{bad} is not a permutation of 1..5"
    for p in (g, g * h):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            q = pickle.loads(pickle.dumps(p, protocol))
            assert type(q) is Perm and q == p and repr(q) == repr(p)


def test_equal_generator_tuples_of_different_complexes_stay_apart():
    from chainops.complexes import TensorComplex

    e, t = Perm((1, 2)), Perm((2, 1))
    x = sym_eg(2).el(ZZ, (e, t))
    S = surjection_complex("bf", 2)
    y = TensorComplex((S, S)).el(ZZ, ((1, 2), (2, 1)))
    assert x.terms == y.terms
    assert x != y and y != x


def test_prime_field_validation():
    with pytest.raises(InvalidInput):
        GF(6)
    assert GF(7).normalize(-1) == 6


def test_prime_fields_compare_by_modulus():
    a, b = GF(7), GF(7)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == a and len({a, b}) == 1
    assert GF(7) != GF(11) and GF(7) != ZZ and ZZ != GF(7)


def test_is_identity_on_every_small_permutation():
    assert Perm(()).is_identity() and Perm((1,)).is_identity()
    assert not Perm((1, 3, 2)).is_identity()
    for n in range(5):
        for g in all_perms(n):
            assert g.is_identity() == (g == tuple(range(1, n + 1)))


def test_element_cancellation_and_zero():
    S = simplex_complex(3)
    x = S.el(ZZ, (0, 1, 2))
    assert (x + (-1) * x).is_zero()
    assert (x - x).is_zero()
    z = S.zero(ZZ, 2)
    assert (z + x) == x
    # cross-degree addition of a zero is permitted
    z0 = S.zero(ZZ, 0)
    assert (z0 + x) == x


def test_element_degree_mismatch_raises():
    S = simplex_complex(3)
    x = S.el(ZZ, (0, 1))
    y = S.el(ZZ, (0, 1, 2))
    with pytest.raises(InvalidInput):
        x + y


def test_coefficients_from_outside_are_ints():
    """el/single, raw-pair Element(...) and scalar * x take int
    coefficients only: a float, a string or a bool is invalid input."""
    S = surjection_complex("bf", 2)
    x = S.el(ZZ, (1, 2), 3)
    for c in (1.5, "2", True, 2.0):
        with pytest.raises(InvalidInput, match="int"):
            S.el(ZZ, (1, 2), c)
        with pytest.raises(InvalidInput, match="int"):
            Element(S, ZZ, 0, [(c, (1, 2))])
        with pytest.raises(InvalidInput, match="int"):
            Element(S, GF(3), 0, {(1, 2): c})
        with pytest.raises(InvalidInput, match="int"):
            c * x
    assert repr(-2 * x) == "- 6*(1,2)" and repr(Element(S, GF(3), 0, {(1, 2): 5})) == "2*(1,2)"


def test_raw_pairs_have_the_given_degree():
    """Raw-pair Element(cplx, ring, degree, pairs) refuses a nonzero
    generator of another degree; one that cancels, or vanishes in the ring,
    carries no degree."""
    S = surjection_complex("bf", 2)
    with pytest.raises(InvalidInput, match="degree 0, not 5"):
        Element(S, ZZ, 5, [(1, (1, 2))])
    with pytest.raises(InvalidInput, match="degree 1, not 0"):
        Element(S, ZZ, 0, [(1, (1, 2)), (2, (1, 2, 1))])
    assert Element(S, ZZ, 5, [(1, (1, 2)), (-1, (1, 2))]).is_zero()
    assert Element(S, GF(3), 5, [(3, (1, 2))]).is_zero()
    assert Element(S, ZZ, 1, [(2, (1, 2, 1))]).degree == 1


def test_element_ring_mismatch_raises():
    S = simplex_complex(3)
    with pytest.raises(InvalidInput):
        S.el(ZZ, (0, 1)) + S.el(GF(5), (0, 1))


def test_element_add_assoc_comm_random():
    rng = random.Random(3)
    S = simplex_complex(4)
    gens = list(S.basis(2))
    for _ in range(30):
        a, b, c = (
            Element(S, ZZ, 2, [(rng.randint(-3, 3), g) for g in rng.sample(gens, 4)])
            for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a


def test_equal_elements_of_equal_tensor_complexes_hash_equal():
    from chainops.complexes import TensorComplex

    S = simplex_complex(2)
    x = TensorComplex((S, S)).el(ZZ, ((0, 1), (1, 2)), 3)
    y = TensorComplex((S, S)).el(ZZ, ((0, 1), (1, 2)), 3)
    assert x.complex is not y.complex
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


def test_canonicalization_idempotent_and_degenerate_dropped():
    S = simplex_complex(3)
    x = Element(S, ZZ, 1, [(1, (0, 0)), (2, (0, 1))])
    assert dict(x.terms) == {(0, 1): 2}


def test_act_identity_and_koszul_swap():
    E = sym_eg(2)
    T = tensor_power(2, 2)
    S2 = simplex_complex(2)
    a = S2.el(ZZ, (0, 1))
    b = S2.el(ZZ, (1, 2))
    ab = tensor_elements(T, a, b)
    from chainops.action import perm_act

    assert perm_act(Perm.identity(2), ab) == ab
    swapped = perm_act(Perm((2, 1)), ab)
    assert swapped == -1 * tensor_elements(T, b, a)


def test_tensor_elements_takes_one_element_of_each_factor():
    from chainops.simplex import SimplexComplex

    T = TensorComplex((simplex_complex(1), simplex_complex(1)))
    a = simplex_complex(1).el(ZZ, (0, 1))
    # an equal factor is accepted, not only the same object
    b = SimplexComplex(1).el(ZZ, (0,))
    assert dict(tensor_elements(T, a, b).terms) == {((0, 1), (0,)): 1}
    for xs in (
        (a,),
        (a, a, a),
        (a, surjection_complex("bf", 2).el(ZZ, (1, 2))),
        (simplex_complex(2).el(ZZ, (0, 1)), a),
    ):
        with pytest.raises(InvalidInput):
            tensor_elements(T, *xs)


def test_tensor_elements_normalises_no_factor(monkeypatch):
    # factor elements hold normal generators, so their tensors are built
    # as they are and only the coefficient products are reduced
    S2, S3 = surjection_complex("bf", 2), surjection_complex("bf", 3)
    T = TensorComplex((S2, S3))
    xs = {
        R: (
            S2.el(R, (1, 2, 1), 2) + S2.el(R, (2, 1, 2)),
            S3.el(R, (1, 2, 3), -1) + S3.el(R, (3, 1, 2), 3),
        )
        for R in (ZZ, GF(3))
    }
    calls = []
    normalize = SurjectionComplex.normalize
    monkeypatch.setattr(
        SurjectionComplex, "normalize", lambda self, gen: calls.append(gen) or normalize(self, gen)
    )
    want = {
        ZZ: {
            ((1, 2, 1), (1, 2, 3)): -2,
            ((1, 2, 1), (3, 1, 2)): 6,
            ((2, 1, 2), (1, 2, 3)): -1,
            ((2, 1, 2), (3, 1, 2)): 3,
        },
        GF(3): {((1, 2, 1), (1, 2, 3)): 1, ((2, 1, 2), (1, 2, 3)): 2},
    }
    for R, (a, b) in xs.items():
        x = tensor_elements(T, a, b)
        assert (x.complex, x.ring, x.degree, x.terms) == (T, R, 1, want[R])
    assert calls == []


def test_act_on_maclane_identity():
    E = sym_eg(3)
    g = Perm((2, 1, 3))
    x = E.el(ZZ, (Perm.identity(3), g))
    assert act(Perm.identity(3), x) == x


def test_term_guard_trips():
    old = term_guard()
    set_term_guard(3)
    try:
        S = simplex_complex(4)
        with pytest.raises(GuardExceeded):
            Element(S, ZZ, 0, [(1, (v,)) for v in range(5)])
    finally:
        set_term_guard(old)


def test_term_guard_set_after_first_use_takes_effect(monkeypatch):
    monkeypatch.delenv("CHAINOPS_TERM_GUARD", raising=False)
    monkeypatch.setattr(errors, "_term_guard", None)
    check_guard(5)
    assert term_guard() == errors.DEFAULT_TERM_GUARD
    set_term_guard(4)
    check_guard(4)
    with pytest.raises(GuardExceeded) as err:
        check_guard(5)
    assert str(err.value) == "formal sum holds 5 terms, above the guard 4"


@pytest.mark.parametrize("raw", ["0", "-3", "ten"])
def test_bad_term_guard_variable_raises_on_first_use(monkeypatch, raw):
    monkeypatch.setenv("CHAINOPS_TERM_GUARD", raw)
    monkeypatch.setattr(errors, "_term_guard", None)
    for _ in range(2):
        with pytest.raises(InvalidInput) as err:
            check_guard(1)
        assert str(err.value) == f"CHAINOPS_TERM_GUARD={raw!r} is not a positive integer"


def test_element_repr_sorted_deterministic():
    S = simplex_complex(3)
    x = Element(S, ZZ, 0, [(1, (2,)), (-2, (0,)), (1, (1,))])
    assert repr(x) == "- 2*(0) + (1) + (2)"


def test_zero_elements_are_equal_whatever_their_degree():
    from chainops.surjections import surjection_complex

    S = surjection_complex("bf", 2)
    z0, z3 = S.zero(ZZ, 0), S.zero(ZZ, 3)
    assert z0 == z3
    assert hash(z0) == hash(z3)
    assert z0 != S.zero(GF(3), 0)
    assert z0 != S.el(ZZ, (1, 2))


# -- validation at the edge: the exact InvalidInput texts ---------------------------


def _edge_cases():
    from chainops.simplex import product_complex
    from chainops.surjections import surjection_complex

    return [
        # (complex, raw generator, CLI argv, message)
        (
            surjection_complex("bf", 3), (1, 4, 2),
            ["boundary", "--flavor", "bf", "--n", "3", "(1,4,2)"],
            "entry 4 outside 1..3",
        ),
        (
            simplex_complex(2), (0, 5),
            ["boundary", "--simplex", "2", "(0,5)"],
            "vertex 5 outside Delta^2",
        ),
        (
            simplex_complex(3), (2, 1),
            ["boundary", "--simplex", "3", "(2,1)"],
            "vertices (2, 1) out of order",
        ),
        (
            product_complex(1, 1), (),
            # the CLI takes product rows only through aw, which checks them first
            ["aw", "--simplex", "1", "(0,1)", "(0)"],
            "product generator rows must share a length >= 1",
        ),
    ]


def _truncated_cases():
    from chainops.minimal import minimal_complex
    from chainops.simplex import product_complex

    T, P = TensorComplex((simplex_complex(1), simplex_complex(1))), product_complex(1, 1)
    S2, E2, M3 = surjection_complex("bf", 2), sym_eg(2), minimal_complex(3)
    tensors = "a generator of N(Delta^1) (x) N(Delta^1) has 2 factors"
    rows = "a generator of N(Delta^1 x Delta^1) has 2 rows"
    pair = "a generator of M(3) is a pair of integers, not "
    return [
        # (complex, raw generator, message): a generator is refused whole,
        # never cut to fit the factors or rows, and so is a generator that
        # is not a sequence and an entry that is not an integer in range
        # (a bool is not one, though it compares equal to 0 or 1)
        (T, ((0, 1),), tensors),
        (T, ((0, 1), (0,), (1,)), tensors),
        # a product generator is its columns, each with one entry per row
        (P, ((0,),), rows),
        (P, ((0, 0), (0, 1, 1)), rows),
        (P, ((0, 1, 1),), rows),
        (P, ((0, 0), (1.5, 1)), "vertex 1.5 outside Delta^1"),
        (simplex_complex(2), (0, 1.5), "vertex 1.5 outside Delta^2"),
        (simplex_complex(2), ("a",), "vertex 'a' outside Delta^2"),
        (simplex_complex(2), (0, True), "vertex True outside Delta^2"),
        (T, (0, 1), "a generator of N(Delta^1) is a sequence, not 0"),
        (P, 5, "a generator of N(Delta^1 x Delta^1) is a sequence, not 5"),
        (S2, 5, "a generator of S^bf(2) is a sequence, not 5"),
        (S2, (1, 2.0, 1), "entry 2.0 outside 1..2"),
        (S2, (True, 2, 1), "entry True outside 1..2"),
        (E2, 5, "a generator of N(ESigma_2) is a sequence, not 5"),
        (E2, ((1.0, 2.0), (2, 1)), "(1.0, 2.0) is not a permutation of 1..2"),
        (E2, ((2, True),), "(2, True) is not a permutation of 1..2"),
        (M3, 5, "a generator of M(3) is a sequence, not 5"),
        (M3, (1.5, 2), pair + "(1.5, 2)"),
        (M3, (1, 2, 3), pair + "(1, 2, 3)"),
        (M3, (0, False), pair + "(0, False)"),
        (P, (), "product generator rows must share a length >= 1"),
        # the empty sequence is no simplex
        (simplex_complex(2), (), "a generator of N(Delta^2) has at least one vertex"),
        (E2, [], "a generator of N(ESigma_2) has at least one vertex"),
    ]


@pytest.mark.parametrize("cplx, gen, message", _truncated_cases())
def test_malformed_generators_are_refused_whole(cplx, gen, message):
    for build in (lambda: cplx.canonical(gen), lambda: cplx.el(ZZ, gen)):
        with pytest.raises(InvalidInput) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("cplx, gen, argv, message", _edge_cases())
def test_bad_generators_are_refused_with_their_message(cplx, gen, argv, message, capsys):
    from chainops.cli import main

    for build in (
        lambda: cplx.canonical(gen),
        lambda: Element(cplx, ZZ, 0, [(1, gen)]),
        lambda: cplx.el(ZZ, gen),
    ):
        with pytest.raises(InvalidInput) as err:
            build()
        assert str(err.value) == message
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    cli_message = "aw needs rows of equal length" if argv[0] == "aw" else message
    assert capsys.readouterr().err == f"error: {cli_message}\n"


@pytest.mark.parametrize("images", [(1.0, 2.0), (2, True), (1, "2")])
def test_permutation_images_are_integers(images):
    with pytest.raises(InvalidInput):
        Perm(images)


def test_non_permutations_are_refused_with_their_message(capsys):
    from chainops.cli import main

    message = "(1, 1) is not a permutation of 1..2"
    for build in (lambda: Perm((1, 1)), lambda: SymmetricGroup(2).decode([1, 1])):
        with pytest.raises(InvalidInput) as err:
            build()
        assert str(err.value) == message
    with pytest.raises(SystemExit) as exit_:
        main(["boundary", "--eg", "2", "(1 1)"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# -- the invariant that lets inner loops skip validation ----------------------------


def _contracted_families():
    from chainops.suites import contraction_tasks

    return sorted({(family, n) for family, n, _ in contraction_tasks(4, 4)})


def test_named_complex_is_the_interned_complex():
    """Each family the contraction sweep names gives the very object its
    factory interns, as map_terms's `image.complex is target` shortcut
    needs."""
    from chainops.maclane import cyc_eg
    from chainops.minimal import minimal_complex

    factories = {"simplex": simplex_complex, "eg": sym_eg, "cyclic": cyc_eg,
                 "minimal": minimal_complex}
    for family, n in _contracted_families():
        factory = factories.get(family) or functools.partial(surjection_complex, family)
        assert named_complex(family, n) is factory(n)
    assert {family for family, _ in _contracted_families()} == {
        "simplex", "eg", "cyclic", "minimal", "aj", "bf", "ms"
    }


@pytest.mark.parametrize("family", ["be", "eg-sym", "surj-bf", "BF", "", None])
def test_named_complex_refuses_an_unknown_family(family):
    with pytest.raises(InvalidInput, match="unknown complex family"):
        named_complex(family, 3)


@functools.lru_cache(maxsize=None)
def _basis_of(family, n, k):
    return list(named_complex(family, n).basis(k))


@functools.lru_cache(maxsize=None)
def _group_elements(family, n):
    return list(named_complex(family, n).group.elements())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_structure_maps_emit_valid_generators(data):
    """Every raw generator d, h, rho and the action build from a basis
    generator passes validation: canonical and normalize agree on it."""
    family, n = data.draw(st.sampled_from(_contracted_families()))
    cplx = named_complex(family, n)
    # N(ESigma_4) has 292,008 generators in degree 3; degree 2 is enough there
    k = data.draw(st.integers(0, 2 if family == "eg" else 3))
    basis = _basis_of(family, n, k)
    if not basis:
        return
    gen = data.draw(st.sampled_from(basis))
    raw = cplx.boundary_terms(gen) + cplx.contraction_terms(gen) + cplx.rho_terms(gen)
    if cplx.group is not None:
        g = data.draw(st.sampled_from(_group_elements(family, n)))
        raw += cplx.act_terms(g, gen)
    for _, r in raw:
        assert cplx.canonical(r) == cplx.normalize(r)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_raises_or_equals_normalize(data):
    from chainops.simplex import product_complex
    from chainops.surjections import surjection_complex

    def ints(top, min_size=0):
        return st.lists(st.integers(-1, top + 1), min_size=min_size, max_size=top + 4).map(tuple)

    kind = data.draw(st.sampled_from(("surjection", "simplex", "product", "tensor")))
    if kind == "surjection":
        n = data.draw(st.integers(1, 4))
        cplx = surjection_complex(data.draw(st.sampled_from(("aj", "bf", "ms"))), n)
        gen = data.draw(ints(n))
    elif kind == "simplex":
        m = data.draw(st.integers(0, 4))
        cplx = simplex_complex(m)
        gen = data.draw(ints(m))
    elif kind == "product":
        cplx = product_complex(1, 2)
        column = st.tuples(st.integers(-1, 2), st.integers(-1, 3))
        gen = tuple(data.draw(st.lists(column, min_size=1, max_size=5)))
    else:
        cplx = tensor_power(2, 2)
        gen = (data.draw(ints(2)), data.draw(ints(2)))
    try:
        canon = cplx.canonical(gen)
    except InvalidInput:
        return
    assert canon == cplx.normalize(gen)
