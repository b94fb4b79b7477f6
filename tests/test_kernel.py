"""Permutations, signs, rings, and the sparse element type."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainops.complexes import act, boundary
from chainops.elements import Element
from chainops.errors import GuardExceeded, InvalidInput, set_term_guard, term_guard
from chainops.groups import CyclicGroup, SymmetricGroup
from chainops.maclane import sym_eg
from chainops.perms import Perm, all_perms, block_perm, koszul_sign, permute_by
from chainops.rings import GF, ZZ
from chainops.simplex import simplex_complex, tensor_power
from chainops.complexes import tensor_elements


def test_parity_golden():
    assert Perm.identity(4).parity() == 1
    assert Perm((2, 3, 1)).parity() == 1
    assert Perm((2, 3, 1, 5, 4)).parity() == -1


def test_parity_brute_force():
    # against transposition count via explicit inversions
    for g in all_perms(4):
        inv = sum(
            1
            for i, j in itertools.combinations(range(4), 2)
            if g.images[i] > g.images[j]
        )
        assert g.parity() == (-1) ** inv


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
    assert block_perm(u, (2, 4, 3)).images == (3, 4, 5, 6, 7, 8, 9, 1, 2)
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


def test_prime_field_validation():
    with pytest.raises(InvalidInput):
        GF(6)
    assert GF(7).normalize(-1) == 6


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
            product_complex(1, 1), ((0, 1), (0,)),
            # the CLI takes product rows only through aw, which checks them first
            ["aw", "--simplex", "1", "(0,1)", "(0)"],
            "product generator rows must share a length >= 1",
        ),
    ]


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

    return sorted({(tag, n) for tag, n, _ in contraction_tasks(4, 4)})


@functools.lru_cache(maxsize=None)
def _basis_of(tag, n, k):
    from chainops.suites import complex_by_tag

    return list(complex_by_tag(tag, n).basis(k))


@functools.lru_cache(maxsize=None)
def _group_elements(tag, n):
    from chainops.suites import complex_by_tag

    return list(complex_by_tag(tag, n).group.elements())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_structure_maps_emit_valid_generators(data):
    """Every raw generator d, h, rho and the action build from a basis
    generator passes validation: canonical and normalize agree on it."""
    from chainops.suites import complex_by_tag

    tag, n = data.draw(st.sampled_from(_contracted_families()))
    cplx = complex_by_tag(tag, n)
    # N(ESigma_4) has 292,008 generators in degree 3; degree 2 is enough there
    k = data.draw(st.integers(0, 2 if tag == "eg-sym" else 3))
    basis = _basis_of(tag, n, k)
    if not basis:
        return
    gen = data.draw(st.sampled_from(basis))
    raw = cplx.boundary_terms(gen) + cplx.contraction_terms(gen) + cplx.rho_terms(gen)
    if cplx.group is not None:
        g = data.draw(st.sampled_from(_group_elements(tag, n)))
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
        gen = (data.draw(ints(1, 1)), data.draw(ints(2, 1)))
    else:
        cplx = tensor_power(2, 2)
        gen = (data.draw(ints(2)), data.draw(ints(2)))
    try:
        canon = cplx.canonical(gen)
    except InvalidInput:
        return
    assert canon == cplx.normalize(gen)
