"""Permutations, signs, rings, and the sparse element type."""

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
