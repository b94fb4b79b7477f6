"""Simplex chains: boundaries, AW, EZ, multidiagonals, and their
recursive standard-procedure oracles."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainops.action import BFActionStandard
from chainops.complexes import TensorComplex, boundary, contract, tensor_elements
from chainops.errors import InvalidInput
from chainops.groups import CyclicGroup
from chainops.maclane import coinvariant_complex
from chainops.procedure import EZStandard, verify_contracted
from chainops.rings import GF, ZZ
from chainops.simplex import (
    aw,
    ez,
    ez_element,
    ez_terms,
    fundamental,
    multidiagonal,
    product_complex,
    simplex_complex,
    tensor_power,
)


def test_face_boundary_golden():
    S = simplex_complex(5)
    assert repr(boundary(S.el(ZZ, (0, 1)))) == "- (0) + (1)"
    d = boundary(S.el(ZZ, (0, 2, 5)))
    assert dict(d.terms) == {(2, 5): 1, (0, 5): -1, (0, 2): 1}
    assert boundary(boundary(S.el(ZZ, (0, 1, 2, 3)))).is_zero()
    assert boundary(S.el(ZZ, (3,))).is_zero()


def test_aw_golden():
    P = product_complex(1, 1)
    x = P.el(ZZ, ((0, 0), (1, 1)))
    val = aw(x)
    T = TensorComplex((simplex_complex(1), simplex_complex(1)))
    expected = tensor_elements(T, simplex_complex(1).el(ZZ, (0,)), simplex_complex(1).el(ZZ, (0, 1))) + tensor_elements(
        T, simplex_complex(1).el(ZZ, (0, 1)), simplex_complex(1).el(ZZ, (1,))
    )
    assert val == expected


def test_aw_degree_zero():
    P = product_complex(2, 3)
    assert not aw(P.el(ZZ, ((1, 2),))).is_zero()


def test_ez_golden_prism():
    val = ez((0, 1), (0, 1), 1, 1)
    assert dict(val.terms) == {
        ((0, 0), (1, 0), (1, 1)): 1,
        ((0, 0), (0, 1), (1, 1)): -1,
    }


def test_ez_interval_formula():
    # EZ((0,1) (x) (0..n)) = sum_j (-1)^j ((0,0)..(0,j),(1,j)..(1,n))
    n = 3
    val = ez((0, 1), tuple(range(n + 1)), 1, n)
    expect = {}
    for j in range(n + 1):
        row0 = (0,) * (j + 1) + (1,) * (n + 1 - j)
        row1 = tuple(range(j + 1)) + tuple(range(j, n + 1))
        expect[tuple(zip(row0, row1))] = (-1) ** j
    assert dict(val.terms) == expect


def test_ez_degree_zero_single_pair():
    val = ez((2,), (1,), 3, 2)
    assert dict(val.terms) == {((2, 1),): 1}


def test_ez_counts_and_unit_coefficients():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        val = ez(fundamental(m), fundamental(n), m, n)
        assert len(val.terms) == comb(m + n, m)
        assert all(abs(c) == 1 for c in val.terms.values())


def test_ez_closed_equals_recursive():
    std = EZStandard()
    for m, n in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 1)]:
        assert ez(fundamental(m), fundamental(n), m, n) == std.on_basis((m, n))


@st.composite
def face_pairs(draw):
    """(a, b, m, n): faces a of Delta^m and b of Delta^n, m + n <= 5."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5 - m))
    a, b = (
        tuple(sorted(draw(st.just(range(k + 1)) | st.sets(st.integers(0, k), min_size=1))))
        for k in (m, n)
    )
    return a, b, m, n


@settings(max_examples=100, deadline=None)
@given(face_pairs())
def test_ez_closed_equals_recursive_on_faces(case):
    # one past test_ez_closed_equals_recursive: EZ(a (x) b) is the engine's
    # EZ(Delta^p (x) Delta^q) pushed forward along the faces a and b, one
    # coordinate of each column along each
    a, b, m, n = case
    model = EZStandard().on_basis((len(a) - 1, len(b) - 1))
    pushed = {tuple((a[u], b[v]) for u, v in cols): c for cols, c in model.terms.items()}
    assert ez(a, b, m, n).terms == pushed


def test_ez_is_chain_map():
    T = TensorComplex((simplex_complex(2), simplex_complex(2)))
    for k in range(0, 4):
        for gen in T.basis(k):
            x = T.el(ZZ, gen)
            assert ez_element(boundary(x)) == boundary(ez_element(x))


def test_aw_is_chain_map():
    P = product_complex(2, 2)
    for k in range(1, 4):
        for gen in P.basis(k):
            x = P.el(ZZ, gen)
            assert aw(boundary(x)) == boundary(aw(x))


def test_aw_ez_is_identity():
    T = TensorComplex((simplex_complex(2), simplex_complex(1)))
    for k in range(0, 4):
        for gen in T.basis(k):
            x = T.el(ZZ, gen)
            assert aw(ez_element(x)) == x


def test_aw_commutes_with_contractions():
    # the h-commutation route: aw equals the standard-procedure map
    P = product_complex(2, 2)
    for k in range(0, 4):
        for gen in P.basis(k):
            x = P.el(ZZ, gen)
            assert aw(contract(x)) == contract(aw(x))


def test_ez_image_in_contraction_image():
    # uniqueness-criterion hypothesis: EZ of fundamental tensors lands in Im(h)
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        assert contract(ez(fundamental(m), fundamental(n), m, n)).is_zero()


def test_ez_associative_and_commutative_on_triples():
    faces = ((0, 1), (0, 1), (0, 1, 2))
    ambients = (1, 1, 2)
    # EZ with joint factors: each factor is a sequence of columns, whose
    # entries advance together
    def ez_joint(factors):
        from chainops.simplex import shuffle_words

        dims = [len(f) - 1 for f in factors]
        out = {}
        for sign, word in shuffle_words(dims):
            idx = [0] * len(factors)
            cols = [tuple(v for f in factors for v in f[0])]
            for letter in word:
                idx[letter] += 1
                cols.append(
                    tuple(v for i, f in enumerate(factors) for v in f[idx[i]])
                )
            cols = tuple(cols)
            out[cols] = out.get(cols, 0) + sign
        return {g: c for g, c in out.items() if c}

    def alone(face):
        return tuple((v,) for v in face)

    flat = ez_joint([alone(f) for f in faces])
    left = {}
    for c1, pair in ez_terms(faces[:2]):
        for cols, c2 in ez_joint([pair, alone(faces[2])]).items():
            left[cols] = left.get(cols, 0) + c1 * c2
    left = {g: c for g, c in left.items() if c}
    right = {}
    for c1, pair in ez_terms(faces[1:]):
        for cols, c2 in ez_joint([alone(faces[0]), pair]).items():
            right[cols] = right.get(cols, 0) + c1 * c2
    right = {g: c for g, c in right.items() if c}
    P = product_complex(*ambients)
    norm = lambda d: {
        g2: c for g, c in d.items() if (g2 := P.canonical(g)) is not None
    }
    assert norm(left) == norm(flat) == norm(right)

    # commutativity: EZ(b (x) a) = swap of EZ(a (x) b) with the Koszul sign
    a, b = (0, 1), (0, 1, 2)
    fwd = ez_terms((a, b))
    back = ez_terms((b, a))
    swapped = {tuple(col[::-1] for col in g): c for c, g in back}
    sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
    assert {g: sign * c for c, g in fwd} == swapped


def test_multidiagonal_golden():
    S = simplex_complex(1)
    x = S.el(ZZ, (0, 1))
    assert multidiagonal(1, x) is not None
    d2 = multidiagonal(2, x)
    assert dict(d2.terms) == {((0,), (0, 1)): 1, ((0, 1), (1,)): 1}
    with pytest.raises(InvalidInput):
        multidiagonal(0, x)


def test_multidiagonal_counts():
    for m, arity in [(2, 2), (3, 3), (2, 5), (4, 3)]:
        x = simplex_complex(m).el(ZZ, fundamental(m))
        val = multidiagonal(arity, x)
        assert len(val.terms) == comb(m + arity - 1, arity - 1)
    # a product of simplices is a complex of vertex sequences, its columns
    y = product_complex(1, 1).el(ZZ, ((0, 0), (0, 1), (1, 1)))
    for arity in (2, 3, 5):
        assert len(multidiagonal(arity, y).terms) == comb(2 + arity - 1, arity - 1)
    # N(BG) is not one
    BC3 = coinvariant_complex(CyclicGroup(3))
    with pytest.raises(InvalidInput):
        multidiagonal(2, BC3.el(ZZ, (0, 1)))


def test_multidiagonal_closed_equals_recursive():
    """The closed multidiagonal is Phi(id (x) Delta^m) of the standard
    procedure, over ZZ and over F_3, whose seed is in the engine's ring."""
    for arity in (2, 3, 4):
        identity = tuple(range(1, arity + 1))
        for std in (BFActionStandard(arity), BFActionStandard(arity, GF(3))):
            for m in range(0, 4):
                x = simplex_complex(m).el(std.ring, fundamental(m))
                # the memoized value itself, the seed's at m = 0
                phi = std.on_gen(identity, m)
                assert phi.ring == std.ring
                assert multidiagonal(arity, x) == phi


def test_multidiagonal_chain_map():
    for S in (simplex_complex(3), product_complex(2, 1)):
        for arity in (2, 3):
            for k in range(1, 4):
                for gen in S.basis(k):
                    x = S.el(ZZ, gen)
                    assert multidiagonal(arity, boundary(x)) == boundary(
                        multidiagonal(arity, x)
                    )


def test_products_are_contracted():
    # what a product inherits as a complex of vertex sequences: its faces
    # and the cone contraction, with h^2 = 0, h(iota) = 0 and dh + hd = 1 - rho
    for ambients in ((1, 1), (2, 1), (1, 1, 1)):
        check = verify_contracted(product_complex(*ambients), 3)
        assert check.ok, check


def test_diagonal_coassociative():
    # (Id x delta).delta = (delta x Id).delta on faces of Delta^3
    S = simplex_complex(3)
    T3 = tensor_power(3, 3)
    for k in range(0, 4):
        for gen in S.basis(k):
            x = S.el(ZZ, gen)
            two = multidiagonal(2, x)
            left = two.map_terms(
                lambda g: [
                    (c, (g[0],) + h)
                    for h, c in multidiagonal(
                        2, S.el(ZZ, g[1])
                    ).terms.items()
                ],
                codomain=T3,
            )
            right = two.map_terms(
                lambda g: [
                    (c, h + (g[1],))
                    for h, c in multidiagonal(
                        2, S.el(ZZ, g[0])
                    ).terms.items()
                ],
                codomain=T3,
            )
            assert left == right == multidiagonal(3, x)
