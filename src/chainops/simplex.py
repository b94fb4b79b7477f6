"""Normalized chains on standard simplices and products of simplices.

Vertices are named 0..m (the Part-III convention).  Faces are strictly
increasing vertex tuples; a generator of a product of simplices is a
tuple of equal-length rows, one per factor, individually allowed to
repeat vertices but jointly nondegenerate.

N(Delta^m) and N(EG) are both a VertexSequenceComplex: their simplices
are their vertex sequences, so they share their faces and one
multidiagonal.  The Alexander-Whitney, Eilenberg-Zilber, and
multidiagonal maps come in two forms: the closed formulas (front/back
faces, signed lattice paths, overlapping splittings) and the recursive
standard-procedure constructions, kept separate so the tests can play
them against each other.  EZ's recursion is procedure.EZStandard, which
pushes faces forward along push_face and face_vmap; the multidiagonal's
is the Berger-Fresse action's in degree 0 (action.BFActionStandard on
the identity surjection).
"""

from functools import lru_cache
from itertools import combinations, product as _product

from .complexes import ChainComplex, TensorComplex, VertexSequenceComplex
from .elements import Element
from .errors import InvalidInput
from .rings import ZZ


def _ordered_vertices(row, m):
    """Whether row is nondecreasing; InvalidInput at a vertex that is not
    an integer in 0..m."""
    prev = -1
    for v in row:
        if type(v) is not int or not 0 <= v <= m:
            raise InvalidInput(f"vertex {v!r} outside Delta^{m}")
        if v < prev:
            return False
        prev = v
    return True


class SimplexComplex(VertexSequenceComplex):
    """N_*(Delta^m) with the contraction h(x) = (0, x)."""

    def __init__(self, m):
        if m < 0:
            raise InvalidInput("ambient dimension must be >= 0")
        self.m = m
        self.name = f"N(Delta^{m})"

    def validate(self, gen):
        gen = self.entries(gen)
        if not _ordered_vertices(gen, self.m):
            raise InvalidInput(f"vertices {gen} out of order")
        return gen

    def format_gen(self, gen):
        return "(" + ",".join(str(v) for v in gen) + ")"

    def contraction_terms(self, gen):
        return [(1, (0,) + gen)]

    def basepoint_gen(self):
        return (0,)

    def basis(self, degree):
        if degree < 0 or degree > self.m:
            return
        for combo in combinations(range(self.m + 1), degree + 1):
            yield combo

    def __eq__(self, other):
        return isinstance(other, SimplexComplex) and other.m == self.m

    def __hash__(self):
        return hash(("simplex", self.m))


class ProductSimplexComplex(ChainComplex):
    """N_*(Delta^{m_1} x ... x Delta^{m_r}) with h = prepend the zero column.

    A pair of rows can be jointly nondegenerate even when each row
    repeats vertices, so normalisation only kills repeated columns.
    """

    def __init__(self, ambients):
        self.ambients = tuple(ambients)
        if not self.ambients:
            raise InvalidInput("empty product of simplices")
        self.name = "N(" + " x ".join(f"Delta^{m}" for m in self.ambients) + ")"

    def validate(self, gen):
        rows = tuple(map(self.entries, self.entries(gen)))
        if len(rows) != len(self.ambients):
            raise InvalidInput(f"a generator of {self.name} has {len(self.ambients)} rows")
        width = len(rows[0])
        if any(len(r) != width for r in rows) or width == 0:
            raise InvalidInput("product generator rows must share a length >= 1")
        for r, m in zip(rows, self.ambients):
            if not _ordered_vertices(r, m):
                raise InvalidInput(f"row {r} out of order")
        return rows

    def normalize(self, gen):
        """None when two neighbouring columns are equal."""
        for j in range(len(gen[0]) - 1):
            if all(r[j] == r[j + 1] for r in gen):
                return None
        return gen

    def degree_of(self, gen):
        return len(gen[0]) - 1

    def format_gen(self, gen):
        cols = list(zip(*gen))
        return "(" + ",".join("(" + ",".join(str(v) for v in col) + ")" for col in cols) + ")"

    def encode_gen(self, gen):
        return [list(r) for r in gen]

    def boundary_terms(self, gen):
        width = len(gen[0])
        if width <= 1:
            return []
        out = []
        for j in range(width):
            out.append(
                ((-1) ** j, tuple(r[:j] + r[j + 1 :] for r in gen))
            )
        return out

    def contraction_terms(self, gen):
        return [(1, tuple((0,) + r for r in gen))]

    def basepoint_gen(self):
        return tuple((0,) for _ in self.ambients)

    def basis(self, degree):
        width = degree + 1

        def rows_for(m):
            return [
                c
                for c in _product(range(m + 1), repeat=width)
                if all(c[i] <= c[i + 1] for i in range(width - 1))
            ]

        for combo in _product(*(rows_for(m) for m in self.ambients)):
            gen = self.normalize(combo)
            if gen is not None:
                yield gen

    def __eq__(self, other):
        return (
            isinstance(other, ProductSimplexComplex)
            and other.ambients == self.ambients
        )

    def __hash__(self):
        return hash(("prodsimplex", self.ambients))


@lru_cache(maxsize=None)
def simplex_complex(m):
    return SimplexComplex(m)


@lru_cache(maxsize=None)
def product_complex(*ambients):
    return ProductSimplexComplex(ambients)


@lru_cache(maxsize=None)
def tensor_power(m, n):
    return TensorComplex((simplex_complex(m),) * n)


@lru_cache(maxsize=None)
def tensor_pair(m, n):
    return TensorComplex((simplex_complex(m), simplex_complex(n)))


def fundamental(m):
    return tuple(range(m + 1))


# -- closed formulas ---------------------------------------------------------


def aw_terms(rows):
    """Front face (x) back face terms for a pair of equal-length rows: a
    generator of a product of two simplices, or of N(E(H x G)) split into
    its H and G rows."""
    sigma, tau = rows
    width = len(sigma)
    return [(1, (sigma[: j + 1], tau[j:])) for j in range(width)]


def aw(x):
    """AW: N(Delta^m x Delta^n) -> N(Delta^m) (x) N(Delta^n), linear."""
    src = x.complex
    if not isinstance(src, ProductSimplexComplex) or len(src.ambients) != 2:
        raise InvalidInput("aw expects a two-factor product of simplices")
    target = tensor_pair(*src.ambients)
    return x.map_terms(aw_terms, codomain=target)


def shuffle_words(counts):
    """All words with counts[i] copies of letter i, with the stable-sort sign."""

    def rec(remaining, prefix):
        if all(c == 0 for c in remaining):
            inv = 0
            for i in range(len(prefix)):
                for j in range(i + 1, len(prefix)):
                    if prefix[i] > prefix[j]:
                        inv += 1
            yield (-1 if inv % 2 else 1, tuple(prefix))
            return
        for letter, c in enumerate(remaining):
            if c:
                remaining2 = list(remaining)
                remaining2[letter] -= 1
                yield from rec(remaining2, prefix + [letter])

    yield from rec(list(counts), [])


def ez_columns(rows):
    """The signed lattice paths of EZ on a tuple of sequences: for every
    shuffle of the steps, its sign and the columns it visits, one entry
    per sequence."""
    dims = [len(r) - 1 for r in rows]
    for sign, word in shuffle_words(dims):
        idx = [0] * len(rows)
        cols = [tuple(r[0] for r in rows)]
        for letter in word:
            idx[letter] += 1
            cols.append(tuple(r[i] for r, i in zip(rows, idx)))
        yield sign, cols


def ez_terms(faces):
    """Signed lattice-path terms for EZ on a tuple of simplex faces."""
    return [(sign, tuple(zip(*cols))) for sign, cols in ez_columns(faces)]


def ez(a, b, m=None, n=None):
    """EZ(a (x) b) in N(Delta^m x Delta^n) for faces a, b."""
    if m is None:
        m = max(a)
    if n is None:
        n = max(b)
    target = product_complex(m, n)
    return Element(target, ZZ, len(a) + len(b) - 2, ez_terms((tuple(a), tuple(b))))


def ez_element(x):
    """Linear EZ on an element of a two-factor tensor of simplex chains."""
    src = x.complex
    if not isinstance(src, TensorComplex) or len(src.factors) != 2:
        raise InvalidInput("ez expects a two-factor tensor of simplex chains")
    target = product_complex(*(f.m for f in src.factors))
    return x.map_terms(lambda gen: ez_terms(gen), codomain=target)


def multidiagonal_terms(n, face):
    """All ordered overlapping splittings of a face into n blocks."""
    p = len(face) - 1
    out = []
    for cuts in combinations(range(p + n - 1), n - 1):
        # stars-and-bars: cut positions j_1 <= ... <= j_{n-1} in 0..p
        js = [c - i for i, c in enumerate(cuts)]
        pieces = []
        prev = 0
        for j in js:
            pieces.append(face[prev : j + 1])
            prev = j
        pieces.append(face[prev:])
        out.append((1, tuple(pieces)))
    return out


def multidiagonal(n, x):
    """The n-fold Alexander-Whitney multidiagonal, linear on elements of
    N(Delta^m), N(EG) or any other complex of vertex sequences."""
    if n < 1:
        raise InvalidInput("multidiagonal arity must be >= 1")
    src = x.complex
    if not isinstance(src, VertexSequenceComplex):
        raise InvalidInput("multidiagonal expects an element of N(Delta^m) or N(EG)")
    target = TensorComplex((src,) * n)
    return x.map_terms(lambda f: multidiagonal_terms(n, f), codomain=target)


# -- pushforwards along vertex maps ------------------------------------------


def push_face(vmap, face):
    return tuple(vmap[v] for v in face)


def push_simplex_element(x, vmap, target):
    """Push an element of N(Delta^k)^(x)n forward along a vertex map, a
    nondecreasing list of target vertices."""
    for f in target.factors:
        f.validate(vmap)
    return x.map_terms(
        lambda gen: [(1, tuple(push_face(vmap, f) for f in gen))],
        codomain=target,
    )


def face_vmap(m, j):
    """Vertex map of the j-th codimension-one face Delta^{m-1} -> Delta^m."""
    return [v if v < j else v + 1 for v in range(m)]

