"""Normalized chains on standard simplices and products of simplices.

Vertices are named 0..m (the Part-III convention).  Faces are strictly
increasing vertex tuples; a generator of a product of simplices is its
sequence of columns, one vertex of each factor per column, each row
allowed to repeat vertices but no two neighbouring columns equal.  Its
JSON form is its rows, one per factor.

N(Delta^m), N(Delta^m x Delta^n) and N(EG) are all a
VertexSequenceComplex: their simplices are their vertex sequences, so they
share their faces, the cone contraction and one multidiagonal, and one AW
serves N(Delta^m x Delta^n) and N(E(H x G)).  The Alexander-Whitney,
Eilenberg-Zilber, and multidiagonal maps come in two forms: the closed
formulas (front/back faces, signed lattice paths, overlapping splittings)
and the recursive standard-procedure constructions, kept separate so the
tests can play them against each other.  EZ's recursion is
procedure.EZStandard, which pushes one coordinate of each column forward
along face_vmap; the multidiagonal's is the Berger-Fresse action's in
degree 0 (action.BFActionStandard on the identity surjection).
"""

from functools import lru_cache
from itertools import combinations, product as _product

from .complexes import TensorComplex, VertexSequenceComplex
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
    """N_*(Delta^m), its cone the vertex 0."""

    cone = 0

    def __init__(self, m):
        if m < 0:
            raise InvalidInput("ambient dimension must be >= 0")
        self.m = m
        self.name = f"N(Delta^{m})"

    def validate(self, gen):
        gen = self.entries(gen)
        if not gen:
            raise InvalidInput(f"a generator of {self.name} has at least one vertex")
        if not _ordered_vertices(gen, self.m):
            raise InvalidInput(f"vertices {gen} out of order")
        return gen

    def format_gen(self, gen):
        return "(" + ",".join(str(v) for v in gen) + ")"

    def basis(self, degree):
        if degree < 0 or degree > self.m:
            return
        for combo in combinations(range(self.m + 1), degree + 1):
            yield combo

    def __eq__(self, other):
        return isinstance(other, SimplexComplex) and other.m == self.m

    def __hash__(self):
        return hash(("simplex", self.m))


class ProductSimplexComplex(VertexSequenceComplex):
    """N_*(Delta^{m_1} x ... x Delta^{m_r}), its cone the zero column.

    A simplex is its sequence of columns, one vertex of each factor per
    column, with every coordinate nondecreasing.  A row may repeat a
    vertex, so only two equal neighbouring columns are degenerate.  The
    JSON form of a generator is its rows, one per factor.
    """

    def __init__(self, ambients):
        self.ambients = tuple(ambients)
        if not self.ambients:
            raise InvalidInput("empty product of simplices")
        self.name = "N(" + " x ".join(f"Delta^{m}" for m in self.ambients) + ")"
        self.factors = tuple(map(simplex_complex, self.ambients))
        self.cone = (0,) * len(self.ambients)

    def validate(self, gen):
        """The columns, each with one entry per row, checked row by row as
        the CLI's rows are."""
        cols = tuple(map(self.entries, self.entries(gen)))
        if not cols:
            raise InvalidInput("product generator rows must share a length >= 1")
        if any(len(c) != len(self.ambients) for c in cols):
            raise InvalidInput(f"a generator of {self.name} has {len(self.ambients)} rows")
        for row, m in zip(zip(*cols), self.ambients):
            if not _ordered_vertices(row, m):
                raise InvalidInput(f"row {row} out of order")
        return cols

    def format_gen(self, gen):
        return "(" + ",".join("(" + ",".join(str(v) for v in col) + ")" for col in gen) + ")"

    def encode_gen(self, gen):
        return [list(row) for row in zip(*gen)]

    def basis(self, degree):
        """Chains of degree + 1 columns, increasing in every coordinate
        and so in lexicographic order."""
        if degree < 0:
            return
        columns = _product(*(range(m + 1) for m in self.ambients))
        for gen in combinations(columns, degree + 1):
            if all(u <= v for a, b in zip(gen, gen[1:]) for u, v in zip(a, b)):
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


def fundamental(m):
    return tuple(range(m + 1))


# -- closed formulas ---------------------------------------------------------


def aw_terms(gen):
    """Front face (x) back face terms of a sequence of two-entry columns: a
    generator of N(Delta^m x Delta^n) or of N(E(H x G))."""
    first, second = zip(*gen)
    return [(1, (first[: j + 1], second[j:])) for j in range(len(gen))]


def aw(x):
    """AW: N(Delta^m x Delta^n) -> N(Delta^m) (x) N(Delta^n), and
    N(E(H x G)) -> N(EH) (x) N(EG), linear; the factors are the product's."""
    src = x.complex
    factors = getattr(src, "factors", ())
    if not isinstance(src, VertexSequenceComplex) or len(factors) != 2:
        raise InvalidInput("aw expects an element of N(Delta^m x Delta^n) or N(E(H x G))")
    return x.map_terms(aw_terms, codomain=TensorComplex(factors))


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
    """Signed lattice-path terms for EZ on a tuple of sequences, each term
    the sequence of columns its path visits."""
    return [(sign, tuple(cols)) for sign, cols in ez_columns(faces)]


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
    return x.map_terms(ez_terms, codomain=target)


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
    N(Delta^m), N(Delta^m x Delta^n), N(EG) or any other complex of vertex
    sequences."""
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

