"""Table reduction TR: N(ESigma_n) -> S(n) and prism maps PR: S(n) -> N(ESigma_n).

TR is the partition-indexed row-extraction algorithm; the recursive
h-based definition is available through the generic standard-procedure
engine and is used as the differential oracle in the tests.  PR sends a
surjection to its Eilenberg-Zilber-triangulated prism, vertexwise
converted to permutations, with flavor signs c(x) and p(x).
"""

from .complexes import package_module
from .errors import InvalidInput
from .maclane import MacLaneComplex, sym_eg
from .perms import Perm
from .rings import ZZ
from .surjections import (
    SurjectionComplex,
    caesura_word,
    iso_sign,
    surjection_complex,
    value_positions,
)

def table_rows(X):
    """Row extraction: the surjections x_a carved out of the table X, one
    per partition a_0 + ... + a_k = n + k with a_j >= 1 and a_k >= 2 for
    k >= 1, in lexicographic order of a.  Row j, stripped of the values
    that earlier rows gave up (each row's taken entries but its last),
    contributes its first a_j entries, so a_j is at most its length."""
    last = len(X) - 1
    out = []

    def rec(j, left, dead, prefix):
        row = tuple([v for v in X[j] if v not in dead]) if dead else X[j]
        if j == last:
            if (2 if last else 1) <= left <= len(row):
                out.append(prefix + row[:left])
            return
        for a in range(1, min(len(row), left - (last - j)) + 1):
            rec(j + 1, left - a, dead + row[: a - 1], prefix + row[:a])

    rec(0, len(X[0]) + last, (), ())
    return out

def table_reduction_terms(flavor, X):
    """All partition summands of TR(X), each with the sign of the iso
    S^bf -> S^flavor (for aj the recursion confirms p(x_a)c(x_a), not the
    bare p(x_a))."""
    sign = iso_sign("bf", flavor)
    return [(sign(x), x) for x in table_rows(X)]

def table_reduction(flavor, x):
    """TR (tr for the aj flavor): N(ESigma_n) -> S^flavor(n), linear."""
    src = x.complex
    if not isinstance(src, MacLaneComplex):
        raise InvalidInput("table_reduction expects an element of N(ESigma_n)")
    n = src.group.n
    target = surjection_complex(flavor, n)
    return x.map_terms(
        lambda gen: table_reduction_terms(flavor, gen), codomain=target
    )

def table_reduction_standard(flavor, n, ring=ZZ):
    """The recursive standard-procedure TR, the oracle for the closed form."""
    from .procedure import StandardMap

    return StandardMap(sym_eg(n), surjection_complex(flavor, n), ring=ring)

# -- prism maps ----------------------------------------------------------------

def _vertex_perm(x, pos, idx):
    """The permutation gamma_v of a prism vertex: values ordered by position."""
    n = len(idx)
    pairs = sorted((pos[v][idx[v - 1]], v) for v in range(1, n + 1))
    return Perm._trusted(v for _, v in pairs)

def path_simplex(x, word):
    """The maximal prism simplex named by a path word (values of caesura
    steps); returns the tuple of vertex permutations, possibly degenerate."""
    n = max(x)
    pos = value_positions(x, n)
    idx = [0] * n
    verts = [_vertex_perm(x, pos, idx)]
    for v in word:
        idx[v - 1] += 1
        verts.append(_vertex_perm(x, pos, idx))
    return tuple(verts)

def fundamental_simplex(x):
    """The maximal simplex whose edge path follows the caesura order."""
    return path_simplex(x, caesura_word(x))

def base_simplex(x):
    word = tuple(sorted(caesura_word(x)))
    return path_simplex(x, word)

def prism_terms(x):
    """EZ triangulation of Prism(x) pushed into N(ESigma_n): the ms prism map."""
    n = max(x)
    counts = [0] * n
    for w in caesura_word(x):
        counts[w - 1] += 1
    out = []
    for sign, word in package_module("simplex").shuffle_words(counts):
        simplex = path_simplex(x, tuple(v + 1 for v in word))
        out.append((sign, simplex))
    return out

def prism_map(flavor, x):
    """PR (pr for aj): S^flavor(n) -> N(ESigma_n)."""
    src = x.complex
    if not isinstance(src, SurjectionComplex) or src.flavor != flavor:
        raise InvalidInput(f"prism_map expects an element of S^{flavor}")
    target = sym_eg(src.n)
    sign_fn = iso_sign(flavor, "ms")

    def terms(gen):
        s = sign_fn(gen)
        return [(s * c, t) for c, t in prism_terms(gen)]

    return x.map_terms(terms, codomain=target)
