"""Table reduction TR: N(ESigma_n) -> S(n) and prism maps PR: S(n) -> N(ESigma_n).

TR is the partition-indexed row-extraction algorithm; the recursive
h-based definition is available through the generic standard-procedure
engine and is used as the differential oracle in the tests.  PR sends a
surjection to its Eilenberg-Zilber-triangulated prism, vertexwise
converted to permutations, with flavor signs c(x) and p(x).
"""

from .errors import InvalidInput
from .maclane import MacLaneComplex, sym_eg
from .perms import Perm
from .procedure import Report, StandardMap, first_fail
from .rings import ZZ
from .simplex import shuffle_words
from .surjections import (
    SurjectionComplex,
    caesura_word,
    iso_sign,
    surjection_complex,
    value_positions,
)

def _partitions(total, parts, row_capacity):
    """Positive partitions a_0 + ... + a_{k} = total with a_k >= 2 for k >= 1,
    a_j bounded by what remains of row j after earlier removals."""

    def rec(j, left, removed):
        cap = row_capacity - removed
        if j == parts - 1:
            need_last = 2 if parts > 1 else 1
            if need_last <= left <= cap:
                yield (left,)
            return
        for a in range(1, min(cap, left - (parts - 1 - j)) + 1):
            for rest in rec(j + 1, left - a, removed + a - 1):
                yield (a,) + rest

    yield from rec(0, total, 0)

def table_rows(X, partition):
    """Row extraction: the surjection x_a carved out of X by a partition a."""
    rows = [list(g.images) for g in X]
    seq = []
    for j, a in enumerate(partition):
        take = rows[j][:a]
        seq.extend(take)
        if j + 1 < len(rows):
            dead = set(take[:-1])
            for r in rows[j + 1 :]:
                r[:] = [v for v in r if v not in dead]
    return tuple(seq)

def table_reduction_terms(flavor, X):
    """All partition summands of TR(X), each with the sign of the iso
    S^bf -> S^flavor (for aj the recursion confirms p(x_a)c(x_a), not the
    bare p(x_a))."""
    n = X[0].n
    k = len(X) - 1
    sign = iso_sign("bf", flavor)
    rows = (table_rows(X, a) for a in _partitions(n + k, k + 1, n))
    return [(sign(x), x) for x in rows]

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
    return StandardMap(sym_eg(n), surjection_complex(flavor, n), ring=ring)

# -- prism maps ----------------------------------------------------------------

def _vertex_perm(x, pos, idx):
    """The permutation gamma_v of a prism vertex: values ordered by position."""
    n = len(idx)
    pairs = sorted((pos[v][idx[v - 1]], v) for v in range(1, n + 1))
    return Perm._trusted(tuple(v for _, v in pairs))

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
    for sign, word in shuffle_words(counts):
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

def roundtrip_check(flavor, n, max_degree, ring=ZZ):
    """TR . PR = Id and the fundamental-simplex dichotomy, exhaustively."""
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
