"""Operad structure maps: the symmetric-group operad, the Barratt-Eccles
operad on N(ESigma_n), and the surjection operad on S(n).

The closed forms (EZ followed by vertexwise O_Sigma for Barratt-Eccles,
k-divisions with caesura-shuffle signs for the Berger-Fresse surjection
operad) are tested against the recursive twisted-equivariant engine,
procedure.TwistedOperadMap, which be_engine and surj_engine build and
engine_compose evaluates.  The ms and aj surjection structure maps are
obtained by conjugating with the flavor isomorphisms.

An operad is named by its family: "be" for Barratt-Eccles, a flavor for
surjections.  component(family, n) is its arity-n component, through
complexes.named_complex, and domain(family, arities) a composite's
domain, memoized once for the closed composites and the engines alike.
Every composite, closed or recursive, takes its inputs through one step,
_tensor_input, which only checks them: it reads the arities from the
inputs, holds them to the ring asked for (an engine's own), and tensors
them into the composite's domain, where tensor_elements refuses an input
of another family or flavor and builds the tensor factor by factor.  The
closed surjection composite reads the outer input's first-occurrence
permutation straight from the generator, and its caesura-shuffle sign in
one pass; the engine splits a tensor in one decomposition per factor
(procedure.TwistedOperadMap.split).
"""

from functools import lru_cache
from itertools import combinations_with_replacement, product as _product

from .complexes import TensorComplex, named_complex, package_module, tensor_elements
from .errors import InvalidInput
from .perms import Perm, block_perm, koszul_sign
from .rings import ZZ
from .surjections import first_occurrence_perm, iso, surjection_complex


def sigma_compose(u, vs):
    """O_Sigma(u; v_1, ..., v_r) = (v_1 + ... + v_r) * u_*(|v_1|, ..., |v_r|):
    the block permutation of u first, then each v_i within its block."""
    if len(u) != len(vs):
        raise InvalidInput("outer arity does not match the number of inner inputs")
    starts = [0]
    for v in vs:
        starts.append(starts[-1] + len(v))
    out = []
    for b in u:
        base = starts[b - 1]
        out += vs[b - 1] if base == 0 else [base + i for i in vs[b - 1]]
    return tuple.__new__(Perm, out)


def oplus(vs):
    """v_1 + ... + v_r acting blockwise (the direct-sum permutation)."""
    return sigma_compose(Perm.identity(len(vs)), vs)


# -- the one input step of the composites ---------------------------------------------

# The composites' domains, memoized within a bound and shared by the closed
# composites and the engines: building a TensorComplex costs about as much
# as a small composite, and three rounds of the operad benchmark make 2,376
# lookups over 6 (family, arities) keys.
DOMAIN_MEMO = 64


def component(family, n):
    """The arity-n component of the family's operad: N(ESigma_n) for
    Barratt-Eccles, family "be", else S^family(n)."""
    return named_complex("eg" if family == "be" else family, n)


@lru_cache(maxsize=DOMAIN_MEMO)
def domain(family, arities):
    """component(r) (x) component(s1) (x) ...: a composite's domain."""
    return TensorComplex(tuple(component(family, n) for n in arities))


def _arity(x):
    """The r of the Sigma_r acting on an input's complex."""
    try:
        return x.complex.group.n
    except AttributeError:
        raise InvalidInput("an input is not in a component of an operad") from None


def _tensor_input(family, outer, inners, ring=None):
    """(arities, outer (x) inner_1 (x) ... (x) inner_r in domain(family, arities))."""
    if ring is not None and ring != outer.ring:
        raise InvalidInput(f"inputs are over {outer.ring}, not {ring}")
    arities = (_arity(outer),) + tuple(map(_arity, inners))
    if arities[0] != len(inners):
        raise InvalidInput("outer arity does not match the number of inner inputs")
    return arities, tensor_elements(domain(family, arities), outer, *inners)


def engine_compose(engine, outer, inners):
    """A TwistedOperadMap over its ring on elements (outer; inner_1, ..., inner_r)."""
    arities, x = _tensor_input(engine.family, outer, inners, engine.ring)
    return engine.apply(arities, x)


# -- closed form: Barratt-Eccles ----------------------------------------------------


def be_compose_terms(gen, arities):
    """EZ of the tuple tensor followed by vertexwise O_Sigma."""
    return [
        (sign, tuple(sigma_compose(col[0], list(col[1:])) for col in cols))
        for sign, cols in package_module("simplex").ez_columns(gen)
    ]


def be_compose(outer, inners, ring=None):
    """O_E: N(ESigma_r) (x) N(ESigma_s1) (x) ... -> N(ESigma_s), closed form,
    over the inputs' ring."""
    arities, x = _tensor_input("be", outer, inners, ring)
    return x.map_terms(
        lambda gen: be_compose_terms(gen, arities),
        codomain=component("be", sum(arities[1:])),
    )


# -- closed form: the surjection operad (Berger-Fresse signs) ------------------------


def k_divisions(y, k):
    """All k-divisions of the tuple y: k subtuples overlapping in k-1
    repeated entries."""
    m = len(y)
    for cuts in combinations_with_replacement(range(1, m + 1), k - 1):
        subs = []
        prev = 1
        for c in cuts:
            subs.append(y[prev - 1 : c])
            prev = c
        subs.append(y[prev - 1 :])
        yield tuple(subs)


def division_substitution(x, divisions):
    """D x: replace the successive i-entries of x by the division subtuples
    of y_i; record the x-caesura positions (final entries of non-final
    subtuples) and the value tag of every position."""
    counters = [0] * (len(divisions) + 1)
    seq = []
    x_caesura_pos = set()
    tags = []
    for v in x:
        sub = divisions[v - 1][counters[v - 1]]
        is_final = counters[v - 1] == len(divisions[v - 1]) - 1
        counters[v - 1] += 1
        seq.extend(sub)
        tags.extend([v] * len(sub))
        if not is_final:
            x_caesura_pos.add(len(seq))
    return tuple(seq), x_caesura_pos, tags


def division_sign(dx, x_caesura_pos, tags):
    """(-1)^sh(C_x, C_D): parity of the stable shuffle sorting the tagged
    caesura word of D x into (x-caesuras, y_1-caesuras, ..., y_r-caesuras).

    An x-caesura (rank 0) preceded by any y-caesura is an inversion, and
    so is a y_j-caesura preceded by a y_i-caesura with i > j; omitting
    the second kind breaks d.Phi = Phi.d at total degree 3.

    One pass from the right: an entry is a caesura when its value was met,
    and a caesura makes an inversion with every caesura of lower rank to
    its right.
    """
    met = set()
    below = [0] * (max(tags) + 1)
    count = 0
    for p in range(len(dx), 0, -1):
        v = dx[p - 1]
        if v not in met:
            met.add(v)
            continue
        rank = 0 if p in x_caesura_pos else tags[p - 1]
        count += sum(below[:rank])
        below[rank] += 1
    return -1 if count % 2 else 1


def surj_compose_bf_terms(x, ys):
    """Summands of Phi(x; y_1, ..., y_r) in S^bf with caesura-shuffle signs."""
    r = max(x)
    counts = [0] * r
    for v in x:
        counts[v - 1] += 1
    shifts = [0]
    for y in ys:
        shifts.append(shifts[-1] + max(y))
    shifted = [tuple(v + shifts[i] for v in y) for i, y in enumerate(ys)]
    out = []
    for combo in _product(
        *(list(k_divisions(y, counts[i])) for i, y in enumerate(shifted))
    ):
        dx, xpos, tags = division_substitution(x, combo)
        out.append((division_sign(dx, xpos, tags), dx))
    return out


def surj_compose_terms(gen, arities):
    """O_S^bf on a pure tensor (x, y_1, ..., y_r) of generators.

    The division formula applies verbatim when the outer x is
    a basis generator; a general x = g.b is handled by the twisted
    equivariance O(g b; y_i) = kappa . g_*(s_i) O(b; y_g(1), ...), with
    the Koszul sign kappa of the tau_g factor permutation.
    """
    x, ys = gen[0], list(gen[1:])
    sizes = list(arities[1:])
    g = first_occurrence_perm(x)
    if g.is_identity():
        return surj_compose_bf_terms(x, ys)
    degrees = [len(y) - s for y, s in zip(ys, sizes)]
    g_inv = g.inverse()
    kappa = koszul_sign(g_inv, degrees)
    reordered = [ys[v - 1] for v in g]
    b = tuple([g_inv[v - 1] for v in x])
    base = surj_compose_bf_terms(b, reordered)
    blocks = block_perm(g, sizes)
    return [(kappa * c, tuple([blocks[v - 1] for v in t])) for c, t in base]


def surj_compose(flavor, outer, inners, ring=None):
    """O_S on S^flavor over the inputs' ring; bf natively, ms/aj by
    conjugating the isomorphisms."""
    arities, x = _tensor_input(flavor, outer, inners, ring)
    if flavor != "bf":
        outer_bf = iso(flavor, "bf", outer)
        inners_bf = [iso(flavor, "bf", y) for y in inners]
        return iso("bf", flavor, surj_compose("bf", outer_bf, inners_bf))
    return x.map_terms(
        lambda gen: surj_compose_terms(gen, arities),
        codomain=surjection_complex("bf", sum(arities[1:])),
    )


def partial_compose(flavor, i, x, y, ring=None):
    """O_i(x; y): the structure map with all inner inputs trivial except the
    i-th, over the inputs' ring."""
    r = _arity(x)
    if not 1 <= i <= r:
        raise InvalidInput(f"slot {i} outside 1..{r}")
    unit = surjection_complex(flavor, 1).el(x.ring if ring is None else ring, (1,))
    inners = [unit] * r
    inners[i - 1] = y
    return surj_compose(flavor, x, inners, ring)


def compose(family, outer, inners, ring=None):
    """The closed structure map of the family's operad: be_compose for
    family "be", else surj_compose on S^family."""
    if family == "be":
        return be_compose(outer, inners, ring)
    return surj_compose(family, outer, inners, ring)


def be_engine(ring=ZZ):
    from .procedure import TwistedOperadMap

    return TwistedOperadMap("be", ring)


def surj_engine(flavor="bf", ring=ZZ):
    from .procedure import TwistedOperadMap

    return TwistedOperadMap(flavor, ring)
