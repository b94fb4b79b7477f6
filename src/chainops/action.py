"""The Berger-Fresse chain-level action Phi: S^bf(n) (x) N(Delta^m) ->
N(Delta^m)^(x)n, its composites, mod-p constants, and the dual cochain
evaluation.

The closed formula sums over monomials of the (n+k)-fold multidiagonal
of Delta^m with the shuffle and position signs; the functorial
recursion phi(b (x) Delta^m) = h(phi(d(b (x) Delta^m))) with faces
pushed forward from their models is kept alongside as the oracle.
"""

from functools import lru_cache, partial
from itertools import combinations_with_replacement, compress, product, repeat
from operator import add, and_, mul, neg

from .complexes import boundary
from .elements import Element, add_terms, built, collect
from .errors import InvalidInput, check_guard, term_guard
from .groups import SymmetricGroup
from .perms import koszul_permute
from .procedure import RecursiveMap
from .rings import GF, ZZ, _is_prime
from .simplex import face_vmap, push_face, tensor_power
from .surjections import SurjectionComplex, caesuras, iso, surjection_complex


def bf_action_terms(x, m):
    """Signed tensor terms of Phi(x (x) Delta^m) for a bf generator x."""
    n = max(x)
    nk = len(x)
    caes = set(caesuras(x))
    out = []
    for interior in combinations_with_replacement(range(m + 1), nk - 1):
        ms = (0,) + interior + (m,)
        # blocks B_j = (ms[j-1] .. ms[j]); faces F_l amalgamate by value
        faces = [[] for _ in range(n)]
        degenerate = False
        pos_exp = 0
        lengths = []
        for j in range(1, nk + 1):
            lo, hi = ms[j - 1], ms[j]
            f = faces[x[j - 1] - 1]
            if f and f[-1] == lo:
                degenerate = True
                break
            f.extend(range(lo, hi + 1))
            if j in caes:
                lengths.append(hi - lo + 1)
                pos_exp += hi
            else:
                lengths.append(hi - lo)
        if degenerate:
            continue
        sh_exp = 0
        for j in range(nk):
            for jp in range(j + 1, nk):
                if x[j] > x[jp]:
                    sh_exp += lengths[j] * lengths[jp]
        sign = -1 if (sh_exp + pos_exp) % 2 else 1
        out.append((sign, tuple(tuple(f) for f in faces)))
    return out


def bf_action(x, m):
    """Phi(x (x) Delta^m), linear in an S^bf element x."""
    src = x.complex
    if not isinstance(src, SurjectionComplex) or src.flavor != "bf":
        raise InvalidInput("bf_action expects an S^bf element")
    target = tensor_power(m, src.n)
    return x.map_terms(
        lambda gen: bf_action_terms(gen, m), codomain=target, degree_shift=m
    )


def perm_terms(target, g, gen):
    """g . gen in the tensor power target: the factors permuted, with their
    Koszul sign, as one (sign, generator) pair."""
    degrees = [f.degree_of(a) for f, a in zip(target.factors, gen)]
    return (koszul_permute(g, gen, degrees),)


def perm_act(g, x):
    """Left Sigma_n action on a tensor power with Koszul signs."""
    return x.map_terms(partial(perm_terms, x.complex, g))


class BFActionStandard(RecursiveMap):
    """The functorial standard procedure for Phi, memoized on (basis
    generator, ambient dimension).  The seed is Phi(b (x) Delta^0): the
    basepoint (0) (x) ... (x) (0) in degree 0 and zero above; every m > 0
    is h(defect).  In degree 0 Phi(id (x) Delta^m) is the multidiagonal,
    so this recursion is also the oracle of simplex.multidiagonal.  A
    twist permutes the tensor factors, as perm_act does."""

    _act_terms = staticmethod(perm_terms)

    def __init__(self, n, ring=ZZ):
        super().__init__(ring)
        self.n = n
        self.S = surjection_complex("bf", n)

    def target(self, m):
        return tensor_power(m, self.n)

    def seed(self, key):
        b, m = key
        if m != 0:
            return None
        k = self.S.degree_of(b)
        if k == 0:
            return self.target(0).basepoint(self.ring)
        return self.target(0).zero(self.ring, k)

    def defect(self, key):
        """Phi(d b (x) Delta^m) plus the faces of Delta^m pushed forward
        from Phi(b (x) Delta^(m-1))."""
        b, m = key
        k = self.S.degree_of(b)
        below = self.apply(boundary(built(self.S, self.ring, b)), m)
        pairs = [(c, g) for g, c in below.terms.items()]
        inner = self.on_basis((b, m - 1)).terms.items()
        for j in range(m + 1):
            vmap = face_vmap(m, j)
            sign = -1 if (k + j) % 2 else 1
            pairs.extend(
                (sign * c, tuple(push_face(vmap, f) for f in gen)) for gen, c in inner
            )
        return collect(self.target(m), self.ring, k + m - 1, pairs)

    def split(self, gen, m):
        g, coeff, b = self.S.decompose(gen)
        return (b, m), coeff, None if g.is_identity() else g

    def apply(self, x, m):
        return self._map(x, self.target(m), m, m)


# -- composites through TR, phi, and the flavor isomorphisms -----------------------


def action_for(x, m):
    """The chain-level action for elements of N(ESigma_n), M_*, S^aj, S^ms:
    the composite through the bf action, table reduction, and the flavor isomorphisms."""
    src = x.complex
    if isinstance(src, SurjectionComplex):
        if src.flavor == "bf":
            return bf_action(x, m)
        return bf_action(iso(src.flavor, "bf", x), m)
    from .maclane import InducedMap, MacLaneComplex, cyc_eg, cyclic_into_symmetric, sym_eg
    from .minimal import MinimalComplex, phi_to_EC
    from .morphisms import table_reduction

    if isinstance(src, MacLaneComplex):
        if not isinstance(src.group, SymmetricGroup):
            raise InvalidInput("action_for needs a symmetric MacLane model")
        return bf_action(table_reduction("bf", x), m)
    if isinstance(src, MinimalComplex):
        p = src.n
        incl = InducedMap(cyclic_into_symmetric(p), cyc_eg(p), sym_eg(p), x.ring)
        return bf_action(table_reduction("bf", incl(phi_to_EC(x))), m)
    raise InvalidInput(f"no chain action for elements of {src}")


def steenrod_constant(m, p):
    """c_{m,p} = (-1)^((m(m-1)/2)(p(p-1)/2)) (q!)^m mod p, q = (p-1)/2."""
    if p == 2 or not _is_prime(p):
        raise InvalidInput("steenrod_constant expects an odd prime")
    if m < 0:
        raise InvalidInput(f"steenrod_constant expects m >= 0, got {m}")
    q = (p - 1) // 2
    qfac = 1
    for i in range(2, q + 1):
        qfac *= i
    sign = -1 if ((m * (m - 1) // 2) * (p * (p - 1) // 2)) % 2 else 1
    return (sign * qfac**m) % p


# -- cochain evaluation through the graded duality pairing --------------------------


class Space:
    """What cochain operations read of a simplicial set.  A subclass gives
    dims, a map from simplex id to dimension, and face(sid, j), the face d_j
    of a nondegenerate simplex: (id, None) when it is the nondegenerate id,
    (id, epi) when it is a degeneracy of the nondegenerate id, with epi the
    weakly increasing map of its vertices onto those of id, or None when it
    is degenerate but not known which.

    The rest derives here, on first use and never in __init__, and is kept
    with the space: the simplex order, walk() from face(), a walk map per
    (dimension, walk), and from a walk map the mask index of masks() (over
    F_2)."""

    def __init__(self, dims):
        self.dims = dims
        self._by_dim = None
        self._walks = {}
        self._masks = {}

    def simplices(self, d):
        """The ids of the d-simplices ordered by str(id), as a tuple; the
        order is computed once, on first use."""
        if self._by_dim is None:
            by_dim = {}
            for sid in sorted(self.dims, key=str):
                by_dim.setdefault(self.dims[sid], []).append(sid)
            self._by_dim = {e: tuple(sids) for e, sids in by_dim.items()}
        return self._by_dim.get(d, ())

    def face(self, sid, j):
        """The face d_j of the nondegenerate simplex sid, as above."""
        raise NotImplementedError

    def walk(self, sid, walk):
        """The face a deletion walk reaches from sid, or None.  A walk is a
        tuple of model vertices to delete, highest first, and walk() the one
        face read on the evaluation path (a coboundary takes the one-step
        walks).

        The simplex on the way is a nondegenerate id and the epi of its
        vertices onto id's (None while that is the identity).  A deletion
        drops one vertex of the epi, and reads a face only where no other
        vertex lies over the same vertex of id; while the simplex stays
        nondegenerate, each step is one face.  None where the walk ends on a
        degenerate simplex, on which cochains vanish, or meets a null face."""
        face, face_of = self.face, self._face_of
        epi = None
        for v in walk:
            step = face(sid, v) if epi is None else face_of(sid, epi, v)
            if step is None:
                return None
            sid, epi = step
        return sid if epi is None else None

    def _face_of(self, sid, epi, j):
        """The face d_j of the simplex (sid, epi), the nondegenerate sid when
        epi is None and else its degeneracy that epi describes, as face()
        gives it.  d_j drops vertex j of the epi, and reads a face of sid
        only where no other vertex lies over the same vertex of sid."""
        if epi is None:
            return self.face(sid, j)
        w = epi[j]
        epi = epi[:j] + epi[j + 1 :]
        if w in epi:
            # another vertex lies over w: no face, and the identity again
            # once the epi is as long as it is onto
            return sid, (None if epi[-1] == len(epi) - 1 else epi)
        step = self.face(sid, w)
        if step is None:
            return None
        sid, inner = step
        epi = tuple(u - (u > w) for u in epi)
        return sid, (epi if inner is None else tuple(map(inner.__getitem__, epi)))

    def walk_map(self, d, walk):
        """walk() from every d-simplex: the list of the faces it reaches, in
        simplices(d) order, with None where it ends.  Built on first use and
        kept with the space."""
        faces = self._walks.get((d, walk))
        if faces is None:
            faces = self._walks[d, walk] = [self.walk(t, walk) for t in self.simplices(d)]
        return faces

    def masks(self, d, walk):
        """The mask index of a walk: each face it reaches from a d-simplex ->
        the bitmask (bit p for position p in simplices(d)) of the d-simplices
        that land there.  The masks are disjoint, and together they cover the
        d-simplices whose walk does not end.  Built on first use and kept
        with the space: about len(simplices(d))/8 bytes per face reached."""
        index = self._masks.get((d, walk))
        if index is None:
            landings = {}
            for pos, t in enumerate(self.walk_map(d, walk)):
                if t is not None:
                    landings.setdefault(t, []).append(pos)
            index = self._masks[d, walk] = {
                t: sum(map((1).__lshift__, positions)) for t, positions in landings.items()
            }
        return index


class FaceTable(Space):
    """A finite simplicial-set fragment: nondegenerate simplices with ids,
    dimensions and ordered face lists.  A face is the id of a simplex one
    dimension lower; or a degeneracy record {"of": id, "s": [k_1, ..., k_m]},
    the degenerate simplex s_{k_1}...s_{k_m}(id) with k_1 > ... > k_m, the
    one form it has; or null, a face that is degenerate but not known which
    (so no simplex may have a null id).

    face() reads the face lists; subface() is a separate walk, the one the
    oracle of the tests takes.  A table whose degenerate faces are records
    is exact for cochain operations.  A walk ends at a null face, so one
    with null faces is exact only where no walk needs a face of a null face."""

    def __init__(self, data):
        try:
            top = data["dim"]
            simplices = data["simplices"]
        except (KeyError, TypeError):
            raise InvalidInput("a face table needs a 'dim' and a 'simplices' list") from None
        if type(top) is not int or top < 0:
            raise InvalidInput("a face table needs a non-negative integer 'dim'")
        dims = {}
        self.faces = {}
        for s in simplices:
            try:
                sid, dim = s["id"], s["dim"]
            except (KeyError, TypeError):
                raise InvalidInput(f"simplex {s!r} needs an 'id' and a 'dim'") from None
            if sid is None:
                raise InvalidInput(f"simplex {s!r} has a null id; null marks a degenerate face")
            faces = s.get("faces", [])
            if type(dim) is not int or dim < 0:
                raise InvalidInput(f"simplex {sid!r} needs a non-negative integer 'dim'")
            if dim > top:
                raise InvalidInput(f"simplex {sid!r} has dim {dim} above the table's dim {top}")
            if not isinstance(faces, list):
                raise InvalidInput(f"the faces of simplex {sid!r} must be a list")
            if dim > 0 and len(faces) != dim + 1:
                raise InvalidInput(f"simplex {sid} needs {dim + 1} faces")
            try:
                twice = sid in dims
            except TypeError:
                raise InvalidInput(f"simplex id {sid!r} is a list or an object") from None
            if twice:
                raise InvalidInput(f"two simplices have the id {sid!r}")
            dims[sid] = dim
            self.faces[sid] = list(faces)
        for sid, faces in self.faces.items():
            want = dims[sid] - 1
            for f in faces:
                dim = want
                if type(f) is dict:
                    ks = f.get("s")
                    if not (isinstance(ks, list) and all(type(k) is int for k in ks)):
                        raise InvalidInput(f"record {f!r} of simplex {sid!r} needs a list 's' of ints")
                    if not (ks and all(a > b for a, b in zip([want, *ks], [*ks, -1]))):
                        raise InvalidInput(
                            f"record {f!r} of simplex {sid!r} needs 's' strictly "
                            f"decreasing in 0..{want - 1}"
                        )
                    dim -= len(ks)
                    f = f.get("of")
                elif f is None:
                    continue
                try:
                    # no simplex has a null id, so a record without 'of' fails
                    ok = dims.get(f) == dim
                except TypeError:
                    raise InvalidInput(
                        f"face {f!r} of simplex {sid!r} is a list or an object"
                    ) from None
                if not ok:
                    raise InvalidInput(
                        f"face {f!r} of simplex {sid!r} is not a simplex of dimension {dim}"
                    )
        super().__init__(dims)
        self._check_identities()

    def _check_identities(self):
        """InvalidInput unless d_i d_j = d_(j-1) d_i for i < j on every
        simplex of dimension >= 2.  Two plain face ids are compared by their
        face lists; elsewhere both sides are _face_of values, so records are
        pushed through.  A side that meets a null face is not compared: null
        does not say which degenerate simplex it is."""
        faces = self.faces
        for sid, fs in faces.items():
            if self.dims[sid] < 2:
                continue
            # the face list of each face with a plain id, else None
            lists = [None if f is None or type(f) is dict else faces[f] for f in fs]
            for j in range(1, len(lists)):
                dj = lists[j]
                for i in range(j):
                    di = lists[i]
                    if dj is not None and di is not None and dj[i] == di[j - 1]:
                        continue
                    ji, ij = self.face(sid, j), self.face(sid, i)
                    ji = ji and self._face_of(*ji, i)
                    ij = ij and self._face_of(*ij, j - 1)
                    if ji is not None and ij is not None and ji != ij:
                        raise InvalidInput(
                            f"simplex {sid!r} breaks the simplicial identity "
                            f"d_{i} d_{j} = d_{j - 1} d_{i}"
                        )

    def face(self, sid, j):
        f = self.faces[sid][j]
        if type(f) is not dict:
            return None if f is None else (f, None)
        ks = f["s"]
        return f["of"], tuple(i - sum(k < i for k in ks) for i in range(self.dims[sid]))

    def subface(self, sid, vertices):
        """The iterated face of sid spanned by a vertex subset of its model,
        or None where it is degenerate or meets a null face.  The face on
        the way is s_{k_1}...s_{k_m}(id), and a deletion d_j moves past each
        s_i by the simplicial identities: d_j s_i is s_(i-1) d_j for j < i,
        the identity for j = i or i + 1, and s_i d_(j-1) for j > i + 1."""
        d = self.dims[sid]
        keep = set(vertices)
        ks = []
        for j in reversed([v for v in range(d + 1) if v not in keep]):
            kept = []
            for n, i in enumerate(ks):
                if j in (i, i + 1):
                    ks = kept + ks[n + 1 :]
                    break
                kept.append(i - 1 if j < i else i)
                j -= j > i + 1
            else:
                f = self.faces[sid][j]
                if f is None:
                    return None
                sid, ks = (f["of"], kept + f["s"]) if type(f) is dict else (f, kept)
        return None if ks else sid


class BG(Space):
    """The classifying space B(Z/n_1 x ... x Z/n_k) up to dimension top,
    the nerve of the group: a d-simplex is a bar (g_1, ..., g_d) of
    non-identity elements, each a tuple of residues mod n_1, ..., n_k, with
    the partial sums 0, g_1, g_1 + g_2, ... as its vertices.

    face() is the bar formula: d_0 drops g_1, d_d drops g_d, and d_i merges
    g_i + g_(i+1); a merge to the identity is s_(i-1) of the shorter bar.
    No face lists are built, and there is no subface()."""

    def __init__(self, orders, top):
        orders = tuple(orders)
        if not all(type(n) is int and n >= 1 for n in orders):
            raise InvalidInput("BG needs group orders that are positive integers")
        if type(top) is not int or top < 0:
            raise InvalidInput("BG needs a non-negative integer top dimension")
        self.orders = orders
        elements = [g for g in product(*map(range, orders)) if any(g)]
        super().__init__({bar: d for d in range(top + 1) for bar in product(elements, repeat=d)})

    def face(self, bar, i):
        d = len(bar)
        if i in (0, d):
            return (bar[1:] if i == 0 else bar[:-1]), None
        g = tuple((a + b) % n for a, b, n in zip(bar[i - 1], bar[i], self.orders))
        if any(g):
            return bar[: i - 1] + (g,) + bar[i + 1 :], None
        return bar[: i - 1] + bar[i + 1 :], tuple(p - (p >= i) for p in range(d))


def is_integral(degree, values):
    """Whether a cochain's degree and all its values (a dict) are integers."""
    return type(degree) is int and all(type(v) is int for v in values.values())


class Cochain:
    def __init__(self, degree, values, *, _clean=False):
        """A cochain from an integer degree and a map sid -> integer value.
        With _clean, values is an int dict the library built itself, taken
        as it is: neither copied nor validated."""
        if not _clean:
            values = dict(values)
            if not is_integral(degree, values):
                raise InvalidInput("a cochain needs an integer degree and integer values")
        self.degree = degree
        self.values = values

    def __call__(self, sid):
        return self.values.get(sid, 0)


def _check_operands(x, cochains, table):
    src = x.complex if isinstance(x, Element) else None
    if not isinstance(src, SurjectionComplex) or src.flavor != "bf":
        raise InvalidInput("cochain operations expect an S^bf element")
    if len(cochains) != src.n:
        raise InvalidInput(f"need {src.n} cochains")
    if not (isinstance(table, Space) and all(isinstance(a, Cochain) for a in cochains)):
        raise InvalidInput("cochain operations expect Cochain operands on a Space")


# The plans of the surjection generators that cochain operations meet,
# memoized within a bound.  Callers evaluate a few generators on many
# cochains: a round of the cochain benchmark makes 17 lookups over the same
# 9 (generator, dimension) keys, 3,391 hits and 9 misses in 200 rounds.  A
# plan holds about 0.6 KB per term (558 bytes for the cup-4 word at d = 12
# under tracemalloc), and its terms grow with the dimension (20 for
# (1,2,1,3) at d = 4, 1,287 for the cup-4 word at d = 12, of which 225 have
# the factor dimensions (8, 8)).
PLAN_MEMO = 64


@lru_cache(maxsize=PLAN_MEMO)
def _generator_plan(gen, d):
    """Phi(gen (x) Delta^d) for a bf generator, collected over the integers
    as bf_action collects it, so the memo serves every ring: its term count,
    and its terms grouped by factor dimensions, each group in plan order.  A
    term is its faces, its integer coefficient (never 0), the pairing sign
    (-1)^(l(l-1)/2) with l the number of odd-dimensional factors, and per
    factor the model vertices to delete, highest first.  No term guard is
    checked here; _pairing_plan checks it on the counts."""
    acc = add_terms({}, bf_action_terms(gen, d), tensor_power(d, max(gen)).normalize)
    groups = {}
    for faces, c in acc.items():
        dims = tuple(len(f) - 1 for f in faces)
        odd = sum(t % 2 for t in dims)
        pair_sign = -1 if (odd * (odd - 1) // 2) % 2 else 1
        deletions = tuple(tuple(v for v in range(d, -1, -1) if v not in f) for f in faces)
        groups.setdefault(dims, []).append((faces, c, pair_sign, deletions))
    return len(acc), {dims: tuple(group) for dims, group in groups.items()}


def _check_plan_sums(x, d):
    """Check the term guard where bf_action(x, d) checks it: on the size of
    the integer sum of x's scaled generator plans after each generator."""
    acc = {}
    for gen, coeff in x.terms.items():
        for group in _generator_plan(gen, d)[1].values():
            add_terms(acc, ((c, faces) for faces, c, _, _ in group), None, coeff)
        check_guard(len(acc))


def _pairing_plan(x, cochains, d):
    """What evaluating Phi(x (x) alpha_1 ... alpha_n) on any d-simplex needs:
    the outer sign (-1)^(|x|(1+d)) and, for each tensor term of
    bf_action(x, d) whose factor dimensions are the cochain degrees, its
    coefficient times the pairing sign with, per factor, the cochain's
    values and the model vertices to delete, highest first.

    Only the plan groups of the cochain degrees are summed.  The term guard
    sees the counts bf_action(x, d) checks, the sizes of the integer sum of
    x's scaled generator plans, which never pass the plans' counts added
    up.  So while those counts, added as the plans are fetched, stay within
    the guard, nothing is checked; the generator whose plan takes them past
    it has the whole plans summed (_check_plan_sums), so the guard trips
    where bf_action would, with the same message, before any later plan is
    built."""
    degrees = tuple(a.degree for a in cochains)
    guard = term_guard()
    total = 0
    acc = {}
    paired = {}
    for gen, coeff in x.terms.items():
        count, groups = _generator_plan(gen, d)
        total += count
        if total - count <= guard < total:
            _check_plan_sums(x, d)
        group = groups.get(degrees, ())
        add_terms(acc, ((c, faces) for faces, c, _, _ in group), None, coeff)
        paired.update((term[0], term) for term in group)
    values = [a.values for a in cochains]
    normalize = x.ring.normalize
    terms = []
    for faces, c in acc.items():
        if c := normalize(c):
            _, _, pair_sign, deletions = paired[faces]
            terms.append((c * pair_sign, tuple(zip(values, deletions))))
    outer = -1 if (x.degree * (1 + d)) % 2 else 1
    return outer, terms


def cochain_evaluate(x, cochains, table, sid, ring=ZZ):
    """< Phi(x (x) alpha_1 (x) ... (x) alpha_n), c >  for the simplex c = sid.

    Signs follow the preferred hom-complex convention: the outer factor
    (-1)^(|x|(1+|c|)) and the duality pairing sign (-1)^(l(l-1)/2) with l
    the number of odd-degree tensor factors.  This is dual_operation's
    value at sid, planned at |c|: each call sums the memoized plan groups
    of x's generators for |c| and the cochain degrees anew (see
    _pairing_plan) and evaluates the plan on every simplex of dimension
    |c|, so to evaluate on many simplices use dual_operation, which does
    that once.
    """
    _check_operands(x, cochains, table)
    try:
        d = table.dims[sid]
    except (KeyError, TypeError):
        raise InvalidInput(f"no simplex with id {sid!r} in the face table") from None
    return _on_table(_pairing_plan(x, cochains, d), table, d, ring)(sid)


def _pull_back(values, faces):
    """A cochain's values on the faces a walk map gives, 0 where the walk
    ends."""
    if None in values:
        # no simplex has a null id: None in a walk map only ends the walk
        values = {sid: v for sid, v in values.items() if sid is not None}
    return list(map(values.get, faces, repeat(0)))


def _column_sum(terms, table, d):
    """A plan's terms summed in exact integers on every d-simplex, in
    simplices(d) order: each factor's values are pulled back once per
    (factor position, walk), through the walk map, to a column, and each
    term adds the product of its columns times its coefficient."""
    columns = {}
    total = [0] * len(table.simplices(d))
    for c, factors in terms:
        prod = None
        for i, (vals, walk) in enumerate(factors):
            column = columns.get((i, walk))
            if column is None:
                column = columns[i, walk] = _pull_back(vals, table.walk_map(d, walk))
            prod = column if prod is None else map(mul, prod, column)
        if c != 1:
            prod = map(mul, prod, repeat(c))
        total = list(map(add, total, prod))
    return total


_F2 = GF(2)
# the digits of a binary numeral as the bytes 0 and 1, which compress() selects with
_BITS = bytes.maketrans(b"01", b"\0\1")


def _mod2_on_table(plan, table, d):
    """A pairing plan evaluated mod 2 on every d-simplex, on bitmasks over
    the positions in simplices(d) (see Space.masks).

    A factor's column is the union of the masks of the faces on which its
    operand is odd: the masks are disjoint, so a sum.  It is read from
    whichever is shorter, the walk's mask index (each face's value tested)
    or the operand's values (reduced once per call to its odd-valued
    support).  A term is the intersection of its columns, and the plan the
    symmetric difference of its terms of odd coefficient: the signs are 1
    mod 2, and the coefficients are normalised in x's ring, which need not
    be F_2 (an integer 2x gives 0).  The set bits are the output, each with
    value 1, in table order.
    """
    _, terms = plan
    supports = {}
    columns = {}
    total = 0
    for c, factors in terms:
        if not c & 1:
            continue
        term = -1
        for i, (values, walk) in enumerate(factors):
            column = columns.get((i, walk))
            if column is None:
                masks = table.masks(d, walk)
                if len(masks) < len(values):
                    odd = map(and_, map(values.get, masks, repeat(0)), repeat(1))
                    column = sum(compress(masks.values(), odd))
                else:
                    # by identity: one operand passed twice is reduced once
                    support = supports.get(id(values))
                    if support is None:
                        support = [sid for sid, v in values.items() if v & 1]
                        supports[id(values)] = support
                    column = sum(map(masks.get, support, repeat(0)))
                columns[i, walk] = column
            term &= column
        total ^= term
    bits = bin(total)[:1:-1].encode().translate(_BITS)
    return Cochain(d, dict.fromkeys(compress(table.simplices(d), bits), 1), _clean=True)


def _on_table(plan, table, d, ring):
    """A pairing plan evaluated on every d-simplex, as a Cochain: over F_2 on
    bitmasks, otherwise the column sum times the outer sign, normalised in
    the ring, with the nonzero values kept in table order."""
    if ring == _F2:
        return _mod2_on_table(plan, table, d)
    outer, terms = plan
    total = _column_sum(terms, table, d)
    totals = map(ring.normalize, total if outer == 1 else map(neg, total))
    values = {sid: v for sid, v in zip(table.simplices(d), totals) if v}
    return Cochain(d, values, _clean=True)


def dual_operation(x, cochains, table, ring=ZZ):
    """The cochain Phi(x (x) alpha_1 ... alpha_n) as a Cochain on the table.

    The bulk path: the pairing plan of x for the output dimension d is
    summed once from the groups of the memoized plans of x's generators
    whose factor dimensions are the cochain degrees (see _pairing_plan),
    and evaluated on every d-simplex: over F_2 on the bitmasks of the
    operands' odd-valued supports (see _mod2_on_table), over Z and F_p, p
    odd, by the column sum.
    """
    _check_operands(x, cochains, table)
    d = sum(a.degree for a in cochains) - x.degree
    if d < 0:
        return Cochain(d, {}, _clean=True)
    return _on_table(_pairing_plan(x, cochains, d), table, d, ring)


def cochain_coboundary(alpha, table, ring=ZZ):
    """< d(alpha), c > = (-1)^{|c|} < alpha, dc > with |c| the new degree.

    The plan of d(alpha) has one one-factor term (-1)^j alpha per face j
    of c, reached by the one-step deletion walk (j,) (a degenerate face gives 0),
    and goes the way of dual_operation: over F_2 through the bitmasks,
    otherwise through the column sum over every d-simplex.
    """
    if not (isinstance(table, Space) and isinstance(alpha, Cochain)):
        raise InvalidInput("cochain operations expect Cochain operands on a Space")
    d = alpha.degree + 1
    if d <= 0:
        return Cochain(d, {}, _clean=True)
    terms = [(-1 if j % 2 else 1, ((alpha.values, (j,)),)) for j in range(d + 1)]
    return _on_table((-1 if d % 2 else 1, terms), table, d, ring)


# -- the surjection -> Eilenberg-Zilber operad square --------------------------------


def sz_square(x, ys, m, ring=ZZ):
    """Both composites of the S -> Z operad-morphism square evaluated on
    (x (x) y_1 (x) ... (x) y_r (x) Delta^m); returns (left, right)."""
    from .operads import surj_compose

    r = x.complex.n
    sizes = [y.complex.n for y in ys]
    s = sum(sizes)
    target = tensor_power(m, s)

    # across the top: Phi(O_S(x; y) (x) Delta^m)
    left = bf_action(surj_compose("bf", x, ys, ring), m)

    # down and across: +- (v_1 ox ... ox v_r)(u(Delta^m)) with evaluation signs
    u_val = bf_action(x, m)
    ydegs = [y.degree for y in ys]
    tau_exp = x.degree * sum(ydegs)
    inner = {}  # (j, e) -> Phi(y_j (x) Delta^e)
    pairs = []
    for gen, coeff in u_val.terms.items():
        dims = [len(f) - 1 for f in gen]
        eval_exp = 0
        for j in range(r):
            eval_exp += ydegs[j] * sum(dims[:j])
        sign = -1 if (tau_exp + eval_exp) % 2 else 1
        pieces = []
        for j in range(r):
            key = (j, dims[j])
            if key not in inner:
                inner[key] = bf_action(ys[j], dims[j])
            vmap = list(gen[j])
            pushed = inner[key].map_terms(
                lambda g: [(1, tuple(push_face(vmap, f) for f in g))],
                codomain=tensor_power(m, sizes[j]),
            )
            if pushed.is_zero():
                break
            pieces.append(pushed.terms.items())
        else:
            # amalgamate the s_j-tensors into one s-tensor
            for combo in product(*pieces):
                g_out = tuple(f for piece_gen, _ in combo for f in piece_gen)
                c_out = coeff * sign
                for _, c in combo:
                    c_out *= c
                pairs.append((c_out, g_out))
    right = collect(target, ring, left.degree, pairs)
    return left, right
