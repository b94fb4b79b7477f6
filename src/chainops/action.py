"""The Berger-Fresse chain-level action Phi: S^bf(n) (x) N(Delta^m) ->
N(Delta^m)^(x)n, its composites, mod-p constants, and the dual cochain
evaluation.

The closed formula sums over monomials of the (n+k)-fold multidiagonal
of Delta^m with the shuffle and position signs; the functorial
recursion phi(b (x) Delta^m) = h(phi(d(b (x) Delta^m))) with faces
pushed forward from their models is kept alongside as the oracle.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, product

from .complexes import boundary
from .elements import Element, collect, reduce_terms
from .errors import InvalidInput
from .maclane import MacLaneComplex, cyc_eg, cyclic_into_symmetric, induced_map, sym_eg
from .minimal import MinimalComplex, phi_to_EC
from .morphisms import table_reduction
from .perms import koszul_permute
from .procedure import RecursiveMap
from .rings import ZZ
from .simplex import face_vmap, multidiagonal_standard, push_face, tensor_power
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


def perm_act(g, x):
    """Left Sigma_n action on a tensor power with Koszul signs."""
    factors = x.complex.factors

    def terms(gen):
        degrees = [f.degree_of(a) for f, a in zip(factors, gen)]
        return [koszul_permute(g, gen, degrees)]

    return x.map_terms(terms)


class BFActionStandard(RecursiveMap):
    """The functorial standard procedure for Phi, memoized on (basis
    generator, ambient dimension)."""

    _act = staticmethod(perm_act)

    def __init__(self, n, ring=ZZ):
        super().__init__(ring)
        self.n = n
        self.S = surjection_complex("bf", n)

    def target(self, m):
        return tensor_power(m, self.n)

    def seed(self, key):
        b, m = key
        k = self.S.degree_of(b)
        if k == 0:
            value = multidiagonal_standard(self.n, m)
            terms = reduce_terms(value.terms, self.ring)
            return Element(value.complex, self.ring, value.degree, terms, _clean=True)
        if m == 0:
            return self.target(m).zero(self.ring, k)
        return None

    def defect(self, key):
        """Phi(d b (x) Delta^m) plus the faces of Delta^m pushed forward
        from Phi(b (x) Delta^(m-1))."""
        b, m = key
        k = self.S.degree_of(b)
        below = self.apply(boundary(self.S.el(self.ring, b)), m)
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


@lru_cache(maxsize=None)
def bf_action_standard(n):
    return BFActionStandard(n)


# -- composites through TR, phi, and the flavor isomorphisms -----------------------


def action_for(x, m):
    """The chain-level action for elements of N(ESigma_n), M_*, S^aj, S^ms:
    the composite through the bf action, table reduction, and the flavor isomorphisms."""
    src = x.complex
    if isinstance(src, SurjectionComplex):
        if src.flavor == "bf":
            return bf_action(x, m)
        return bf_action(iso(src.flavor, "bf", x), m)
    if isinstance(src, MacLaneComplex):
        from .groups import SymmetricGroup

        if not isinstance(src.group, SymmetricGroup):
            raise InvalidInput("action_for needs a symmetric MacLane model")
        return bf_action(table_reduction("bf", x), m)
    if isinstance(src, MinimalComplex):
        p = src.n
        incl = induced_map(cyclic_into_symmetric(p), cyc_eg(p), sym_eg(p), x.ring)
        return bf_action(table_reduction("bf", incl(phi_to_EC(x))), m)
    raise InvalidInput(f"no chain action for elements of {src}")


def steenrod_constant(m, p):
    """c_{m,p} = (-1)^((m(m-1)/2)(p(p-1)/2)) (q!)^m mod p, q = (p-1)/2."""
    if p == 2 or p % 2 == 0:
        raise InvalidInput("steenrod_constant expects an odd prime")
    q = (p - 1) // 2
    qfac = 1
    for i in range(2, q + 1):
        qfac *= i
    sign = -1 if ((m * (m - 1) // 2) * (p * (p - 1) // 2)) % 2 else 1
    return (sign * qfac**m) % p


# -- cochain evaluation through the graded duality pairing --------------------------


class FaceTable:
    """A finite simplicial-set fragment: nondegenerate simplices with ids,
    dimensions, and ordered face ids (null marks a degenerate face)."""

    def __init__(self, data):
        try:
            self.dim = data["dim"]
            simplices = data["simplices"]
        except (KeyError, TypeError):
            raise InvalidInput("a face table needs a 'dim' and a 'simplices' list") from None
        self.dims = {}
        self.faces = {}
        for s in simplices:
            try:
                sid, dim = s["id"], s["dim"]
            except (KeyError, TypeError):
                raise InvalidInput(f"simplex {s!r} needs an 'id' and a 'dim'") from None
            self.dims[sid] = dim
            self.faces[sid] = list(s.get("faces", []))
            if dim > 0 and len(self.faces[sid]) != dim + 1:
                raise InvalidInput(f"simplex {sid} needs {dim + 1} faces")
        for sid, faces in self.faces.items():
            want = self.dims[sid] - 1
            for f in faces:
                if self.dims.get(f) != want and f is not None:
                    raise InvalidInput(
                        f"face {f!r} of simplex {sid!r} is not a simplex of dimension {want}"
                    )
        self._by_dim = None

    def simplices(self, dim=None):
        """Simplex ids ordered by str(id), all of them or those of one
        dimension; the order is computed once, on first use."""
        if self._by_dim is None:
            self._by_dim = {None: sorted(self.dims, key=str)}
            for sid in self._by_dim[None]:
                self._by_dim.setdefault(self.dims[sid], []).append(sid)
        return iter(self._by_dim.get(dim, ()))

    def face(self, sid, j):
        return self.faces[sid][j]

    def subface(self, sid, vertices):
        """The iterated face of sid spanned by a vertex subset of its model."""
        d = self.dims[sid]
        missing = [v for v in range(d + 1) if v not in set(vertices)]
        for v in reversed(missing):
            if sid is None:
                return None
            sid = self.face(sid, v)
        return sid


def is_integral(degree, values):
    """Whether a cochain's degree and all its values (a dict) are integers."""
    return isinstance(degree, int) and all(isinstance(v, int) for v in values.values())


class Cochain:
    def __init__(self, degree, values):
        values = dict(values)
        if not is_integral(degree, values):
            raise InvalidInput("a cochain needs an integer degree and integer values")
        self.degree = degree
        self.values = values

    def __call__(self, sid):
        return self.values.get(sid, 0)


def _check_operands(x, cochains):
    src = x.complex if isinstance(x, Element) else None
    if not isinstance(src, SurjectionComplex) or src.flavor != "bf":
        raise InvalidInput("cochain operations expect an S^bf element")
    if len(cochains) != src.n:
        raise InvalidInput(f"need {src.n} cochains")


def _pairing_plan(x, cochains, d):
    """What evaluating Phi(x (x) alpha_1 ... alpha_n) on any d-simplex needs,
    from one bf_action(x, d): the outer sign (-1)^(|x|(1+d)) and, for each
    tensor term whose factor dimensions are the cochain degrees, its
    coefficient times the pairing sign with, per factor, the cochain's
    values and the model vertices to delete, highest first."""
    values = [a.values for a in cochains]
    terms = []
    for gen, coeff in bf_action(x, d).terms.items():
        if any(len(f) - 1 != a.degree for f, a in zip(gen, cochains)):
            continue
        odd = sum(1 for f in gen if len(f) % 2 == 0)
        pair_sign = -1 if (odd * (odd - 1) // 2) % 2 else 1
        deletions = (tuple(v for v in range(d, -1, -1) if v not in f) for f in gen)
        terms.append((coeff * pair_sign, tuple(zip(values, deletions))))
    outer = -1 if (x.degree * (1 + d)) % 2 else 1
    return outer, terms


def _evaluate(plan, table, sid):
    """< Phi(x (x) alpha_1 (x) ... (x) alpha_n), sid > before normalisation,
    for a simplex of the dimension the plan was made for."""
    outer, terms = plan
    faces = table.faces
    total = 0
    for prod, factors in terms:
        for values, deletions in factors:
            t = sid
            for v in deletions:
                t = faces[t][v]
                if t is None:
                    break
            if t is None:
                prod = 0
                break
            prod *= values.get(t, 0)
            if prod == 0:
                break
        total += prod
    return outer * total


def cochain_evaluate(x, cochains, table, sid, ring=ZZ):
    """< Phi(x (x) alpha_1 (x) ... (x) alpha_n), c >  for the simplex c = sid.

    Signs follow the preferred hom-complex convention: the outer factor
    (-1)^(|x|(1+|c|)) and the duality pairing sign (-1)^(l(l-1)/2) with l
    the number of odd-degree tensor factors.  Each call computes
    bf_action(x, |c|); to evaluate on many simplices use dual_operation,
    which computes it once.
    """
    _check_operands(x, cochains)
    if sid not in table.dims:
        raise InvalidInput(f"no simplex with id {sid!r} in the face table")
    plan = _pairing_plan(x, cochains, table.dims[sid])
    return ring.normalize(_evaluate(plan, table, sid))


def dual_operation(x, cochains, table, ring=ZZ):
    """The cochain Phi(x (x) alpha_1 ... alpha_n) as a Cochain on the table.

    The bulk path: bf_action(x, d) is computed once for the output
    dimension d and evaluated on every simplex of that dimension.
    """
    _check_operands(x, cochains)
    out_dim = sum(a.degree for a in cochains) - x.degree
    values = {}
    if out_dim >= 0:
        plan = _pairing_plan(x, cochains, out_dim)
        for sid in table.simplices(out_dim):
            v = ring.normalize(_evaluate(plan, table, sid))
            if v:
                values[sid] = v
    return Cochain(out_dim, values)


def cochain_coboundary(alpha, table, ring=ZZ):
    """< d(alpha), c > = (-1)^{|c|} < alpha, dc > with |c| the new degree."""
    out = {}
    d = alpha.degree + 1
    if d <= 0:
        return Cochain(d, out)
    for sid in table.simplices(d):
        total = 0
        for j in range(d + 1):
            f = table.face(sid, j)
            if f is None:
                continue
            total += (-1) ** j * alpha(f)
        total = ring.normalize((-1) ** d * total)
        if total:
            out[sid] = total
    return Cochain(d, out)


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
