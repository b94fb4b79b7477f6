"""The recursive standard procedure and contraction validators.

RecursiveMap is the one engine behind every standard-procedure
construction: memoized on basis keys, a value is seed(key) in the base
case and h(defect(key)) otherwise, and a generator is split into a basis
key, a coefficient and a twist it acts by.  The twist acts on the value
term by term, through a per-generator hook, and each term goes straight
into the sum of the element being mapped.  StandardMap builds the
equivariant chain map phi(b) = h_C(phi(d b)) from a degree-0 seed;
StandardHomotopy builds H(b) = h_C(phi1(b) - phi0(b) - H(db)); the
operad structure maps (TwistedOperadMap), EZ (EZStandard) and the
Berger-Fresse action (action.BFActionStandard) are the other instances,
each the oracle of a closed formula that shares no code with it.  An
engine imports from operads or simplex when it is constructed.
verify_contracted checks the contraction identities (d^2 = 0,
dh + hd = Id - rho, h^2 = 0, h iota = 0, equivariance of d) in one pass
per degree k: each generator of degree k takes one inline step that
sums every identity not failed yet.  normal(d(g)), normal(h(g)) and
normal(s.g) for each generator s of the group are computed once per
normal generator g and kept in tables local to the call, which that
step and the action law read; they read their terms through one
normal-form memo: each raw generator is normalised once, and equal raw
generators share one normal object.  This is exact because the structure
maps are functions of the normal generator and normalize is a pure
function of the raw one that never raises.  Degree k looks up
generators of degrees k - 1, k and k + 1 only, so after degree k the
entries of degree < k are dropped and the tables span three degrees.

Equivariance of d is proved from the group's generators S
(groups.generators), not from every element.  Three facts are checked:
  - the complex's action_law: act(e) = Id and act(s.h) = act(s) act(h)
    for every s in S and every h, on the finite data the family's action
    formula depends on (once per complex, |S|.|G| cases per witness);
  - for every s in S and every swept generator x, s.x has the degree of
    x, so each degree's basis spans a subspace closed under act(s);
  - d(s.x) = s.dx for every s in S and every swept generator x.
By induction on a word for g the law gives act(g.h) = act(g) act(h) for
all g and h, so each degree's span is closed under every act(g).  The g
with d act(g) = act(g) d on the swept degrees contain e, and with h they
contain s.h: d act(s.h) = d act(s) act(h) = act(s) d act(h)
= act(s) act(h) d = act(s.h) d.  So they are all of G, which is finite
and generated by S.  So the sweep keeps |S| act tables and makes |S|
boundary comparisons per generator, not |G| - 1, and the law has
|S|.|G| cases per witness.  Any generating set will do; for Sigma_n, S
is (1 2) and the n-cycle, so |S| = 2 for every n >= 3, where the n - 1
adjacent transpositions would give 3 at n = 4 and 4 at n = 5.  The law
is evaluated through act_terms on witnesses that carry every datum the
family's action formula depends on; an act_terms that departs from that
formula only away from the witnesses is outside what it sees.  It is
re-proved on every call and reads act(s) of each term of act(h) x from
the call's act tables, built before it, so the law and the sweep
compute each s.y once (a tensor product's factor laws use tables of
their own).

For huge MacLane sweeps the verifier can consume relabeling classes:
pattern_reps(degree) yields (representative, class size), one
representative per class of tuples that a bijection of the group fixing
e carries into each other; class sizes add up to the basis size, and the
`checked` counts are these weights.  This is exact because each identity
holds at x exactly when it holds at every tuple of x's class:
  - d^2, dh + hd and h^2 are built from entry deletions, prepending e and
    tuple equality, all of which commute with such a bijection;
  - d(s.x) = s.dx is built from entry deletions and the entrywise left
    multiplication by s.  That map is injective, so s.x has x's
    equal-adjacent pattern and s.(x minus entry j) is degenerate, or
    equal to s.(x minus entry i), exactly when x minus entry j is, or
    equals x minus entry i.  Both sides are the signed sum of
    s.(x minus entry j) over the nondegenerate deletions, so the
    identity's truth depends only on which entries of x are equal, which
    the class fixes; the degree of s.x depends only on x's length.
"""

from functools import partial

from .complexes import augment, boundary, contract
from .elements import Element, add_terms, built, collect
from .errors import InvalidInput
from .perms import perm_of_word, permute_by
from .rings import ZZ


class RecursiveMap:
    """The memoized standard procedure, with three hooks:

    seed(key)         the value on a base-case basis key, else None;
    defect(key)       the element whose contraction is the value otherwise;
    split(gen, ctx)   (key, coeff, twist) with gen = coeff * twist . key,
                      twist None for the identity.

    The default split, for maps with a fixed `domain`, `codomain` and
    `equivariant` flag, writes a generator as coeff * g.b over the domain's
    group, g translated by `group_hom` unless that is None.  A twist acts
    on a value term by term through `_act_terms(target, twist, gen)`, the
    (coeff, raw generator) pairs of twist . gen in the value's complex:
    target.act_terms by default.  `shift` is the degree of the map
    `__call__` is.
    """

    shift = 0
    group_hom = None

    @staticmethod
    def _act_terms(target, twist, gen):
        return target.act_terms(twist, gen)

    def __init__(self, ring):
        self.ring = ring
        self._memo = {}

    def seed(self, key):
        return None

    def split(self, gen, ctx):
        if not self.equivariant:
            return gen, 1, None
        g, coeff, b = self.domain.decompose(gen)
        if self.domain.group.is_identity(g):
            return b, coeff, None
        return b, coeff, g if self.group_hom is None else self.group_hom(g)

    def on_basis(self, key):
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = self.seed(key)
        if value is None:
            value = contract(self.defect(key))
        self._memo[key] = value
        return value

    def _image(self, gen, ctx):
        """(value, image): the memoised value of gen's basis key, and gen's
        image, which is that value itself when the split is 1 . key and
        otherwise (coeff, raw generator) pairs, each term of the value
        scaled by the split's coefficient and pushed through the twist."""
        key, coeff, twist = self.split(gen, ctx)
        value = self.on_basis(key)
        if twist is None:
            if coeff == 1:
                return value, value
            return value, [(coeff * c, g) for g, c in value.terms.items()]
        target, act_terms = value.complex, self._act_terms
        return value, [
            (coeff * c * c2, y)
            for g, c in value.terms.items()
            for c2, y in act_terms(target, twist, g)
        ]

    def on_gen(self, gen, ctx=None):
        value, image = self._image(gen, ctx)
        if image is value:
            return value
        return collect(value.complex, self.ring, value.degree, image)

    def _map(self, x, target, shift, ctx=None):
        """x's image in target, each term of x feeding its image straight
        into one map_terms sum."""
        if not isinstance(x, Element):
            return self.on_gen(x, ctx)
        if x.is_zero():
            return target.zero(self.ring, x.degree + shift)
        return x.map_terms(
            lambda gen: self._image(gen, ctx)[1], codomain=target, degree_shift=shift
        )

    def __call__(self, x):
        return self._map(x, self.codomain, self.shift)


class StandardMap(RecursiveMap):
    """phi(b) = h_C(phi(d_B b)) on basis generators, extended equivariantly.

    degree0 maps a degree-0 basis generator to an Element of the
    codomain; the default is iota_C . epsilon_B.  group_hom translates
    domain group elements before acting on the codomain (identity by
    default), covering iota_ell-style twisted equivariance.
    """

    def __init__(self, domain, codomain, ring=ZZ, degree0=None, group_hom=None):
        super().__init__(ring)
        self.domain = domain
        self.codomain = codomain
        self.group_hom = group_hom
        self.equivariant = domain.group is not None
        if degree0 is None:
            degree0 = lambda b: built(
                codomain, ring, codomain.basepoint_gen(), domain.augmentation(b)
            )
        self.degree0 = degree0

    def seed(self, b):
        if self.domain.degree_of(b) != 0:
            return None
        value = self.degree0(b)
        if augment(value) != self.ring.normalize(self.domain.augmentation(b)):
            raise InvalidInput(
                "degree-0 seed is not augmentation-compatible "
                f"on {self.domain.format_gen(b)}"
            )
        return value

    def defect(self, b):
        return self(boundary(built(self.domain, self.ring, b)))


class StandardHomotopy(RecursiveMap):
    """H with dH + Hd = phi1 - phi0, built recursively."""

    shift = 1

    def __init__(self, phi0, phi1, domain, codomain, ring=ZZ, equivariant=True):
        super().__init__(ring)
        self.domain = domain
        self.codomain = codomain
        self.equivariant = equivariant and domain.group is not None
        self.phi0 = phi0
        self.phi1 = phi1

    def defect(self, b):
        # in degree 0, H(db) = 0 and h(phi1 - phi0) is zero whenever phi0
        # and phi1 agree there; in general it is correct as long as the
        # augmentations of phi0 and phi1 match
        eb = built(self.domain, self.ring, b)
        return self.phi1(eb) - self.phi0(eb) - self(boundary(eb))


class TwistedOperadMap(RecursiveMap):
    """The standard twisted-equivariant procedure structure map O_B,
    memoized on (arities, basis tensor), on the components of the family's
    operad (operads.component: N(ESigma_n) for Barratt-Eccles, family
    "be", S^flavor(n) for a surjection flavor):
    O_B(b) = H_s O_B(db) on basis tensors, extended by
    O_B(g^ x) = O_Sigma(g^) O_B(tau_g x).  Its domains are the closed
    composites' own, operads.domain.  A tensor is split by one
    decomposition of each factor; tau_g reorders the inner factors and
    their arities once each, with the sign of g^-1 read on the odd-degree
    inner slots."""

    def __init__(self, family, ring=ZZ):
        from .operads import component, domain, sigma_compose

        super().__init__(ring)
        self.family = family
        self.component = partial(component, family)
        self.domain = partial(domain, family)
        self._sigma_compose = sigma_compose

    def target(self, arities):
        return self.component(sum(arities[1:]))

    def seed(self, key):
        arities, gen = key
        if self.domain(arities).degree_of(gen) != 0:
            return None
        return self.target(arities).basepoint(self.ring)

    def defect(self, key):
        arities, gen = key
        return self.apply(arities, boundary(built(self.domain(arities), self.ring, gen)))

    def split(self, gen, arities):
        """O_B(g^ x) = O_Sigma(g^) O_B(tau_g x): the inner inputs of the
        basis tensor and their arities are reordered by g^-1, with its
        Koszul sign, the sign of the word g^-1 reads on the odd inner slots."""
        dom = self.domain(arities)
        ghat, coeff, b = dom.decompose(gen)
        g, hs = ghat[0], ghat[1:]
        inner = b[1:]
        if not g.is_identity():
            ginv = g.inverse()
            coeff *= perm_of_word(
                [v for v, f, y in zip(ginv, dom.factors[1:], inner) if f.degree_of(y) % 2]
            )
            inner = tuple(permute_by(ginv, inner))
            arities = (arities[0],) + tuple(permute_by(ginv, arities[1:]))
        osig = self._sigma_compose(g, list(hs))
        return (arities, (b[0],) + inner), coeff, None if osig.is_identity() else osig

    def apply(self, arities, x):
        return self._map(x, self.target(arities), 0, arities)


class EZStandard(RecursiveMap):
    """EZ(Delta^m (x) Delta^n) in N(Delta^m x Delta^n), memoized on (m, n):
    the column (0, 0) at (0, 0), and otherwise h of EZ(d(Delta^m (x)
    Delta^n)), whose faces are pushed forward from their models
    EZ(Delta^(m-1) (x) Delta^n) and EZ(Delta^m (x) Delta^(n-1)) along
    face_vmap, one coordinate of each column, over the integers."""

    def __init__(self):
        from . import simplex

        super().__init__(ZZ)
        self._simplex = simplex

    def seed(self, key):
        if key == (0, 0):
            return self._simplex.product_complex(0, 0).basepoint(self.ring)
        return None

    def defect(self, key):
        m, n = key
        face_vmap = self._simplex.face_vmap
        pairs = []
        if m > 0:
            inner = self.on_basis((m - 1, n)).terms.items()
            for j in range(m + 1):
                vmap, sign = face_vmap(m, j), (-1) ** j
                pairs.extend((sign * c, tuple((vmap[a], b) for a, b in cols)) for cols, c in inner)
        if n > 0:
            inner = self.on_basis((m, n - 1)).terms.items()
            for j in range(n + 1):
                vmap, sign = face_vmap(n, j), (-1) ** (m + j)
                pairs.extend((sign * c, tuple((a, vmap[b]) for a, b in cols)) for cols, c in inner)
        return collect(self._simplex.product_complex(m, n), self.ring, m + n - 1, pairs)


# -- contraction verification ---------------------------------------------------


class Check:
    def __init__(self, name, ok, counterexample=None, checked=0):
        self.name = name
        self.ok = ok
        self.counterexample = counterexample
        self.checked = checked

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        extra = f" [{self.checked} generators]" if self.checked else ""
        ce = "" if self.ok else f"  counterexample: {self.counterexample}"
        return f"{status} {self.name}{extra}{ce}"

    def __repr__(self):
        return self.line()


def first_fail(name, cases):
    """The Check of a stream of (case, ok) pairs: it stops at the first
    case that is not ok and reports it.  A name that states the number of
    cases is a function of that number, the count run so far on failure."""
    label = name if callable(name) else lambda count: name
    count = 0
    for case, ok in cases:
        count += 1
        if not ok:
            return Check(label(count), False, case)
    return Check(label(count), True)


class Report:
    def __init__(self, title, checks):
        self.title = title
        self.checks = checks

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def lines(self):
        return [f"== {self.title}"] + [c.line() for c in self.checks]

    def __repr__(self):
        return "\n".join(self.lines())


PATTERN_THRESHOLD = 40_000


def _gen_stream(cplx, degree):
    """Pairs (generator, weight); uses relabeling classes when the basis
    is too large to sweep directly and the complex supports them."""
    reps = getattr(cplx, "pattern_reps", None)
    if reps is not None:
        size = cplx.basis_size(degree)
        if size > PATTERN_THRESHOLD:
            yield from reps(degree)
            return
    for g in cplx.basis(degree):
        yield g, 1


class Table(dict):
    """fn(key) by key, computed on the first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value

    def forget_below(self, degree, degree_of):
        for key in [k for k in self if degree_of(k) < degree]:
            del self[key]


def normal_terms(normal, fn):
    """normal(fn(gen)) by normal generator: its nondegenerate terms."""
    return Table(lambda gen: tuple([(c, n) for c, g in fn(gen) if (n := normal[g]) is not None]))


def act_tables(cplx, normal):
    """{s: normal_terms of act(s)} for the generators s of cplx's group."""
    return {s: normal_terms(normal, partial(cplx.act_terms, s)) for s in cplx.group.generators()}


def verify_contracted(cplx, max_degree, ring=ZZ):
    """Check the contraction identities on every basis generator up to
    max_degree: d^2 = 0, dh + hd = Id - rho, h^2 = 0, h iota = 0, and
    equivariance of the boundary when a group acts, proved from the
    complex's action_law and the group's generators (module docstring).
    A law failure fails "d equivariant" with the law case as its
    counterexample.  Each check reports its first failing generator and
    the weight swept up to it.

    One pass per degree k visits each generator of _gen_stream(cplx, k)
    once, in one inline step that sums every identity not failed yet.  The
    pass works on (coeff, generator) pairs, not Elements, in tables that
    live for this call only: normal(d(g)), normal(h(g)) and normal(s.g)
    for each generator s of the group, once per normal generator g, all
    read through one memo of normalize, once per raw generator.  That is
    exact because the structure maps are functions of the normal
    generator and normalize is a pure function of the raw one that never
    raises; equal raw generators get the memo's one normal object, so the
    tables share generators instead of holding equal copies.  The action
    law, run first, reads act(s) and normal forms through the same tables.
    Degree k looks up generators of degrees k - 1, k and k + 1 only, so
    after it the entries of degree < k are dropped from the tables and
    the memo.  An identity sums normal pairs through a table straight
    into one dict of coefficients and reduces only those in the ring."""
    if max_degree < 0:
        raise InvalidInput(f"max_degree must be >= 0, got {max_degree}")
    # an integer 0 is 0 in every ring, so a sum reduces only its nonzero
    # coefficients, up to the first that does not vanish
    degree_of, reduce = cplx.degree_of, ring.normalize
    normal = Table(cplx.normalize)
    d, h = normal_terms(normal, cplx.boundary_terms), normal_terms(normal, cplx.contraction_terms)
    tables, acts = [normal, d, h], ()
    live = ["d.d = 0", "dh + hd = Id - rho", "h.h = 0"]
    checks = {}

    base = normal[cplx.basepoint_gen()]
    iota_ok = base is None or not any(map(reduce, add_terms({}, h[base], None).values()))
    checks["h.iota = 0"] = Check("h.iota = 0", iota_ok, None, 1)

    if cplx.group is not None:
        # the action law and the group's generators prove it for every g:
        # see the module docstring
        by_s = act_tables(cplx, normal)
        law = first_fail("action law", cplx.action_law(normal, by_s))
        if law.ok:
            acts = list(by_s.values())
            tables += acts
            live.append("d equivariant")
        else:
            checks["d equivariant"] = Check("d equivariant", False, law.counterexample)

    count = 0
    for k in range(max_degree + 1):
        for gen, weight in _gen_stream(cplx, k):
            if not live:
                break
            count += weight
            dx, hx, failed = d[gen], h[gen], []
            if "d.d = 0" in live:
                acc = {}
                for c, y in dx:
                    for c2, z in d[y]:
                        acc[z] = acc.get(z, 0) + c * c2
                if any(map(reduce, filter(None, acc.values()))):
                    failed.append("d.d = 0")
            if "dh + hd = Id - rho" in live:
                acc = add_terms({gen: -1}, cplx.rho_terms(gen), normal.__getitem__)
                for c, y in hx:
                    for c2, z in d[y]:
                        acc[z] = acc.get(z, 0) + c * c2
                for c, y in dx:
                    for c2, z in h[y]:
                        acc[z] = acc.get(z, 0) + c * c2
                if any(map(reduce, filter(None, acc.values()))):
                    failed.append("dh + hd = Id - rho")
            if "h.h = 0" in live:
                acc = {}
                for c, y in hx:
                    for c2, z in h[y]:
                        acc[z] = acc.get(z, 0) + c * c2
                if any(map(reduce, filter(None, acc.values()))):
                    failed.append("h.h = 0")
            if "d equivariant" in live:
                for act_s in acts:
                    # d(s.x) - s.dx, once every term of s.x has degree k
                    acc = {}
                    for c, y in act_s[gen]:
                        if degree_of(y) != k:
                            break
                        for c2, z in d[y]:
                            acc[z] = acc.get(z, 0) + c * c2
                    else:
                        for c, y in dx:
                            for c2, z in act_s[y]:
                                acc[z] = acc.get(z, 0) - c * c2
                        if not any(map(reduce, filter(None, acc.values()))):
                            continue
                    failed.append("d equivariant")
                    break
            for name in failed:
                live.remove(name)
                checks[name] = Check(name, False, cplx.format_gen(gen), count)
        for table in tables:
            table.forget_below(k, degree_of)
    for name in live:
        checks[name] = Check(name, True, None, count)

    order = ("d.d = 0", "dh + hd = Id - rho", "h.h = 0", "h.iota = 0", "d equivariant")
    return Report(
        f"contraction identities for {cplx.name}",
        [checks[name] for name in order if name in checks],
    )
