"""The recursive standard procedure and contraction validators.

RecursiveMap is the one engine behind every standard-procedure
construction: memoized on basis keys, a value is seed(key) in the base
case and h(defect(key)) otherwise, and a generator is split into a basis
key, a coefficient and a twist it acts by.  StandardMap builds the
equivariant chain map phi(b) = h_C(phi(d b)) from a degree-0 seed;
StandardHomotopy builds H(b) = h_C(phi1(b) - phi0(b) - H(db)); the
operad structure maps (operads.TwistedOperadMap) and the Berger-Fresse
action (action.BFActionStandard) are the other two instances.
verify_contracted checks the contraction identities (d^2 = 0,
dh + hd = Id - rho, h^2 = 0, h iota = 0, equivariance of d) degree by
degree.

For huge MacLane sweeps the verifier can consume relabeling classes:
all the identities are built from entry deletions, prepending e, and
tuple equality, so they are invariant under any bijection of the group
fixing e.  Complexes that opt in expose pattern_reps(degree) yielding
(representative, class size); checking one representative per class is
an exact, exhaustive check of the whole basis.
"""

from .complexes import act, augment, boundary, contract
from .elements import Element
from .errors import InvalidInput
from .rings import ZZ


class RecursiveMap:
    """The memoized standard procedure, with three hooks:

    seed(key)         the value on a base-case basis key, else None;
    defect(key)       the element whose contraction is the value otherwise;
    split(gen, ctx)   (key, coeff, twist) with gen = coeff * twist . key,
                      twist None for the identity.

    The default split, for maps with a fixed `domain`, `codomain`,
    `group_hom` and `equivariant` flag, writes a generator as coeff * g.b
    over the domain's group, g translated by group_hom.  A twist acts on
    values through `_act`; `shift` is the degree of the map `__call__` is.
    """

    shift = 0
    _act = staticmethod(act)

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

    def on_gen(self, gen, ctx=None):
        key, coeff, twist = self.split(gen, ctx)
        value = self.on_basis(key)
        if twist is not None:
            value = self._act(twist, value)
        return value if coeff == 1 else coeff * value

    def _map(self, x, target, shift, ctx=None):
        if not isinstance(x, Element):
            return self.on_gen(x, ctx)
        if x.is_zero():
            return target.zero(self.ring, x.degree + shift)
        return x.map_terms(
            lambda gen: self.on_gen(gen, ctx), codomain=target, degree_shift=shift
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

    def __init__(
        self, domain, codomain, ring=ZZ, degree0=None, group_hom=None,
        equivariant=True,
    ):
        super().__init__(ring)
        self.domain = domain
        self.codomain = codomain
        self.group_hom = group_hom
        self.equivariant = equivariant and domain.group is not None
        if degree0 is None:
            degree0 = lambda b: codomain.el(
                ring, codomain.basepoint_gen(), domain.augmentation(b)
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
        return self(boundary(self.domain.el(self.ring, b)))


class StandardHomotopy(RecursiveMap):
    """H with dH + Hd = phi1 - phi0, built recursively."""

    shift = 1

    def __init__(
        self, phi0, phi1, domain, codomain, ring=ZZ, group_hom=None,
        equivariant=True,
    ):
        super().__init__(ring)
        self.domain = domain
        self.codomain = codomain
        self.group_hom = group_hom
        self.equivariant = equivariant and domain.group is not None
        self.phi0 = phi0
        self.phi1 = phi1

    def defect(self, b):
        # in degree 0, H(db) = 0 and h(phi1 - phi0) is zero whenever phi0
        # and phi1 agree there; in general it is correct as long as the
        # augmentations of phi0 and phi1 match
        eb = self.domain.el(self.ring, b)
        return self.phi1(eb) - self.phi0(eb) - self(boundary(eb))


# -- comparators used by the uniqueness tests ---------------------------------


def compare_on_basis(fn1, fn2, domain, degrees, ring=ZZ, basis="basis"):
    """First basis generator where two generator-wise maps disagree."""
    enum = getattr(domain, basis)
    for k in degrees:
        for b in enum(k):
            if fn1(b) != fn2(b):
                return b
    return None


def is_chain_map(fn, domain, degrees, ring=ZZ, codomain_boundary=boundary):
    """First basis generator where fn(d x) != d(fn x)."""
    for k in degrees:
        if k == 0:
            continue
        for b in domain.basis(k):
            x = domain.el(ring, b)
            if fn(boundary(x)) != codomain_boundary(fn(x)):
                return b
    return None


def commutes_with_contractions(fn, domain, degrees, ring=ZZ):
    for k in degrees:
        for b in domain.basis(k):
            x = domain.el(ring, b)
            if fn(contract(x)) != contract(fn(x)):
                return b
    return None


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


def verify_contracted(cplx, max_degree, ring=ZZ, check_equivariance=True):
    """Check the contraction identities on every basis generator up to
    max_degree: d^2 = 0, dh + hd = Id - rho, h^2 = 0, h iota = 0, and
    equivariance of the boundary when a group acts.

    Works on raw (coeff, gen) pairs to keep exhaustive sweeps cheap."""
    checks = []
    canon = cplx.canonical
    normalize = ring.normalize

    def add_into(acc, coeff, pairs):
        for c, g in pairs:
            g = canon(g)
            if g is None:
                continue
            v = acc.get(g, 0) + coeff * c
            if v:
                acc[g] = v
            else:
                del acc[g]

    def is_zero(acc):
        return all(not normalize(c) for c in acc.values())

    def sweep(name, test):
        count = 0
        for k in range(max_degree + 1):
            for gen, weight in _gen_stream(cplx, k):
                count += weight
                if not test(gen):
                    checks.append(Check(name, False, cplx.format_gen(gen), count))
                    return
        checks.append(Check(name, True, None, count))

    def dd_zero(gen):
        acc = {}
        for c, g in cplx.boundary_terms(gen):
            g = canon(g)
            if g is not None:
                add_into(acc, c, cplx.boundary_terms(g))
        return is_zero(acc)

    def homotopy(gen):
        acc = {}
        for c, g in cplx.contraction_terms(gen):
            g = canon(g)
            if g is not None:
                add_into(acc, c, cplx.boundary_terms(g))
        for c, g in cplx.boundary_terms(gen):
            g = canon(g)
            if g is not None:
                add_into(acc, c, cplx.contraction_terms(g))
        add_into(acc, -1, [(1, gen)])
        add_into(acc, 1, cplx.rho_terms(gen))
        return is_zero(acc)

    def h_squared(gen):
        acc = {}
        for c, g in cplx.contraction_terms(gen):
            g = canon(g)
            if g is not None:
                add_into(acc, c, cplx.contraction_terms(g))
        return is_zero(acc)

    sweep("d.d = 0", dd_zero)
    sweep("dh + hd = Id - rho", homotopy)
    sweep("h.h = 0", h_squared)

    iota = cplx.basepoint(ring)
    checks.append(Check("h.iota = 0", contract(iota).is_zero(), None, 1))

    if check_equivariance and cplx.group is not None:
        elements = [
            g for g in cplx.group.elements() if not cplx.group.is_identity(g)
        ]

        def equivariant(gen):
            dx = [
                (c, gc)
                for c, g in cplx.boundary_terms(gen)
                if (gc := canon(g)) is not None
            ]
            for g in elements:
                acc = {}
                for c, h in cplx.act_terms(g, gen):
                    h = canon(h)
                    if h is not None:
                        add_into(acc, c, cplx.boundary_terms(h))
                for c, h in dx:
                    add_into(acc, -c, cplx.act_terms(g, h))
                if not is_zero(acc):
                    return False
            return True

        sweep("d equivariant", equivariant)

    return Report(f"contraction identities for {cplx.name}", checks)
