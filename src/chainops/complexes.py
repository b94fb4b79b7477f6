"""Chain complex descriptors and element-level operators.

A complex object owns its generator encoding: canonicalization
(degenerate generators collapse to zero), degrees, boundary and
contraction formulas on generators, augmentation and basepoint, basis
enumeration, and the group action when one exists.  Elements tie a
complex to a coefficient ring; the operators here extend the
generator-level formulas linearly.

Every contraction in the library satisfies h^2 = 0 and h(iota) = 0;
`verify_contracted` in procedure.py checks this degree by degree.
"""

from itertools import product as _product

from .elements import Element, single
from .errors import InvalidInput


class ChainComplex:
    name = "complex"
    group = None

    # -- generator encoding -------------------------------------------------

    def canonical(self, gen):
        return gen

    def degree_of(self, gen):
        raise NotImplementedError

    def key(self, gen):
        return gen

    def format_gen(self, gen):
        return repr(gen)

    def encode_gen(self, gen):
        return list(gen)

    # -- structure maps on generators ---------------------------------------

    def boundary_terms(self, gen):
        raise NotImplementedError

    def contraction_terms(self, gen):
        raise NotImplementedError(f"{self.name} has no preferred contraction")

    def augmentation(self, gen):
        return 1

    def basepoint_gen(self):
        raise NotImplementedError

    def rho_terms(self, gen):
        if self.degree_of(gen) == 0:
            return [(self.augmentation(gen), self.basepoint_gen())]
        return []

    # -- bases ---------------------------------------------------------------

    def basis(self, degree):
        raise NotImplementedError

    def gbasis(self, degree):
        """F[G]-basis generators in the given degree (group complexes only)."""
        raise NotImplementedError

    # -- group action ----------------------------------------------------------

    def act_terms(self, g, gen):
        raise NotImplementedError

    def decompose(self, gen):
        """Write gen = coeff * (g * b) with b an F[G]-basis generator."""
        raise NotImplementedError

    def __repr__(self):
        return self.name

    # -- element helpers --------------------------------------------------------

    def zero(self, ring, degree):
        return Element(self, ring, degree)

    def el(self, ring, gen, coeff=1):
        return single(self, ring, gen, coeff)

    def basepoint(self, ring):
        return self.el(ring, self.basepoint_gen())


def boundary(x):
    return x.map_terms(x.complex.boundary_terms, degree_shift=-1)


def contract(x):
    return x.map_terms(x.complex.contraction_terms, degree_shift=1)


def act(g, x):
    return x.map_terms(lambda gen: x.complex.act_terms(g, gen))


def augment(x):
    if x.degree != 0:
        return x.ring.normalize(0)
    total = 0
    for gen, coeff in x.terms.items():
        total += coeff * x.complex.augmentation(gen)
    return x.ring.normalize(total)


def rho(x):
    """iota(epsilon(x)): the basepoint projection, zero in positive degrees."""
    if x.degree != 0:
        return x.complex.zero(x.ring, 0)
    return x.complex.el(x.ring, x.complex.basepoint_gen(), augment(x))


class TensorComplex(ChainComplex):
    """Tensor product with the Koszul boundary and the preferred contraction
    h = sum_i rho ox ... ox rho ox h ox Id ox ... ox Id."""

    def __init__(self, factors):
        if not factors:
            raise InvalidInput("tensor product needs at least one factor")
        self.factors = tuple(factors)
        self.name = " (x) ".join(f.name for f in self.factors)
        groups = [getattr(f, "group", None) for f in self.factors]
        if all(g is not None for g in groups):
            from .groups import ProductGroup

            self.group = ProductGroup(groups)

    def canonical(self, gen):
        out = []
        for f, g in zip(self.factors, gen):
            g = f.canonical(g)
            if g is None:
                return None
            out.append(g)
        return tuple(out)

    def degree_of(self, gen):
        return sum(f.degree_of(g) for f, g in zip(self.factors, gen))

    def key(self, gen):
        return tuple(f.key(g) for f, g in zip(self.factors, gen))

    def format_gen(self, gen):
        return " (x) ".join(f.format_gen(g) for f, g in zip(self.factors, gen))

    def encode_gen(self, gen):
        return [f.encode_gen(g) for f, g in zip(self.factors, gen)]

    def boundary_terms(self, gen):
        out = []
        sign = 1
        for i, (f, g) in enumerate(zip(self.factors, gen)):
            for c, dg in f.boundary_terms(g):
                out.append((sign * c, gen[:i] + (dg,) + gen[i + 1 :]))
            if f.degree_of(g) % 2:
                sign = -sign
        return out

    def contraction_terms(self, gen):
        out = []
        for i, (f, g) in enumerate(zip(self.factors, gen)):
            # rho on the factors before slot i, h on slot i
            ok = True
            rho_parts = []
            for j in range(i):
                fj, gj = self.factors[j], gen[j]
                rj = fj.rho_terms(gj)
                if not rj:
                    ok = False
                    break
                rho_parts.append(rj)
            if not ok:
                continue
            for c, hg in f.contraction_terms(g):
                for combo in _product(*rho_parts) if rho_parts else [()]:
                    coeff = c
                    head = []
                    for cc, gg in combo:
                        coeff *= cc
                        head.append(gg)
                    out.append(
                        (coeff, tuple(head) + (hg,) + gen[i + 1 :])
                    )
        return out

    def augmentation(self, gen):
        total = 1
        for f, g in zip(self.factors, gen):
            total *= f.augmentation(g)
        return total

    def basepoint_gen(self):
        return tuple(f.basepoint_gen() for f in self.factors)

    def basis(self, degree):
        return self._split(degree, "basis")

    def gbasis(self, degree):
        return self._split(degree, "gbasis")

    def _split(self, degree, method):
        """Tensors of total degree `degree`, each factor's generators drawn
        from its own `method` (basis or gbasis) in every degree split."""
        enums = [getattr(f, method) for f in self.factors]
        last = len(enums) - 1

        def rec(i, remaining):
            if i == last:
                for g in enums[i](remaining):
                    yield (g,)
                return
            for d in range(remaining + 1):
                for g in enums[i](d):
                    for rest in rec(i + 1, remaining - d):
                        yield (g,) + rest

        return rec(0, degree)

    def act_terms(self, ghat, gen):
        """Factorwise action of a product-group element (no Koszul signs)."""
        parts = [
            f.act_terms(g, x)
            for f, g, x in zip(self.factors, ghat, gen)
        ]
        out = []
        for combo in _product(*parts):
            coeff = 1
            gens = []
            for c, g in combo:
                coeff *= c
                gens.append(g)
            out.append((coeff, tuple(gens)))
        return out

    def decompose(self, gen):
        gs, coeff, bs = [], 1, []
        for f, g in zip(self.factors, gen):
            gi, ci, bi = f.decompose(g)
            gs.append(gi)
            coeff *= ci
            bs.append(bi)
        return tuple(gs), coeff, tuple(bs)

    def __eq__(self, other):
        return isinstance(other, TensorComplex) and other.factors == self.factors

    def __hash__(self):
        return hash(self.factors)


def tensor_elements(target, *xs):
    """Tensor elements x_1 (x) ... (x) x_k into the given TensorComplex."""
    ring = xs[0].ring
    for x in xs:
        if x.ring != ring:
            raise InvalidInput("tensoring elements over different rings")
    degree = sum(x.degree for x in xs)
    terms = {}
    for combo in _product(*(list(x.terms.items()) for x in xs)):
        gen = tuple(g for g, _ in combo)
        coeff = 1
        for _, c in combo:
            coeff *= c
        gen = target.canonical(gen)
        if gen is None:
            continue
        c = ring.normalize(terms.get(gen, 0) + coeff)
        if c:
            terms[gen] = c
        else:
            terms.pop(gen, None)
    return Element(target, ring, degree, terms, _clean=True)
