"""Chain complex descriptors and element-level operators.

A complex object owns its generator encoding: normal forms (degenerate
generators collapse to zero), degrees, boundary and contraction formulas
on generators, augmentation and basepoint, basis enumeration, and the
group action when one exists.  Elements tie a complex to a coefficient
ring; the operators here extend the generator-level formulas linearly.

Input is validated at the edge and normalised inside.  `canonical(gen)`
is for generators from outside (parsers, `Element(...)` with raw pairs,
`el`): it runs the family's `validate`, which raises InvalidInput on a
malformed generator, then `normalize`.  `normalize(gen)` is for the
generators the library builds itself (structure maps, bases, sums): it
only decides degeneracy or the normal form, and never raises.

Every contraction in the library satisfies h^2 = 0 and h(iota) = 0;
`verify_contracted` in procedure.py checks this degree by degree.  The
complexes whose simplices are their vertex sequences, N(Delta^m), products
of simplices (a vertex is a column) and N(EG), share one normal form, one
boundary and one cone contraction in VertexSequenceComplex.

A complex with a group states, next to `act_terms`, the law that makes
its action a group action (`action_law`): the finite data the action
depends on, checked through `act_terms` by `law_cases`.  `act` has the
complex validate a group element from outside (`validate_acting`).

`named_complex(family, n)` is the one map from a family's name to its
complex; the CLI, the suites and the operads select complexes through it.
"""

import sys
from importlib import import_module
from itertools import chain as _chain
from itertools import product as _product
from math import prod

from .elements import Element, add_terms, built, single
from .errors import InvalidInput
from .groups import ProductGroup


class ChainComplex:
    name = "complex"
    group = None

    # -- generator encoding -------------------------------------------------

    def canonical(self, gen):
        """A generator from outside, validated and then normalised."""
        return self.normalize(self.validate(gen))

    def validate(self, gen):
        """gen in the encoding's form, or InvalidInput; families that check
        input override this."""
        return gen

    def entries(self, gen):
        """gen as a tuple, or InvalidInput when it is not a tuple or list."""
        if not isinstance(gen, (tuple, list)):
            raise InvalidInput(f"a generator of {self.name} is a sequence, not {gen!r}")
        return tuple(gen)

    def normalize(self, gen):
        """The normal form of a generator the library built, or None when it
        is degenerate; never raises."""
        return gen

    def degree_of(self, gen):
        raise NotImplementedError

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

    def validate_acting(self, g):
        """g from outside as act_terms takes it, or InvalidInput."""
        return g

    def act_terms(self, g, gen):
        raise NotImplementedError

    def action_law(self, normal=None, acts=None):
        """(case, ok) pairs that prove act_terms is a group action:
        act(e) = Id and act(s.h) = act(s) act(h) for every generator s and
        every h.  A family evaluates them with `law_cases` on witnesses
        that carry all the data its action formula depends on, and the
        sweep's tables `normal` and `acts` when it is given them."""
        raise NotImplementedError(f"{self.name} states no action law")

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
        return built(self, ring, self.basepoint_gen())


class VertexSequenceComplex(ChainComplex):
    """Normalized chains of a simplicial set whose simplices are their
    vertex sequences, as N(Delta^m), N(Delta^m x Delta^n) and N(EG) are:
    face j deletes entry j, and a sequence is degenerate when it is empty
    or repeats a vertex in two neighbouring entries.

    The cone vertex, which a subclass sets, is the basepoint, and the
    contraction h(x) = (cone, x) prepends it."""

    def normalize(self, gen):
        """None for the empty sequence and for two equal neighbours."""
        gen = tuple(gen)
        if not gen:
            return None
        prev = None
        for v in gen:
            if v == prev:
                return None
            prev = v
        return gen

    def degree_of(self, gen):
        return len(gen) - 1

    def boundary_terms(self, gen):
        if len(gen) <= 1:
            return []
        return [((-1) ** j, gen[:j] + gen[j + 1 :]) for j in range(len(gen))]

    def contraction_terms(self, gen):
        return [(1, (self.cone,) + gen)]

    def basepoint_gen(self):
        return (self.cone,)


def nondegenerate_words(letters, length, need):
    """The words of `length` entries from `letters` with no two equal
    neighbours and at least `need` distinct letters, in lexicographic order
    of the letters' positions: the bases of N(EG) (need 0) and of the
    surjection complexes (need every letter); none when length < 1 or
    length < need.  The words come lazily, one block per prefix, so memory
    does not grow with their number."""
    return _chain.from_iterable(_word_blocks(letters, length, need))


def _word_blocks(letters, length, need):
    """The words of nondegenerate_words, one lazy block per prefix of
    length - 1 entries.  One odometer over the prefix's positions: a
    position moves on to its next letter that differs from its left
    neighbour and leaves room for the letters still missing, and the
    positions after it start again from the first letter."""
    m = len(letters)
    if length < max(need, 1):
        return
    tails = [(g,) for g in letters]
    # the last entries after letter k; after no letter (k = -1) every one
    after = [tails[:k] + tails[k + 1 :] for k in range(m)] + [tails]
    count = [0] * m
    at = []  # the prefix, as positions in `letters`
    missing = need
    j = 0  # the next letter to try at position len(at)
    while True:
        prev = at[-1] if at else -1
        room = length - len(at) - 1
        if room:
            while j < m and (j == prev or (missing > room and count[j])):
                j += 1
            if j < m:
                at.append(j)
                count[j] += 1
                if count[j] == 1:
                    missing -= 1
                j = 0
                continue
        else:
            head = tuple(map(letters.__getitem__, at))
            ends = after[prev] if missing <= 0 else [tails[k] for k in range(m) if not count[k]]
            yield map(head.__add__, ends)
        if not at:
            return
        j = at.pop()
        count[j] -= 1
        if not count[j]:
            missing += 1
        j += 1


def law_cases(cplx, witnesses, normal=None, acts=None):
    """(case, ok) pairs of the action law on each witness generator x,
    over the integers: act(e) x = x, and act(s.h) x = act(s) act(h) x for
    every generator s and every h.  By induction on a word for g, the law
    gives act(g.h) = act(g) act(h) for all g and h on the generators whose
    action the witnesses determine.  act(g) x is computed once per g and
    witness, act(s) is read from the tables `acts` and every generator is
    normalised through the memo `normal`: verify_contracted's own, or new
    ones.  A witness that normalises to zero has no case, and the products
    (h, s, s.h) are computed once per law, h-major."""
    group = cplx.group
    if normal is None:
        from .procedure import Table, act_tables

        normal = Table(cplx.normalize)
        acts = act_tables(cplx, normal)
    act_terms, normalize = cplx.act_terms, normal.__getitem__
    elements = tuple(group.elements())
    products = [(h, s, group.mul(s, h)) for h in elements for s in group.generators()]

    def where(x, s=None, h=None):
        at = "e" if s is None else f"s = {group.format(s)}, h = {group.format(h)}"
        return f"action law at {at}, x = {cplx.format_gen(x)}"

    def image(g, x):
        if g in acts:
            return add_terms({}, acts[g][x], None)
        return add_terms({}, act_terms(g, x), normalize)

    # a case is named only when it fails: first_fail reads no other
    for x in map(normalize, witnesses):
        if x is None:
            continue
        images = {g: image(g, x) for g in elements}
        ok = images[group.identity] == {x: 1}
        yield (None if ok else where(x)), ok
        for h, s, sh in products:
            act_s, acc = acts[s], dict(images[sh])
            for g, c in images[h].items():
                for c2, y in act_s[g]:
                    acc[y] = acc.get(y, 0) - c * c2
            ok = not any(acc.values())
            yield (None if ok else where(x, s, h)), ok


def named_complex(family, n):
    """The complex of a family by name: a surjection flavor "aj", "bf" or
    "ms" gives S^flavor(n), "eg" N(ESigma_n), "cyclic" N(EC_n), "minimal"
    M(n) and "simplex" N(Delta^n).  Only that family's module is imported,
    and its factory interns the complex, so one name and n give one object."""
    if family in ("aj", "bf", "ms"):
        return package_module("surjections").surjection_complex(family, n)
    if family in ("eg", "cyclic"):
        maclane = package_module("maclane")
        return (maclane.sym_eg if family == "eg" else maclane.cyc_eg)(n)
    if family == "minimal":
        return package_module("minimal").minimal_complex(n)
    if family == "simplex":
        return package_module("simplex").simplex_complex(n)
    raise InvalidInput(f"unknown complex family {family!r}")


def package_module(module):
    """The package's module, imported on first use.  An import statement
    costs about 2 us even once the module is loaded, and the operad
    composites ask for one on every generator."""
    name = f"{__package__}.{module}"
    return sys.modules.get(name) or import_module(name)


def boundary(x):
    return x.map_terms(x.complex.boundary_terms, degree_shift=-1)


def contract(x):
    return x.map_terms(x.complex.contraction_terms, degree_shift=1)


def act(g, x):
    cplx = x.complex
    g = cplx.validate_acting(g)
    return x.map_terms(lambda gen: cplx.act_terms(g, gen))


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
    return built(x.complex, x.ring, x.complex.basepoint_gen(), augment(x))


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
            self.group = ProductGroup(groups)

    def validate(self, gen):
        if not isinstance(gen, (tuple, list)) or len(gen) != len(self.factors):
            raise InvalidInput(f"a generator of {self.name} has {len(self.factors)} factors")
        return tuple(f.validate(g) for f, g in zip(self.factors, gen))

    def normalize(self, gen):
        out = []
        for f, g in zip(self.factors, gen):
            g = f.normalize(g)
            if g is None:
                return None
            out.append(g)
        return tuple(out)

    def degree_of(self, gen):
        return sum(f.degree_of(g) for f, g in zip(self.factors, gen))

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
        rho_parts = []
        for i, (f, g) in enumerate(zip(self.factors, gen)):
            # rho on the factors before slot i, h on slot i
            for c, hg in f.contraction_terms(g):
                for coeff, head in _tensor_terms(rho_parts):
                    out.append((c * coeff, head + (hg,) + gen[i + 1 :]))
            rho = f.rho_terms(g)
            if not rho:
                break
            rho_parts.append(rho)
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

    def validate_acting(self, ghat):
        return tuple(f.validate_acting(g) for f, g in zip(self.factors, ghat))

    def act_terms(self, ghat, gen):
        """Factorwise action of a product-group element (no Koszul signs)."""
        return list(
            _tensor_terms(f.act_terms(g, x) for f, g, x in zip(self.factors, ghat, gen))
        )

    def action_law(self, normal=None, acts=None):
        """The factors' laws, on tables of their own: the action is
        factorwise and the product's generators are the factors', so
        act(s.h) = act(s) act(h) in the slot of s and act(e) = Id in the
        others."""
        for i, f in enumerate(self.factors, start=1):
            for case, ok in f.action_law():
                yield f"factor {i}: {case}", ok

    def decompose(self, gen):
        gs, coeffs, bs = zip(*[f.decompose(g) for f, g in zip(self.factors, gen)])
        return gs, prod(coeffs), bs

    def __eq__(self, other):
        return isinstance(other, TensorComplex) and other.factors == self.factors

    def __hash__(self):
        return hash(self.factors)


def _tensor_terms(parts):
    """(product of the coefficients, tuple of the generators) for every
    choice of one (coeff, gen) pair from each part."""
    for combo in _product(*parts):
        coeff = 1
        for c, _ in combo:
            coeff *= c
        yield coeff, tuple(g for _, g in combo)


def tensor_elements(target, *xs):
    """x_1 (x) ... (x) x_k in the TensorComplex target, one element per factor in order.

    The factors' generators are normal and the target normalises factor by
    factor, so every tensor of them is normal and no two are equal: the
    terms are built as they are, factor by factor, and only the
    coefficient products are reduced in the ring."""
    if len(xs) != len(target.factors):
        raise InvalidInput(f"{target.name} has {len(target.factors)} factors, not {len(xs)}")
    ring, degree = xs[0].ring, 0
    for f, x in zip(target.factors, xs):
        if x.complex is not f and x.complex != f:
            raise InvalidInput(f"an element of {x.complex} is not in the factor {f}")
        if x.ring != ring:
            raise InvalidInput("tensoring elements over different rings")
        degree += x.degree
    pairs = [((), 1)]
    for x in xs:
        pairs = [(t + (g,), c * xc) for t, c in pairs for g, xc in x.terms.items()]
    terms = {t: nc for t, c in pairs if (nc := ring.normalize(c))}
    return Element(target, ring, degree, terms, _clean=True)
