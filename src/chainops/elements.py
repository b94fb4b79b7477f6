"""Sparse formal sums over normalised generators of a chain complex.

An Element is a finite map generator -> nonzero coefficient, tagged
with its complex, coefficient ring, and (homogeneous) degree.  Zero
elements keep a degree tag; adding a zero across degrees is allowed.

Sums of (coeff, raw generator) pairs are collected by one loop,
`add_terms`: each generator goes through a normal-form function of the
complex, which may declare it degenerate (dropped) but never rescales
it.  `Element(...)` with raw pairs and `single` take input from outside
and use the complex's `canonical` (validate, then normalise); `collect`,
`map_terms` and the library's own constructions use its `normalize`, which
never raises.
"""

from .errors import InvalidInput, check_guard


class Element:
    __slots__ = ("complex", "ring", "degree", "terms")

    def __init__(self, complex, ring, degree, terms=None, *, _clean=False):
        self.complex = complex
        self.ring = ring
        self.degree = degree
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            pairs = (
                ((c, g) for g, c in terms.items())
                if isinstance(terms, dict)
                else terms
            )
            self.terms = reduce_terms(add_terms({}, pairs, complex.canonical), ring)
        check_guard(len(self.terms))

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def items_sorted(self):
        key = self.complex.key
        return sorted(self.terms.items(), key=lambda item: key(item[0]))

    def coeff(self, gen):
        return self.terms.get(gen, 0)

    def __iter__(self):
        return iter(self.items_sorted())

    def __len__(self):
        return len(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other):
        if self.complex is not other.complex and self.complex != other.complex:
            raise InvalidInput(
                f"mixing complexes {self.complex} and {other.complex}"
            )
        if self.ring != other.ring:
            raise InvalidInput(f"mixing rings {self.ring} and {other.ring}")
        if self.terms and other.terms and self.degree != other.degree:
            raise InvalidInput(
                f"adding degree {self.degree} to degree {other.degree}"
            )

    def __add__(self, other):
        self._check_compat(other)
        terms = dict(self.terms)
        ring = self.ring
        for gen, coeff in other.terms.items():
            c = ring.normalize(terms.get(gen, 0) + coeff)
            if c:
                terms[gen] = c
            else:
                terms.pop(gen, None)
        degree = self.degree if self.terms else other.degree
        return Element(self.complex, ring, degree, terms, _clean=True)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        ring = self.ring
        terms = {}
        for gen, coeff in self.terms.items():
            c = ring.normalize(scalar * coeff)
            if c:
                terms[gen] = c
        return Element(self.complex, ring, self.degree, terms, _clean=True)

    def __eq__(self, other):
        """Same complex, ring, degree and terms, except that two zeros of
        one complex and ring are equal whatever their degree tags (and hash
        equal, as the hash leaves the degree out).  A zero carries no
        homogeneous degree of its own: `__add__` lets it cross degrees, and
        a map's zero image is tagged with whatever degree that map chose."""
        if not isinstance(other, Element):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return self.complex == other.complex and self.ring == other.ring
        return (
            self.complex == other.complex
            and self.ring == other.ring
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.complex, self.ring, frozenset(self.terms.items())))

    # -- linear extension ---------------------------------------------------

    def map_terms(self, fn, codomain=None, degree_shift=0):
        """Apply a generator-wise linear map and collect the result.

        fn(gen) returns either an Element or an iterable of (coeff, raw
        generator) pairs in `codomain` (default: this complex); the library
        builds those generators, so they are normalised, not validated.
        """
        target = codomain if codomain is not None else self.complex
        ring, normalize = self.ring, target.normalize
        acc = {}
        out_degree = self.degree + degree_shift
        for gen, coeff in self.terms.items():
            image = fn(gen)
            if isinstance(image, Element):
                if not image.is_zero():
                    out_degree = image.degree
                pairs = ((c, g) for g, c in image.terms.items())
            else:
                pairs = image
            add_terms(acc, pairs, normalize, coeff)
            check_guard(len(acc))
        return Element(target, ring, out_degree, reduce_terms(acc, ring), _clean=True)

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for gen, coeff in self.items_sorted():
            s = self.complex.format_gen(gen)
            if coeff == 1:
                bits.append(f"+ {s}")
            elif coeff == -1:
                bits.append(f"- {s}")
            elif coeff < 0:
                bits.append(f"- {-coeff}*{s}")
            else:
                bits.append(f"+ {coeff}*{s}")
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else out


def add_terms(acc, pairs, normalize, scale=1):
    """Add scale * coeff to acc[normalize(gen)] for every (coeff, raw
    generator) pair, skipping generators normalize sends to None and
    removing entries that cancel; returns acc."""
    for c, g in pairs:
        g = normalize(g)
        if g is None:
            continue
        v = acc.get(g, 0) + scale * c
        if v:
            acc[g] = v
        else:
            acc.pop(g, None)
    return acc


def reduce_terms(acc, ring):
    """The coefficients of acc in the ring's normal form, zeros dropped."""
    return {g: nc for g, c in acc.items() if (nc := ring.normalize(c))}


def collect(complex, ring, degree, pairs):
    """The Element summing (coeff, generator) pairs the library built:
    each generator goes through complex.normalize, unvalidated."""
    acc = add_terms({}, pairs, complex.normalize)
    return Element(complex, ring, degree, reduce_terms(acc, ring), _clean=True)


def single(complex, ring, gen, coeff=1):
    gen_c = complex.canonical(gen)
    degree = complex.degree_of(gen_c if gen_c is not None else gen)
    terms = {} if gen_c is None else reduce_terms({gen_c: coeff}, ring)
    return Element(complex, ring, degree, terms, _clean=True)
