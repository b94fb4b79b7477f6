"""Sparse formal sums over canonical generators of a chain complex.

An Element is a finite map generator -> nonzero coefficient, tagged
with its complex, coefficient ring, and (homogeneous) degree.  Zero
elements keep a degree tag; adding a zero across degrees is allowed.
Generators are canonicalized on construction: the complex may declare
a raw generator degenerate (dropped) but never rescales it.
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
            acc = {}
            for coeff, gen in pairs:
                gen = complex.canonical(gen)
                if gen is None:
                    continue
                c = acc.get(gen, 0) + coeff
                if c:
                    acc[gen] = c
                else:
                    acc.pop(gen, None)
            self.terms = {g: nc for g, c in acc.items() if (nc := ring.normalize(c))}
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
        generator) pairs in `codomain` (default: this complex).
        """
        target = codomain if codomain is not None else self.complex
        ring = self.ring
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
            for c, g in pairs:
                g = target.canonical(g)
                if g is None:
                    continue
                tot = acc.get(g, 0) + coeff * c
                if tot:
                    acc[g] = tot
                else:
                    acc.pop(g, None)
            check_guard(len(acc))
        terms = {g: nc for g, c in acc.items() if (nc := ring.normalize(c))}
        return Element(target, ring, out_degree, terms, _clean=True)

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


def from_pairs(complex, ring, degree, pairs):
    return Element(complex, ring, degree, list(pairs))


def single(complex, ring, gen, coeff=1):
    gen_c = complex.canonical(gen)
    degree = complex.degree_of(gen_c if gen_c is not None else gen)
    if gen_c is None:
        return Element(complex, ring, degree)
    c = ring.normalize(coeff)
    terms = {gen_c: c} if c else {}
    return Element(complex, ring, degree, terms, _clean=True)
