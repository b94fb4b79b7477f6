"""The surjection complexes S^aj, S^bf, S^ms and their isomorphisms.

One generator encoding serves all three flavors: a nondegenerate
surjective sequence x: {1..n+k} -> {1..n}, zero otherwise.  The flavor
selects the boundary signs (simplicial alternation for aj, the caesura
table for bf, prism-face blocks for ms), the action signs, the
augmentation, and the contraction signs.  The flavors are isomorphic
via the diagonal sign maps c(x), p(x), and their product.
"""

from functools import lru_cache

from .complexes import ChainComplex
from .errors import InvalidInput
from .perms import Perm, perm_of_word

FLAVORS = ("aj", "bf", "ms")


def caesuras(x):
    """1-based positions of entries that recur later (the caesuras)."""
    out = []
    for j, v in enumerate(x):
        if v in x[j + 1 :]:
            out.append(j + 1)
    return out


def caesura_word(x):
    return tuple(x[j - 1] for j in caesuras(x))


def value_positions(x, n):
    pos = [[] for _ in range(n + 1)]
    for j, v in enumerate(x, start=1):
        pos[v].append(j)
    return pos


def aj_signs(x):
    return [(-1) ** j for j in range(len(x))]


def bf_signs(x):
    """Berger-Fresse sign table: alternate on caesuras from +1, final
    occurrences get the opposite of their preceding caesura, singletons 0."""
    signs = [0] * len(x)
    last_caesura_sign = {}
    toggle = 1
    recur = caesuras(x)
    recur_set = set(recur)
    for j, v in enumerate(x, start=1):
        if j in recur_set:
            signs[j - 1] = toggle
            last_caesura_sign[v] = toggle
            toggle = -toggle
        elif v in last_caesura_sign:
            signs[j - 1] = -last_caesura_sign[v]
    return signs


def ms_signs(x):
    """Prism-face signs: delete 1s, then 2s, ... with blockwise alternation;
    each block starts where the previous one ended."""
    n = max(x)
    pos = value_positions(x, n)
    signs = [0] * len(x)
    current = 1
    for v in range(1, n + 1):
        for t, j in enumerate(pos[v]):
            signs[j - 1] = current * (-1) ** t
        current = current * (-1) ** (len(pos[v]) - 1)
    return signs


@lru_cache(maxsize=65536)
def _odd_factor_values(x, n):
    """Values whose prism factor has odd dimension (even multiplicity)."""
    counts = [0] * (n + 1)
    for v in x:
        counts[v] += 1
    return tuple(v for v in range(1, n + 1) if (counts[v] - 1) % 2)


def mu_sign(g, x):
    """(-1)^mu(g, x): the Koszul sign of permuting the odd prism factors."""
    odd = _odd_factor_values(x, g.n)
    mu = 0
    for i in range(len(odd)):
        gi = g(odd[i])
        for j in range(i + 1, len(odd)):
            if gi > g(odd[j]):
                mu += 1
    return -1 if mu % 2 else 1


class SurjectionComplex(ChainComplex):
    def __init__(self, flavor, n):
        if flavor not in FLAVORS:
            raise InvalidInput(f"unknown flavor {flavor!r}")
        if n < 1:
            raise InvalidInput("arity must be >= 1")
        from .groups import SymmetricGroup

        self.flavor = flavor
        self.n = n
        self.group = SymmetricGroup(n)
        self.name = f"S^{flavor}({n})"

    def validate(self, gen):
        gen = tuple(gen)
        for v in gen:
            if not 1 <= v <= self.n:
                raise InvalidInput(f"entry {v} outside 1..{self.n}")
        return gen

    def normalize(self, gen):
        """None unless gen is surjective with no equal neighbours."""
        prev = None
        for v in gen:
            if v == prev:
                return None
            prev = v
        if len(set(gen)) < self.n:
            return None
        return gen

    def degree_of(self, gen):
        return len(gen) - self.n

    def format_gen(self, gen):
        return "(" + ",".join(str(v) for v in gen) + ")"

    def signs(self, gen):
        if self.flavor == "aj":
            return aj_signs(gen)
        if self.flavor == "bf":
            return bf_signs(gen)
        return ms_signs(gen)

    def boundary_terms(self, gen):
        if len(gen) == self.n:
            return []
        signs = self.signs(gen)
        out = []
        for j, s in enumerate(signs):
            if s:
                out.append((s, gen[:j] + gen[j + 1 :]))
        return out

    def augmentation(self, gen):
        if self.flavor == "aj":
            return perm_of_word(gen)
        return 1

    def basepoint_gen(self):
        return tuple(range(1, self.n + 1))

    def act_terms(self, g, gen):
        images = g.images
        if len(images) != self.n:
            raise InvalidInput("arity mismatch in surjection action")
        image = tuple([images[v - 1] for v in gen])
        if self.flavor == "bf":
            return [(1, image)]
        if self.flavor == "aj":
            return [(g.parity(), image)]
        return [(mu_sign(g, gen), image)]

    def contraction_terms(self, gen):
        """h = sum_q (+-1)^q i^q s r^q, the telescoping contraction."""
        out = []
        for q in range(self.n - 1):
            seq = list(gen)
            sign = 1
            dead = False
            for t in range(1, q + 1):
                if seq.count(t) != 1:
                    dead = True
                    break
                j = seq.index(t) + 1
                if self.flavor == "aj":
                    sign *= (-1) ** (j - 1)
                seq.remove(t)
            if dead:
                continue
            if self.flavor == "aj":
                sign *= (-1) ** q
            out.append((sign, tuple(range(1, q + 2)) + tuple(seq)))
        return out

    def basis(self, degree):
        length = self.n + degree
        if degree < 0:
            return

        def rec(prefix, seen):
            if len(prefix) == length:
                if len(seen) == self.n:
                    yield tuple(prefix)
                return
            # prune: must still be able to reach all n values
            if self.n - len(seen) > length - len(prefix):
                return
            for v in range(1, self.n + 1):
                if prefix and prefix[-1] == v:
                    continue
                prefix.append(v)
                added = v not in seen
                if added:
                    seen.add(v)
                yield from rec(prefix, seen)
                if added:
                    seen.discard(v)
                prefix.pop()

        yield from rec([], set())

    def gbasis(self, degree):
        for gen in self.basis(degree):
            if is_basis_gen(gen):
                yield gen

    def first_occurrence_perm(self, gen):
        seen = []
        for v in gen:
            if v not in seen:
                seen.append(v)
        return Perm._trusted(tuple(seen))

    def decompose(self, gen):
        g = self.first_occurrence_perm(gen)
        if g.is_identity():
            return g, 1, gen
        ginv = g.inverse()
        b = tuple(ginv(v) for v in gen)
        (sign, _), = self.act_terms(g, b)
        return g, sign, b

    def __eq__(self, other):
        return (
            isinstance(other, SurjectionComplex)
            and other.flavor == self.flavor
            and other.n == self.n
        )

    def __hash__(self):
        return hash(("S", self.flavor, self.n))


@lru_cache(maxsize=None)
def surjection_complex(flavor, n):
    return SurjectionComplex(flavor, n)


def is_basis_gen(x):
    """First occurrences of 1, 2, ..., n appear in that order."""
    seen = []
    for v in x:
        if v not in seen:
            seen.append(v)
    return seen == sorted(seen)


def is_clean_gen(x):
    """x = (1, 2, ..., l, ..., l, ...) with l the first caesura and the
    smaller values singletons; in degree 0 only the identity is clean."""
    n = len(set(x))
    if len(x) == n:
        return x == tuple(range(1, n + 1))
    cs = caesuras(x)
    first = cs[0]
    if x[first - 1] != first:
        return False
    if tuple(x[:first]) != tuple(range(1, first + 1)):
        return False
    return all(x.count(v) == 1 for v in range(1, first))


# -- the sign functions of the isomorphisms -----------------------------------


def sign_c(x):
    """Caesura-shuffle parity: stable sort of the caesura value word."""
    return perm_of_word(caesura_word(x))


def sign_delta(x):
    """(-1)^sh(C, N): parity of pairs (non-caesura before caesura)."""
    recur = set(caesuras(x))
    count = 0
    for i in range(1, len(x) + 1):
        if i not in recur:
            count += sum(1 for j in range(i + 1, len(x) + 1) if j in recur)
    return -1 if count % 2 else 1


def tau_f(x):
    """Parity of the permutation of final occurrences read left to right."""
    final = [v for j, v in enumerate(x, start=1) if j not in set(caesuras(x))]
    return perm_of_word(final)


def prism_perm(x):
    """p_x: caesura positions grouped by value, then final positions."""
    n = max(x)
    pos = value_positions(x, n)
    word = []
    for v in range(1, n + 1):
        word.extend(pos[v][:-1])
    for v in range(1, n + 1):
        word.append(pos[v][-1])
    return Perm._trusted(tuple(word))


def sign_p(x):
    """The prism orientation sign p(x) = tau(p_x)."""
    return prism_perm(x).parity()


_ISO_SIGN = {
    ("bf", "ms"): sign_c,
    ("ms", "bf"): sign_c,
    ("aj", "ms"): sign_p,
    ("ms", "aj"): sign_p,
    ("aj", "bf"): lambda x: sign_p(x) * sign_c(x),
    ("bf", "aj"): lambda x: sign_p(x) * sign_c(x),
}


def _no_sign(x):
    return 1


def iso_sign(src_flavor, dst_flavor):
    """The sign function s of the flavor isomorphism, iso(x) = s(x) x on a
    generator x; constant 1 between equal flavors.  Table reduction carries
    the sign of S^bf -> S^flavor and the prism map that of S^flavor -> S^ms."""
    if src_flavor == dst_flavor:
        return _no_sign
    return _ISO_SIGN[(src_flavor, dst_flavor)]


def iso(src_flavor, dst_flavor, x):
    """The equivariant chain isomorphism between two flavors, x -> (+-1) x."""
    if src_flavor not in FLAVORS or dst_flavor not in FLAVORS:
        raise InvalidInput("unknown surjection flavor")
    src = x.complex
    if not isinstance(src, SurjectionComplex) or src.flavor != src_flavor:
        raise InvalidInput(f"element does not live in S^{src_flavor}")
    if src_flavor == dst_flavor:
        return x
    target = surjection_complex(dst_flavor, src.n)
    fn = iso_sign(src_flavor, dst_flavor)
    return x.map_terms(lambda gen: [(fn(gen), gen)], codomain=target)
