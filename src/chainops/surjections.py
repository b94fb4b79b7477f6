"""The surjection complexes S^aj, S^bf, S^ms and their isomorphisms.

One generator encoding serves all three flavors: a nondegenerate
surjective sequence x: {1..n+k} -> {1..n}, zero otherwise.  The flavor
selects the boundary signs (simplicial alternation for aj, the caesura
table for bf, prism-face blocks for ms), the action signs, the
augmentation, and the contraction signs.  The flavors are isomorphic
via the diagonal sign maps c(x), p(x), and their product.
"""

from functools import lru_cache

from .complexes import ChainComplex, law_cases, nondegenerate_words
from .errors import InvalidInput
from .groups import SymmetricGroup
from .perms import Perm, perm_of_word

FLAVORS = ("aj", "bf", "ms")


def caesuras(x):
    """1-based positions of entries that recur later (the caesuras), in one
    pass from the right: an entry is a caesura when its value was met."""
    met = set()
    out = []
    for j in range(len(x), 0, -1):
        v = x[j - 1]
        if v in met:
            out.append(j)
        else:
            met.add(v)
    out.reverse()
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
    occurrences get the opposite of their preceding caesura, singletons 0.

    One pass from the right.  With C caesuras the rightmost has sign
    (-1)^(C - 1); the first caesura of a value met from the right is the
    one that precedes its final occurrence, which was met before it."""
    signs = [0] * len(x)
    sign = 1 if (len(x) - len(set(x))) % 2 else -1
    final = {}
    for j in range(len(x) - 1, -1, -1):
        v = x[j]
        if v not in final:
            final[v] = j
            continue
        signs[j] = sign
        if not signs[final[v]]:
            signs[final[v]] = -sign
        sign = -sign
    return signs


def ms_signs(x):
    """Prism-face signs: delete 1s, then 2s, ... with blockwise alternation;
    each block starts where the previous one ended.  So the k-th entry in
    value order (0-based, stable) with value v has sign (-1)^(k + v - 1):
    k alternates, and each of the v - 1 steps to the next value repeats a
    sign."""
    signs = [0] * len(x)
    for k, j in enumerate(sorted(range(len(x)), key=x.__getitem__)):
        signs[j] = 1 if (k + x[j]) % 2 else -1
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
    return perm_of_word([g[v - 1] for v in _odd_factor_values(x, len(g))])


class SurjectionComplex(ChainComplex):
    def __init__(self, flavor, n):
        if flavor not in FLAVORS:
            raise InvalidInput(f"unknown flavor {flavor!r}")
        if n < 1:
            raise InvalidInput("arity must be >= 1")
        self.flavor = flavor
        self.n = n
        self.group = SymmetricGroup(n)
        self.name = f"S^{flavor}({n})"

    def validate(self, gen):
        gen = self.entries(gen)
        for v in gen:
            if type(v) is not int or not 1 <= v <= self.n:
                raise InvalidInput(f"entry {v!r} outside 1..{self.n}")
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

    def validate_acting(self, g):
        if len(g) != self.n:
            raise InvalidInput("arity mismatch in surjection action")
        return g

    def act_terms(self, g, gen):
        image = tuple([g[v - 1] for v in gen])
        if self.flavor == "bf":
            return [(1, image)]
        if self.flavor == "aj":
            return [(aj_action_sign(g), image)]
        return [(mu_sign(g, gen), image)]

    def action_law(self, normal=None, acts=None):
        """Relabelling g o x times a sign: 1 for bf, the parity character
        for aj, and for ms the cocycle mu_sign, which depends on x only
        through its set of odd-factor values.  So the law is the group
        table, that parity is a character and the cocycle law on each of
        the 2^n sets, seen on one witness per set that a generator has
        (law_cases drops the degenerate (1,1) of n = 1)."""
        witnesses = []
        for mask in range(2 ** self.n):
            odd = tuple(v for v in range(1, self.n + 1) if mask >> (v - 1) & 1)
            # 1..n, then each odd-factor value once more (n alone goes first)
            x = self.basepoint_gen() + odd
            if odd == (self.n,):
                x = odd + self.basepoint_gen()
            witnesses.append(x)
        return law_cases(self, witnesses, normal, acts)

    def contraction_terms(self, gen):
        """h = sum_q (+-1)^q i^q s r^q, the telescoping contraction.

        r^q deletes the values 1..q and vanishes unless each occurs exactly
        once, so the sum stops at the first value q that occurs more often:
        every larger q deletes it too.  r^q is r^(q-1) without q, and for
        aj each step multiplies the sign by (-1)^j, j the 1-based position
        of q in r^(q-1)."""
        if self.n == 1:
            return []
        aj = self.flavor == "aj"
        sign = 1
        rest = gen
        out = [(1, (1,) + gen)]
        for q in range(1, self.n - 1):
            if gen.count(q) != 1:
                break
            if aj and not rest.index(q) % 2:
                sign = -sign
            rest = tuple([v for v in rest if v > q])
            out.append((sign, tuple(range(1, q + 2)) + rest))
        return out

    def basis(self, degree):
        """The nondegenerate surjections of length n + degree, lazily and in
        lexicographic order; none in negative degree."""
        return nondegenerate_words(range(1, self.n + 1), self.n + degree, self.n)

    def gbasis(self, degree):
        """The basis generators whose first occurrences come in the order
        1, 2, ..., n, in the order of basis(degree), built entry by entry:
        an entry is the least value not met yet, or a value met before
        other than its left neighbour when the entries after it can still
        hold every value not met yet."""
        n, length = self.n, self.n + degree
        if degree < 0:
            return

        def words(prefix, top):
            left = length - len(prefix)
            if not left:
                yield prefix
                return
            if n - top < left:
                prev = prefix[-1] if prefix else 0
                for v in range(1, top + 1):
                    if v != prev:
                        yield from words(prefix + (v,), top)
            if top < n:
                yield from words(prefix + (top + 1,), top + 1)

        yield from words((), 0)

    def decompose(self, gen):
        """gen = sign * (g . b): g the first-occurrence permutation and b
        gen relabelled by g^-1, both read in one pass (the rank of a value
        is its g^-1), and the sign of the family's action formula on b,
        which is 1 for bf."""
        rank = [0] * (self.n + 1)
        firsts = []
        b = []
        for v in gen:
            r = rank[v]
            if not r:
                firsts.append(v)
                r = rank[v] = len(firsts)
            b.append(r)
        g = Perm._trusted(firsts)
        if g.is_identity():
            return g, 1, gen
        b = tuple(b)
        if self.flavor == "bf":
            return g, 1, b
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


def first_occurrence_perm(x):
    """The values of x in the order of their first occurrences."""
    seen = []
    for v in x:
        if v not in seen:
            seen.append(v)
    return Perm._trusted(seen)


def is_basis_gen(x):
    """First occurrences of 1, 2, ..., n appear in that order."""
    seen = list(first_occurrence_perm(x))
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

# sign_c and sign_p are pure functions of a generator, memoized within a
# bound: an isomorphism check asks for the signs of every generator's
# Sigma_n orbit, once for each generator (the exhaustive isomorphism suite,
# n <= 4 and k <= 3, asks 334,456 times for 4,835 generators).
SIGN_MEMO = 1 << 14


@lru_cache(maxsize=SIGN_MEMO)
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
    caes = set(caesuras(x))
    final = [v for j, v in enumerate(x, start=1) if j not in caes]
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
    return Perm._trusted(word)


@lru_cache(maxsize=SIGN_MEMO)
def sign_p(x):
    """The prism orientation sign p(x) = tau(p_x)."""
    return prism_perm(x).parity()


@lru_cache(maxsize=SIGN_MEMO)
def aj_action_sign(g):
    """The aj action's sign tau(g), memoized within the same bound: a sweep
    acts by the same two group generators, (1 2) and the n-cycle, on every
    generator."""
    return g.parity()


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
