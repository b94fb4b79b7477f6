"""Permutations in one-line notation, parity, Koszul and block utilities.

A permutation of {1..n} is the tuple of its values (g(1), ..., g(n)):
`Perm` subclasses `tuple`, so it compares, orders and hashes as that
tuple, and a `Perm` equals (and hashes like) the plain tuple of its
images.  Elements still never mix the two: `Element` equality compares
the complex first, so an N(ESigma_n) generator and an S(n) generator on
equal tuples stay apart.  Composition follows the functional convention:
(f * g)(i) = f(g(i)), i.e. g acts first.

Two signs are kept apart.  `Perm.parity` is the sign character of a
permutation, (-1)^(n - #cycles), found by one walk over its cycles.
`perm_of_word` is the sign of sorting a word stably, which counts
inversions; it is the sign of words with repeated values (Koszul signs,
caesura and path shuffles), where equal values never swap.
"""

from bisect import bisect_right, insort
from itertools import permutations as _permutations

from .errors import InvalidInput


class Perm(tuple):
    __slots__ = ()

    def __init__(self, images):
        n = len(self)
        if any(type(v) is not int for v in self) or sorted(self) != list(range(1, n + 1)):
            raise InvalidInput(f"{tuple(self)} is not a permutation of 1..{n}")

    @classmethod
    def _trusted(cls, images):
        """The permutation with this tuple of images, unchecked: for
        permutations the library composes, never for input."""
        return tuple.__new__(cls, images)

    @classmethod
    def identity(cls, n):
        return cls._trusted(range(1, n + 1))

    def __call__(self, i):
        return self[i - 1]

    def __mul__(self, other):
        if len(self) != len(other):
            raise InvalidInput("composing permutations of different sizes")
        return tuple.__new__(Perm, [self[j - 1] for j in other])

    def inverse(self):
        inv = [0] * len(self)
        for i, v in enumerate(self, start=1):
            inv[v - 1] = i
        return Perm._trusted(inv)

    def parity(self):
        """The parity character tau: (-1)^(n - #cycles), since a cycle of
        length l is a product of l - 1 transpositions."""
        seen = set()
        odd = False
        for i in self:
            if i not in seen:
                seen.add(i)
                j = self[i - 1]
                while j != i:
                    seen.add(j)
                    odd = not odd
                    j = self[j - 1]
        return -1 if odd else 1

    def is_identity(self):
        """Whether g(i) = i for every i, read off in one pass that stops at
        the first moved point (true on the empty permutation)."""
        i = 0
        for v in self:
            i += 1
            if v != i:
                return False
        return True

    def __repr__(self):
        return "(" + " ".join(str(v) for v in self) + ")"


def all_perms(n):
    for images in _permutations(range(1, n + 1)):
        yield Perm._trusted(images)


def parity(g):
    return g.parity()


def perm_of_word(word):
    """Parity sign of sorting `word` stably (a shuffle of comparable values).

    Counts pairs i < j with word[i] > word[j]; equal values never swap,
    matching the stable shuffles used for caesura and path signs.  On a
    permutation it agrees with Perm.parity, which is the faster of the two.
    """
    seen = []
    inv = 0
    for a in word:
        # the values before a that are greater than a, each one inversion
        inv += len(seen) - bisect_right(seen, a)
        insort(seen, a)
    return -1 if inv % 2 else 1


def koszul_sign(g, degrees):
    """Sign picked up by the left action of g on a tensor of graded factors.

    Factor i sits in degree degrees[i-1] and is sent to slot g(i); the
    sign counts swapped odd-degree pairs.
    """
    if len(g) != len(degrees):
        raise InvalidInput("degree list does not match permutation size")
    return perm_of_word([v for v, d in zip(g, degrees) if d % 2])


def permute_by(g, values):
    """Left action of g on a list of positioned values: slot g(i) gets values[i-1]."""
    out = [None] * len(values)
    for i, v in enumerate(values, start=1):
        out[g(i) - 1] = v
    return out


def koszul_permute(g, factors, degrees):
    """Left action of g on a tensor of graded factors: the Koszul sign and
    the permuted factors, factor i moved to slot g(i)."""
    return koszul_sign(g, degrees), tuple(permute_by(g, factors))


def block_perm(u, sizes):
    """The block permutation u_*(s_1, ..., s_r) in Sigma_(sum sizes).

    Consecutive blocks B_i of length sizes[i-1] are rearranged in the
    order B_u(1), ..., B_u(r).
    """
    if len(u) != len(sizes):
        raise InvalidInput("sizes do not match the permutation arity")
    if any(s <= 0 for s in sizes):
        raise InvalidInput("block sizes must be positive")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    out = []
    for b in u:
        out.extend(range(starts[b - 1] + 1, starts[b] + 1))
    return Perm._trusted(out)
