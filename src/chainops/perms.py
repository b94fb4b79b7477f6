"""Permutations in one-line notation, parity, Koszul and block utilities.

A permutation of {1..n} is stored as its sequence of values
(g(1), ..., g(n)).  Composition follows the functional convention:
(f * g)(i) = f(g(i)), i.e. g acts first.
"""

from itertools import permutations as _permutations

from .errors import InvalidInput


class Perm:
    __slots__ = ("images", "_parity")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InvalidInput(f"{images} is not a permutation of 1..{n}")
        self.images = images
        self._parity = None

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def __mul__(self, other):
        if self.n != other.n:
            raise InvalidInput("composing permutations of different sizes")
        return Perm(self.images[j - 1] for j in other.images)

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Perm(inv)

    def parity(self):
        """The parity character tau: (-1)^inversions."""
        if self._parity is None:
            inv = 0
            img = self.images
            for i in range(len(img)):
                for j in range(i + 1, len(img)):
                    if img[i] > img[j]:
                        inv += 1
            self._parity = -1 if inv % 2 else 1
        return self._parity

    def is_identity(self):
        return all(v == i for i, v in enumerate(self.images, start=1))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return "(" + " ".join(str(v) for v in self.images) + ")"


def all_perms(n):
    for images in _permutations(range(1, n + 1)):
        yield Perm(images)


def parity(g):
    return g.parity()


def perm_of_word(word):
    """Parity sign of sorting `word` stably (a shuffle of comparable values).

    Counts pairs i < j with word[i] > word[j]; equal values never swap,
    matching the stable shuffles used for caesura and path signs.
    """
    inv = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                inv += 1
    return -1 if inv % 2 else 1


def koszul_sign(g, degrees):
    """Sign picked up by the left action of g on a tensor of graded factors.

    Factor i sits in degree degrees[i-1] and is sent to slot g(i); the
    sign counts swapped odd-degree pairs.
    """
    if g.n != len(degrees):
        raise InvalidInput("degree list does not match permutation size")
    odd = [g(i) for i in range(1, g.n + 1) if degrees[i - 1] % 2]
    inv = 0
    for i in range(len(odd)):
        for j in range(i + 1, len(odd)):
            if odd[i] > odd[j]:
                inv += 1
    return -1 if inv % 2 else 1


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
    if u.n != len(sizes):
        raise InvalidInput("sizes do not match the permutation arity")
    if any(s <= 0 for s in sizes):
        raise InvalidInput("block sizes must be positive")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    out = []
    for i in range(1, u.n + 1):
        b = u(i)
        out.extend(range(starts[b - 1] + 1, starts[b] + 1))
    return Perm(out)
