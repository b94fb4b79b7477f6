"""Triangulated spaces, face tables and cochains, built in the benchmark.

Simplices of an ordered simplicial complex are increasing vertex tuples;
simplices of a product are increasing chains of vertex pairs (the
Eilenberg-Zilber staircase triangulation).  Face j deletes vertex j.

The F_2 cohomology, the fundamental-class pairing and the coboundary here
are the benchmark's own oracles: they share no code with chainops.
"""

from itertools import combinations

# The 6-vertex real projective plane: 6 vertices, 15 edges, 10 triangles.
RP2_TRIANGLES = (
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
)


def closure(tops):
    """All nonempty faces of the given simplices."""
    out = set()
    for top in tops:
        for k in range(1, len(top) + 1):
            out.update(combinations(top, k))
    return out


def sphere_tops(n):
    """Top simplices of the boundary of the n-simplex."""
    return list(combinations(range(n + 1), n))


def product_tops(xs, ys):
    """Top simplices of X x Y: a staircase path through each pair of tops."""
    out = []
    for s in xs:
        for t in ys:
            p, q = len(s) - 1, len(t) - 1
            for ups in combinations(range(p + q), p):
                i = j = 0
                path = [(s[0], t[0])]
                for step in range(p + q):
                    if step in ups:
                        i += 1
                    else:
                        j += 1
                    path.append((s[i], t[j]))
                out.append(tuple(path))
    return out


def sid(simplex):
    return "-".join(
        f"{v[0]}.{v[1]}" if isinstance(v, tuple) else str(v) for v in simplex
    )


class Space:
    """A finite ordered simplicial complex with its chainops face table."""

    def __init__(self, tops):
        simplices = sorted(closure(tops), key=lambda s: (len(s), s))
        self.dim = max(len(s) for s in simplices) - 1
        self.by_dim = [[] for _ in range(self.dim + 1)]
        for s in simplices:
            self.by_dim[len(s) - 1].append(s)
        self.ids = {s: sid(s) for s in simplices}
        records = []
        for s in simplices:
            rec = {"id": self.ids[s], "dim": len(s) - 1}
            if len(s) > 1:
                rec["faces"] = [self.ids[s[:j] + s[j + 1:]] for j in range(len(s))]
            records.append(rec)
        self.table_data = {"dim": self.dim, "simplices": records}

    def faces(self, s):
        return [s[:j] + s[j + 1:] for j in range(len(s))]

    def coboundary(self, degree, values):
        """<d alpha, c> = (-1)^|c| sum_j (-1)^j alpha(d_j c), over Z."""
        out = {}
        d = degree + 1
        if d > self.dim:
            return out
        for s in self.by_dim[d]:
            total = 0
            for j, f in enumerate(self.faces(s)):
                total += (-1) ** j * values.get(self.ids[f], 0)
            total *= (-1) ** d
            if total:
                out[self.ids[s]] = total
        return out

    def pair_fundamental_mod2(self, values):
        """<alpha, [X]> mod 2 for a top-degree cochain: the sum of all tops."""
        return sum(values.get(self.ids[s], 0) for s in self.by_dim[self.dim]) % 2

    def is_mod2_manifold(self):
        """Every codimension-one simplex lies in exactly two tops, so the sum
        of the tops is a mod-2 cycle."""
        count = {}
        for s in self.by_dim[self.dim]:
            for f in self.faces(s):
                count[f] = count.get(f, 0) + 1
        return all(count.get(f, 0) == 2 for f in self.by_dim[self.dim - 1])

    def h1_generator_mod2(self):
        """A 1-cocycle mod 2 that is not a coboundary (F_2 linear algebra)."""
        edges = self.by_dim[1]
        index = {e: i for i, e in enumerate(edges)}
        images = []
        for v in self.by_dim[0]:
            mask = 0
            for e in edges:
                if v[0] in e:
                    mask |= 1 << index[e]
            images.append(mask)
        rows = []
        for t in self.by_dim[2]:
            mask = 0
            for f in self.faces(t):
                mask |= 1 << index[f]
            rows.append(mask)
        for z in kernel_mod2(rows, len(edges)):
            if not in_span_mod2(images, z):
                return {self.ids[e]: 1 for e in edges if z >> index[e] & 1}
        raise ValueError("H^1(X; F_2) is zero")


def kernel_mod2(rows, width):
    """A basis of {z : popcount(row & z) even for every row}."""
    pivots = {}
    for row in rows:
        for col, prow in pivots.items():
            if row >> col & 1:
                row ^= prow
        if row:
            col = row.bit_length() - 1
            for c, prow in list(pivots.items()):
                if prow >> col & 1:
                    pivots[c] = prow ^ row
            pivots[col] = row
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        z = 1 << free
        for col, prow in pivots.items():
            if prow >> free & 1:
                z |= 1 << col
        basis.append(z)
    return basis


def in_span_mod2(vectors, target):
    pivots = {}
    for v in vectors:
        for col in sorted(pivots, reverse=True):
            if v >> col & 1:
                v ^= pivots[col]
        if v:
            pivots[v.bit_length() - 1] = v
    for col in sorted(pivots, reverse=True):
        if target >> col & 1:
            target ^= pivots[col]
    return target == 0


def pull_back_1cochain(product, base_values, factor):
    """pi_factor^* of a 1-cochain on a factor, as a cochain on the product."""
    out = {}
    for s in product.by_dim[1]:
        a, b = s[0][factor], s[1][factor]
        if a != b:
            value = base_values.get(sid((a, b)), 0)
            if value:
                out[product.ids[s]] = value
    return out


def lift_mod2(rng, space, degree, mod2_values):
    """A fresh integer cochain congruent to a mod-2 one, nonzero everywhere
    (odd where the mod-2 cochain is 1, +-2 elsewhere), so that the zeros the
    library meets do not depend on the draw."""
    out = {}
    for s in space.by_dim[degree]:
        i = space.ids[s]
        if mod2_values.get(i, 0) % 2:
            out[i] = rng.choice((-3, -1, 1, 3))
        else:
            out[i] = rng.choice((-2, 2))
    return out


def distinct_powers_cochain(rng, space, degree):
    """A random integer cochain with values +-2^e, the exponents e distinct,
    so that no signed sum of its values (a coboundary value) is zero."""
    simplices = space.by_dim[degree]
    exponents = list(range(len(simplices)))
    rng.shuffle(exponents)
    return {space.ids[s]: rng.choice((-1, 1)) << e for s, e in zip(simplices, exponents)}
