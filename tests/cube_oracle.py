"""Brute-force cube-of-resolutions oracle for the test suite.

Builds the full Khovanov cube (2^n resolutions, one tensor factor per
circle) with standard cube signs and computes homology ranks by dense
Gaussian elimination, and the A[X] deformation module by a general Smith
normal form over F[X].  Exponential; for cross-checking the scanning
engine on small diagrams only.  Kept deliberately independent of the
engine: no shared code beyond the Diagram type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from knotrank.diagram import Diagram


def _circles(d: Diagram, state: int):
    """Circles of a resolved diagram as frozensets of edge labels."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for ci, (a, b, c, dd) in enumerate(d.crossings):
        if state >> ci & 1:
            union(a, dd), union(b, c)
        else:
            union(a, b), union(c, dd)
    groups: dict = {}
    for comp in d.components:
        for e in comp:
            groups.setdefault(find(e), []).append(e)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]


class CubeComplex:
    """Khovanov cube over F_p (p > 0) or Q (p == 0); t != 0 gives the
    deformed Frobenius algebra x^2 = t used for the A[X] module oracle."""

    def __init__(self, d: Diagram, p: int, deformed: bool = False,
                 reduced_edge: int | None = None):
        self.d = d
        self.p = p
        self.deformed = deformed
        self.reduced_edge = reduced_edge
        self.n = len(d.crossings)
        self.n_minus = sum(1 for s in d.signs if s == -1)
        self.n_plus = self.n - self.n_minus
        self.circles = {s: _circles(d, s) for s in range(1 << self.n)}
        self.basis = []   # (state, labels) ; labels bit 1 = x
        self.index = {}
        for s in range(1 << self.n):
            circ = self.circles[s]
            for lab in range(1 << len(circ)):
                if reduced_edge is not None and not deformed:
                    k = self._circle_of(s, reduced_edge)
                    if not lab >> k & 1:
                        continue   # basepoint circle must carry x
                if reduced_edge is not None and deformed:
                    k = self._circle_of(s, reduced_edge)
                    if lab >> k & 1:
                        continue   # A[X]-basis: basepoint circle labelled 1
                self.index[(s, lab)] = len(self.basis)
                self.basis.append((s, lab))

    def _circle_of(self, state, edge):
        for k, c in enumerate(self.circles[state]):
            if edge in c:
                return k
        raise AssertionError

    def grading(self, state, lab):
        circ = self.circles[state]
        h = bin(state).count("1") - self.n_minus
        q = bin(state).count("1") + self.n_plus - 2 * self.n_minus
        for k in range(len(circ)):
            q += -1 if lab >> k & 1 else 1
        return h, q

    def differential(self):
        """Returns {(row, col): (coeff, tpow)}; tpow > 0 only when deformed."""
        out: dict = {}

        def add(i, j, c, tpow=0):
            key = (i, j)
            cur = out.get(key, (0, tpow))
            assert cur[1] == tpow or cur[0] == 0
            v = cur[0] + c
            v = v % self.p if self.p else v
            if v:
                out[key] = (v, tpow)
            else:
                out.pop(key, None)

        for (s, lab) in self.basis:
            col = self.index[(s, lab)]
            circ = self.circles[s]
            for ci in range(self.n):
                if s >> ci & 1:
                    continue
                s2 = s | (1 << ci)
                sign = -1 if bin(s & ((1 << ci) - 1)).count("1") % 2 else 1
                circ2 = self.circles[s2]
                # transport labels: merge or split
                idx2 = {c: k for k, c in enumerate(circ2)}
                merged = [c2 for c2 in circ2 if sum(1 for c in circ if c <= c2) == 2]
                split = [c for c in circ if sum(1 for c2 in circ2 if c2 <= c) == 2]
                if merged:
                    tgt = idx2[merged[0]]
                    xs = 0
                    lab2 = 0
                    for k, c in enumerate(circ):
                        bit = lab >> k & 1
                        if c <= merged[0]:
                            xs += bit
                        else:
                            lab2 |= bit << idx2[next(c2 for c2 in circ2 if c <= c2)]
                    if xs == 0:
                        self._emit(add, col, s2, lab2, sign)
                    elif xs == 1:
                        self._emit(add, col, s2, lab2 | (1 << tgt), sign)
                    else:
                        if self.deformed:
                            self._emit(add, col, s2, lab2, sign, tpow=1)
                elif split:
                    src = split[0]
                    parts = [k for k, c2 in enumerate(circ2) if c2 <= src]
                    k1, k2 = parts
                    lab2 = 0
                    for k, c in enumerate(circ):
                        if c == src:
                            continue
                        bit = lab >> k & 1
                        lab2 |= bit << idx2[next(c2 for c2 in circ2 if c <= c2)]
                    bit = lab >> circ.index(src) & 1
                    if bit == 0:
                        self._emit(add, col, s2, lab2 | (1 << k1), sign)
                        self._emit(add, col, s2, lab2 | (1 << k2), sign)
                    else:
                        self._emit(add, col, s2, lab2 | (1 << k1) | (1 << k2), sign)
                        if self.deformed:
                            self._emit(add, col, s2, lab2, sign, tpow=1)
                else:
                    raise AssertionError("resolution change neither merges nor splits")
        return out

    def _emit(self, add, col, s2, lab2, coeff, tpow=0):
        """Record a target term, rewriting through the basepoint rules."""
        if self.reduced_edge is not None:
            k = self._circle_of(s2, self.reduced_edge)
            bit = lab2 >> k & 1
            if not self.deformed:
                if not bit:
                    return      # falls outside the x-labelled subcomplex
            else:
                if bit:
                    # x at the basepoint is X times the label-1 generator
                    add(self.index[(s2, lab2 & ~(1 << k))], col, coeff, tpow="X")
                    return
        add(self.index[(s2, lab2)], col, coeff, tpow)


def kh_table(d: Diagram, p: int, reduced: bool):
    """Bigraded ranks by plain rank-nullity over the field."""
    cube = CubeComplex(d, p, reduced_edge=d.components[0][0] if reduced else None)
    diff = cube.differential()
    by_grading: dict = {}
    for i, (s, lab) in enumerate(cube.basis):
        by_grading.setdefault(cube.grading(s, lab), []).append(i)
    entries: dict = {}
    for (row, col), (c, tpow) in diff.items():
        assert tpow == 0
        entries.setdefault(col, {})[row] = c
    ranks: dict = {}
    for (h, q), cols in by_grading.items():
        rows = by_grading.get((h + 1, q), [])
        if not rows:
            ranks[(h, q)] = 0
            continue
        ri = {r: i for i, r in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, cidx in enumerate(cols):
            for r, c in entries.get(cidx, {}).items():
                if r in ri:
                    mat[ri[r]][j] = c
        ranks[(h, q)] = _rank(mat, p)
    table = {}
    for (h, q), cols in by_grading.items():
        dim = len(cols) - ranks.get((h, q), 0) - ranks.get((h - 1, q), 0)
        if dim:
            table[(h, q)] = dim
    return table


def _rank(mat, p):
    if not mat or not mat[0]:
        return 0
    m = [[Fraction(x) if not p else x % p for x in row] for row in mat]
    rank = 0
    rowpos = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rowpos, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rowpos], m[piv] = m[piv], m[rowpos]
        inv = pow(m[rowpos][col], -1, p) if p else Fraction(1) / m[rowpos][col]
        for r in range(rowpos + 1, len(m)):
            if m[r][col]:
                f = m[r][col] * inv
                for cc in range(col, len(m[0])):
                    v = m[r][cc] - f * m[rowpos][cc]
                    m[r][cc] = v % p if p else v
        rowpos += 1
        rank += 1
        if rowpos == len(m):
            break
    return rank


def deformed_factors(d: Diagram, p: int):
    """(free_rank, sorted torsion X-powers) of the A[X]-module, via the
    general Smith normal form routine on the one-variable presentation."""
    cube = CubeComplex(d, p, deformed=True, reduced_edge=d.components[0][0])
    diff = cube.differential()
    by_h: dict = {}
    for i, (s, lab) in enumerate(cube.basis):
        h, _ = cube.grading(s, lab)
        by_h.setdefault(h, []).append(i)
    free = 0
    torsion = []
    ranks = {}
    for h in sorted(by_h):
        cols = by_h[h]
        rows = by_h.get(h + 1, [])
        ri = {r: i for i, r in enumerate(rows)}
        cj = {c: j for j, c in enumerate(cols)}
        mat = [[() for _ in cols] for _ in rows]
        for (row, col), (c, tpow) in diff.items():
            if col in cj and row in ri:
                if tpow == "X":
                    poly = (0, c)
                elif tpow == 0:
                    poly = (c,)
                else:
                    poly = tuple([0] * (2 * tpow) + [c])
                mat[ri[row]][cj[col]] = poly
        if rows and cols:
            inv = smith_over_poly_ring(mat, p)
            ranks[h] = len(rows) - inv.free_rank
            torsion.extend(len(f) - 1 for f in inv.torsion_factors)
        else:
            ranks[h] = 0
    for h in sorted(by_h):
        free += len(by_h[h]) - ranks.get(h, 0) - ranks.get(h - 1, 0)
    return free, sorted(torsion)


# ---------------------------------------------------------------------------
# dense univariate polynomials over a coefficient field (for Smith form)


def _poly_trim(p: list) -> tuple:
    i = len(p)
    while i > 0 and not p[i - 1]:
        i -= 1
    return tuple(p[:i])


class PolyRing:
    """Dense polynomials over F_p (p > 0) or Q (p == 0), as coefficient
    tuples."""

    def __init__(self, p: int):
        self.p = p

    def norm(self, c):
        return c % self.p if self.p else (c if isinstance(c, Fraction) else Fraction(c))

    def poly(self, coeffs: Iterable) -> tuple:
        return _poly_trim([self.norm(c) for c in coeffs])

    def const(self, c) -> tuple:
        return self.poly([c])

    def x_power(self, k: int, c=1) -> tuple:
        return self.poly([0] * k + [c])

    def deg(self, a: tuple) -> int:
        return len(a) - 1  # -1 for the zero polynomial

    def add(self, a: tuple, b: tuple) -> tuple:
        n = max(len(a), len(b))
        out = [0] * n
        for i, c in enumerate(a):
            out[i] = c
        for i, c in enumerate(b):
            out[i] = self.norm(out[i] + c)
        return _poly_trim(out)

    def neg(self, a: tuple) -> tuple:
        return tuple(self.norm(-c) for c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] = self.norm(out[i + j] + c * d)
        return _poly_trim(out)

    def inv_scalar(self, c):
        if self.p:
            return pow(c, -1, self.p)
        return Fraction(1) / c

    def divmod(self, a: tuple, b: tuple) -> tuple[tuple, tuple]:
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = list(a)
        q = [0] * max(0, len(a) - len(b) + 1)
        inv_lead = self.inv_scalar(b[-1])
        while len(_poly_trim(a)) >= len(b):
            a = list(_poly_trim(a))
            shift = len(a) - len(b)
            factor = self.norm(a[-1] * inv_lead)
            q[shift] = factor
            for i, c in enumerate(b):
                a[shift + i] = self.norm(a[shift + i] - factor * c)
        return _poly_trim(q), _poly_trim(a)

    def monic(self, a: tuple) -> tuple:
        if not a:
            return a
        inv = self.inv_scalar(a[-1])
        return tuple(self.norm(c * inv) for c in a)

    def is_unit(self, a: tuple) -> bool:
        return len(a) == 1


@dataclass(frozen=True)
class InvariantFactors:
    """Cokernel invariants of a matrix over F[X]: free rank plus a
    divisibility chain of monic nonconstant torsion factors."""

    free_rank: int
    torsion_factors: tuple  # tuple of coefficient tuples, each monic, deg >= 1

    def torsion_degrees(self) -> tuple:
        return tuple(len(f) - 1 for f in self.torsion_factors)


def smith_over_poly_ring(matrix, p: int) -> InvariantFactors:
    """Invariant factors of coker(F[X]^cols -> F[X]^rows) for the given
    matrix, F = F_p (p > 0) or Q (p == 0).

    ``matrix`` is a list of rows; each entry is a coefficient sequence
    (low degree first) over the field.  Standard Smith reduction: pivot on
    the minimal-degree entry, clear its row and column with Euclidean
    division, and restart whenever a remainder drops the degree.
    """
    R = PolyRing(p)
    m = [[R.poly(e) for e in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    factors = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j]:
                    d = R.deg(m[i][j])
                    if best is None or d < best:
                        best, pivot = d, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        # clear column and row; a nonzero remainder becomes the new pivot
        while True:
            dirty = False
            for i in range(top + 1, nrows):
                if m[i][top]:
                    q, r = R.divmod(m[i][top], m[top][top])
                    for j in range(top, ncols):
                        m[i][j] = R.sub(m[i][j], R.mul(q, m[top][j]))
                    if r:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
            for j in range(top + 1, ncols):
                if m[top][j]:
                    q, r = R.divmod(m[top][j], m[top][top])
                    for i in range(top, nrows):
                        m[i][j] = R.sub(m[i][j], R.mul(q, m[i][top]))
                    if r:
                        for i in range(top, nrows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        dirty = True
            if not dirty:
                break
        # pivot must divide every remaining entry for the divisibility chain
        offender = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if m[i][j]:
                    _, r = R.divmod(m[i][j], m[top][top])
                    if r:
                        offender = i
                        break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, ncols):
                m[top][j] = R.add(m[top][j], m[offender][j])
            continue
        factors.append(R.monic(m[top][top]))
        top += 1
    torsion = tuple(f for f in factors if not R.is_unit(f))
    return InvariantFactors(free_rank=nrows - len(factors), torsion_factors=torsion)
