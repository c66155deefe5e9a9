"""Bigraded chain complexes over F2[U, V] and their hat homology.

A complex is a finite list of generators with gradings (gr_w, gr_z) and a
differential whose entries are monomials U^a V^b over F2.  U drops gr_w
by 2, V drops gr_z by 2, and the differential itself drops both gradings
by 1, so an entry U^a V^b from generator g to generator h requires

    gr_w(h) = gr_w(g) + 2a - 1,    gr_z(h) = gr_z(g) + 2b - 1.

Setting U = V = 0 leaves only the honest (a = b = 0) entries; the
homology of that specialization is the hat-flavoured rank table, graded
by (gr_w, gr_z) with derived gradings delta = (gr_w + gr_z)/2 and
alexander = (gr_w - gr_z)/2.

The standard building blocks are provided: the four-generator box with
differential  a -> U b + V c,  b -> V d,  c -> U d  (all four generators
sharing one delta), and the six-generator complex whose hat homology has
rank 6 and delta-graded Euler characteristic 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import field_rank


class InvalidComplex(ValueError):
    """The data does not satisfy d^2 = 0 or the grading constraints."""


@dataclass(frozen=True)
class UVComplex:
    names: tuple            # generator names
    gr_w: tuple
    gr_z: tuple
    # differential entries: (target_index, source_index) -> (a, b) meaning U^a V^b
    diff: dict

    def __post_init__(self):
        self.validate()

    # -- structure -----------------------------------------------------------

    def validate(self):
        n = len(self.names)
        if len(self.gr_w) != n or len(self.gr_z) != n:
            raise InvalidComplex("grading arrays must match the generator count")
        if len(set(self.names)) != n:
            raise InvalidComplex("duplicate generator names")
        for (t, s), (a, b) in self.diff.items():
            if not (0 <= t < n and 0 <= s < n):
                raise InvalidComplex("entry indices out of range")
            if a < 0 or b < 0:
                raise InvalidComplex("negative exponent in differential entry")
            if self.gr_w[t] != self.gr_w[s] + 2 * a - 1:
                raise InvalidComplex(
                    f"entry {self.names[t]} <- {self.names[s]}: U^{a}V^{b} "
                    f"violates the gr_w bidegree rule")
            if self.gr_z[t] != self.gr_z[s] + 2 * b - 1:
                raise InvalidComplex(
                    f"entry {self.names[t]} <- {self.names[s]}: U^{a}V^{b} "
                    f"violates the gr_z bidegree rule")
        # d^2 = 0 over F2[U, V]: monomials compose by adding exponents
        square: dict = {}
        by_source: dict = {}
        for (t, s), e in self.diff.items():
            by_source.setdefault(s, []).append((t, e))
        for (m, s), (a1, b1) in self.diff.items():
            for t, (a2, b2) in by_source.get(m, []):
                key = (t, s, a1 + a2, b1 + b2)
                square[key] = square.get(key, 0) ^ 1
        bad = [k for k, v in square.items() if v]
        if bad:
            t, s, a, b = bad[0]
            raise InvalidComplex(
                f"d^2 != 0: U^{a}V^{b} term from {self.names[s]} to {self.names[t]}")

    @property
    def size(self) -> int:
        return len(self.names)

    def delta(self, i: int):
        tot = self.gr_w[i] + self.gr_z[i]
        if tot % 2:
            raise InvalidComplex(f"generator {self.names[i]} has half-integer delta")
        return tot // 2

    def alexander(self, i: int):
        return (self.gr_w[i] - self.gr_z[i]) // 2


# ---------------------------------------------------------------------------
# standard complexes


def unit_box(shift: tuple[int, int] = (0, 0), tag: str = "") -> UVComplex:
    """The four-generator box: da = Ub + Vc, db = Vd, dc = Ud, dd = 0.

    All four generators share one delta-grading; the hat homology keeps
    all four (every entry carries a U or V)."""
    w, z = shift
    names = tuple(f"{n}{tag}" for n in ("a", "b", "c", "d"))
    gr_w = (w + 0, w + 1, w - 1, w + 0)
    gr_z = (z + 0, z - 1, z + 1, z + 0)
    diff = {
        (1, 0): (1, 0),   # a -> U b
        (2, 0): (0, 1),   # a -> V c
        (3, 1): (0, 1),   # b -> V d
        (3, 2): (1, 0),   # c -> U d
    }
    return UVComplex(names, gr_w, gr_z, diff)


def complex_a(tag: str = "") -> UVComplex:
    """The six-generator complex with hat rank 6 and delta-Euler 0:
    da = U b1 + V b2, db1 = UV c1 + V^2 c2, db2 = U^2 c1 + UV c2,
    dc1 = V d, dc2 = U d."""
    names = tuple(f"{n}{tag}" for n in ("a", "b1", "b2", "c1", "c2", "d"))
    gr_w = (0, 1, -1, 2, 0, 1)
    gr_z = (0, -1, 1, 0, 2, 1)
    diff = {
        (1, 0): (1, 0),
        (2, 0): (0, 1),
        (3, 1): (1, 1),
        (4, 1): (0, 2),
        (3, 2): (2, 0),
        (4, 2): (1, 1),
        (5, 3): (0, 1),
        (5, 4): (1, 0),
    }
    return UVComplex(names, gr_w, gr_z, diff)


def base_summand() -> UVComplex:
    """A single free generator (the rank-one summand of a knot complex)."""
    return UVComplex(("u0",), (0,), (0,), {})


def direct_sum(*complexes: UVComplex) -> UVComplex:
    names: list = []
    gr_w: list = []
    gr_z: list = []
    diff: dict = {}
    for k, c in enumerate(complexes):
        off = len(names)
        suffix = f".{k}" if any(n in names for n in c.names) else ""
        names.extend(f"{n}{suffix}" for n in c.names)
        gr_w.extend(c.gr_w)
        gr_z.extend(c.gr_z)
        for (t, s), e in c.diff.items():
            diff[(t + off, s + off)] = e
    return UVComplex(tuple(names), tuple(gr_w), tuple(gr_z), diff)


# ---------------------------------------------------------------------------
# hat homology


@dataclass(frozen=True)
class HatRankTable:
    ranks: dict             # (gr_w, gr_z) -> rank

    @property
    def total(self) -> int:
        return sum(self.ranks.values())

    def by_delta(self) -> dict:
        out: dict = {}
        for (w, z), r in self.ranks.items():
            out[(w + z) // 2] = out.get((w + z) // 2, 0) + r
        return out

    def by_alexander(self) -> dict:
        out: dict = {}
        for (w, z), r in self.ranks.items():
            out[(w - z) // 2] = out.get((w - z) // 2, 0) + r
        return out


def hat_ranks(c: UVComplex) -> HatRankTable:
    """Homology of the complex at U = V = 0, graded by (gr_w, gr_z)."""
    by_grading: dict = {}
    for i in range(c.size):
        by_grading.setdefault((c.gr_w[i], c.gr_z[i]), []).append(i)
    # surviving entries: exponent (0, 0); they drop both gradings by 1
    entries: dict = {}
    for (t, s), (a, b) in c.diff.items():
        if a == 0 and b == 0:
            entries.setdefault((c.gr_w[s], c.gr_z[s]), []).append((t, s))
    rank_from: dict = {}
    for grading, pairs in entries.items():
        rows = sorted({t for t, _ in pairs})
        cols = sorted({s for _, s in pairs})
        ri = {t: i for i, t in enumerate(rows)}
        cj = {s: j for j, s in enumerate(cols)}
        mat = [[0] * len(cols) for _ in rows]
        for t, s in pairs:
            mat[ri[t]][cj[s]] ^= 1
        rank_from[grading] = field_rank(mat, 2)
    table: dict = {}
    for grading, gens in by_grading.items():
        w, z = grading
        dim = len(gens)
        dim -= rank_from.get(grading, 0)
        dim -= rank_from.get((w + 1, z + 1), 0)
        if dim:
            table[grading] = dim
    return HatRankTable(table)


def delta_euler_hat(t: HatRankTable) -> int:
    """Sum of (-1)^delta * rank over the table."""
    total = 0
    for (w, z), r in t.ranks.items():
        if (w + z) % 2:
            raise InvalidComplex("half-integer delta in rank table")
        total += r if ((w + z) // 2) % 2 == 0 else -r
    return total


# ---------------------------------------------------------------------------
# the determinant / box-count arithmetic


@dataclass(frozen=True)
class BoxCheck:
    det_matches: bool       # det = 4*boxes +- 1 (mod 8)
    parity_matches: bool    # arf 0 forces an even box count
    rank: int               # 1 + 4*boxes

    @property
    def consistent(self) -> bool:
        return self.det_matches and self.parity_matches


def box_arithmetic_check(det: int, arf: int, box_deltas) -> BoxCheck:
    """Check the rank arithmetic for a complex of one free generator plus
    four-generator boxes: the determinant must be 4*l +- 1 mod 8 for l
    boxes, and Arf 0 (slice) forces l even, hence rank 1 mod 8."""
    if det % 2 == 0:
        raise ValueError("knot determinant must be odd")
    boxes = list(box_deltas)
    l = len(boxes)
    det_matches = det % 8 in ((4 * l + 1) % 8, (4 * l - 1) % 8)
    parity_matches = (arf % 2 == 1) or (l % 2 == 0)
    return BoxCheck(det_matches, parity_matches, 1 + 4 * l)


# ---------------------------------------------------------------------------
# text format

_GEN_RE = re.compile(r"^gen\s+(\S+)\s+(-?\d+)\s+(-?\d+)$")
_ENTRY_RE = re.compile(r"^(\S+)\s*<-\s*(\S+)\s*:\s*(.+)$")
_MONO_RE = re.compile(r"^(?:U(?:\^(\d+))?)?(?:V(?:\^(\d+))?)?$")


def parse_complex(text: str) -> UVComplex:
    """Parse the fixture format:

        gen NAME GR_W GR_Z        one line per generator
        TARGET <- SOURCE : U^a V^b   one line per differential entry

    The monomial is ``1`` for a plain entry; ``U``/``V`` mean exponent 1.
    Lines starting with '#' are ignored.
    """
    names: list = []
    gr_w: list = []
    gr_z: list = []
    index: dict = {}
    diff: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _GEN_RE.match(line)
        if m:
            name, w, z = m.group(1), int(m.group(2)), int(m.group(3))
            if name in index:
                raise InvalidComplex(f"line {lineno}: duplicate generator {name}")
            index[name] = len(names)
            names.append(name)
            gr_w.append(w)
            gr_z.append(z)
            continue
        m = _ENTRY_RE.match(line)
        if m:
            tname, sname, mono = m.group(1), m.group(2), m.group(3).strip()
            if tname not in index or sname not in index:
                raise InvalidComplex(f"line {lineno}: unknown generator in entry")
            compact = mono.replace(" ", "").replace("*", "")
            if compact == "1":
                a = b = 0
            else:
                mm = _MONO_RE.match(compact)
                if not mm or not compact:
                    raise InvalidComplex(f"line {lineno}: bad monomial {mono!r}")
                a = int(mm.group(1)) if mm.group(1) else (1 if "U" in compact else 0)
                b = int(mm.group(2)) if mm.group(2) else (1 if "V" in compact else 0)
            key = (index[tname], index[sname])
            if key in diff:
                raise InvalidComplex(f"line {lineno}: duplicate entry {tname} <- {sname}")
            diff[key] = (a, b)
            continue
        raise InvalidComplex(f"line {lineno}: unrecognized syntax {line!r}")
    return UVComplex(tuple(names), tuple(gr_w), tuple(gr_z), diff)


def serialize_complex(c: UVComplex) -> str:
    lines = [f"gen {c.names[i]} {c.gr_w[i]} {c.gr_z[i]}" for i in range(c.size)]
    for (t, s) in sorted(c.diff):
        a, b = c.diff[(t, s)]
        if a == 0 and b == 0:
            mono = "1"
        else:
            mono = ("" if not a else ("U" if a == 1 else f"U^{a}")) + \
                   ("" if not b else ("V" if b == 1 else f"V^{b}"))
        lines.append(f"{c.names[t]} <- {c.names[s]} : {mono}")
    return "\n".join(lines) + "\n"
