"""Disjoint sets, shared by the diagram, Alexander and cobordism code."""


class UnionFind(dict):
    """Disjoint sets of ordered labels, stored as a parent map.

    Each set is represented by its smallest member; a label that was
    never joined is a set of its own.
    """

    def find(self, x):
        while (up := self.get(x, x)) != x:
            self[x] = x = self.get(up, up)   # path halving
        return x

    def union(self, x, y) -> bool:
        """Join the sets of x and y; False if they were one set already."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self[max(rx, ry)] = min(rx, ry)
        return True
