"""Builders shared by the test modules."""

from streammatch.matching import Matching


def matched(n, pairs):
    """The matching on vertices 0..n-1 made of the given disjoint pairs."""
    matching = Matching(n)
    mate = matching.mate
    for u, v in pairs:
        assert u != v and mate[u] is None and mate[v] is None
        mate[u] = v
        mate[v] = u
    return matching
