"""Multi-pass streaming (1+eps)-approximate maximum matching.

The engine explores alternating trees with contracted blossoms from every
free vertex in parallel, reading the input only as whole passes over an
edge stream, and banks vertex-disjoint augmenting paths.  Independent
oracles (subset DP, randomized matrix rank, path enumeration) and an
invariant checker verify runs at desk scale.

Import from the modules: ``driver.run`` over a ``stream.EdgeStream``
computes a matching, and ``cli`` is the ``streammatch`` command.
"""
