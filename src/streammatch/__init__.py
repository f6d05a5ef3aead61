"""Multi-pass streaming (1+eps)-approximate maximum matching.

The engine explores alternating trees with contracted blossoms from every
free vertex in parallel, reading the input only as whole passes over an
edge stream, and banks vertex-disjoint augmenting paths.  An independent
oracle (Edmonds' search whose Tutte–Berge witness is checked) and an
invariant checker verify runs.

Import from the modules: ``driver.run`` over a ``stream.EdgeStream``
computes a matching, and ``cli`` is the ``streammatch`` command.
"""
