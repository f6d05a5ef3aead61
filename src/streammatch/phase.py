"""One phase of the search: the pass-bundle loop over the edge stream.

A phase rebuilds everything from the current matching: labels at their
maximum, one singleton structure per free vertex.  Each pass bundle then
performs one step of a parallel depth-first search:

1. marking     - structures at or above the size threshold go on hold,
                 and every structure's modified flag is cleared;
2. extension   - one pass over the stream; each not-on-hold structure
                 performs at most one augment or overtake, driven by arcs
                 whose tail resolves to its working node;
3. cleanup     - two more passes: the arcs at each working node
                 contract to a fixpoint around it, then arcs joining
                 outer nodes of two different structures trigger augment
                 recording;
4. backtrack   - structures that are neither on hold nor modified retreat
                 their working node two levels (or deactivate at the root).

At every bundle boundary no edge joins two outer nodes: the checker's
``outer-independence``, verified at each boundary of a checked run (a
phase started from a matching that is not maximal breaks it only between
free vertices, which never share a structure and are all dirty in the
first bundle).  Within a bundle a structure's tree changes only when the
structure becomes modified (it acts or is robbed) or is removed, and an
outer vertex stays outer.  So the engine meets none of these states:

* an arc from an unmodified structure's working node to another of its
  outer nodes.  The extension read has no contraction branch, though the
  paper's rule has one, so ``Forest.contract`` is reached only from the
  collection fixpoint, and the collection read skips every structure not
  modified in the bundle: its fixpoint could only retire arcs;
* an arc from an outer node that was outer at the last boundary to
  another outer node of its structure.  After a contraction the
  collection read adds only the arcs of the subs it made outer;
* an edge joining outer nodes of two structures with neither end newly
  outer since the last boundary, even where a case 2.2 steal moved one
  end.  ``Forest`` marks dirty only the vertices that become outer.

A bundle therefore consumes exactly 3 stream reads.  Each read is one full
pass (an :meth:`EdgeStream.read`), but the engine's code visits only the
arcs that can act in it; every other arc would fall through the read's
guards untouched, so the outcome is the same as visiting them all:

* extension    - the arcs not retired whose tail is in the working node of
                 a structure not on hold, in stream order.  A structure
                 acts at most once per read and only from its working
                 node, so the read skips the arcs of a modified structure,
                 and this set only shrinks during the read.  An arc whose
                 head is in an outer node augments.  The read retires an
                 arc whose ends share a root blossom, whose tail or head
                 is removed, or that is matched.  It ends once every
                 structure it picked with live arcs has acted: each later
                 arc could only be skipped or retired, and those arcs are
                 neither visited nor retired by that read (a later read
                 that meets one retires it).  A structure robbed by a case
                 2.2 steal before it acts never acts in the read, so the
                 read runs on to its end.
* collection   - per structure modified in this bundle that has a
                 working node, in ``alpha`` order, a worklist of the stream
                 positions of the arcs not retired whose tail is in the
                 working node, smallest first.  Only such an arc can
                 contract, and only if its head lies in another outer
                 node of the same structure.  The working node only grows
                 during the fixpoint, and an arc that fails that test
                 never passes it later in the fixpoint: its head is
                 outside the structure, or in the working node, or in an
                 inner node that stays inner or is absorbed into the
                 working node.  So each contraction takes the first
                 qualifying arc in stream order, as a restart from the
                 first arc would.  A contraction adds only the arcs of the
                 subs that were inner, which it makes outer.  The other
                 subs are the working node, whose untried arcs stay on the
                 worklist, and outer nodes that were already outer at the
                 last bundle boundary: every node that has become outer
                 since lies in some structure's working node when the read
                 begins.  The read retires an arc whose head is in the
                 working node or removed.
* augmentation - the edges that can bank, gathered first: each arc not
                 retired at a ``Forest.dirty`` vertex of a live structure
                 whose head is in an outer node of another live structure
                 gives its edge's even position (stored orientation); the
                 test treats both arcs of an edge alike.  The read then
                 banks them in stream order, each once (an edge with both
                 ends dirty is found twice), while both ends' structures
                 are live; the engine clears the list after the read.
                 Banking only removes structures, so an edge that fails
                 the test when the read begins fails it at its turn too.
                 A retired arc has its ends in one root blossom, has an
                 end removed, or is matched, and the test rejects all
                 three kinds.  After each augmentation read no edge joins
                 outer nodes of two live structures (the read would have
                 banked it, and banking only removes structures).

Each read takes its guards from ``Forest.root_of`` alone.  A vertex no
structure has reached resolves to None: an arc with such a tail is
skipped, and an extension arc with such a head is an overtake candidate.
A vertex removed with its structure resolves to a node whose
``structure`` is None, so every read skips an arc with a removed end.

Within a phase root blossoms only merge, removed vertices stay removed
and the matching is fixed, so a retired arc never acts again in the
phase; no arc is retired for a passing reason (a structure on hold or
modified, a tail outside the working node, a head not yet reached).
The extension and collection reads take their positions from one list
per root blossom, kept under its base (no other root blossom has that
base): the positions of the arcs whose tail is in the node, in stream
order, both the live ones and those retired since the list was last
compacted, with a count of the latter.  Retiring marks both arcs of the
edge dead and counts one dead position in the list of each end's root
blossom; an arc retired while its head is unreached counts against that
vertex, as the base of the trivial node it gets when reached.  Both
reads skip a dead position before they read its arc.  A trivial node's
list starts as its vertex's slice of the stream's tail index.  A
contraction copies its longest sub's list, splices the other subs'
positions in at their ``bisect`` points, sums their counts and drops
their lists, so each position moves only from a shorter list into a
longer one; once a list to insert holds more than 64 positions and more
than a tenth of the list merged so far, it sorts all the subs' positions
at once instead (:func:`_spliced`).  A read that finds at least half of
a list dead compacts it, so every list the reads take that is not empty
holds a live arc.
The augmentation read walks the tail index of each dirty vertex,
skipping dead positions, and keeps no list of its own.  The per-bundle loops
(marking, extension tails, collection, backtracking) run over the
phase's live structures in ``alpha`` order, from which each bundle first
drops those that lost their working node by deactivation or removal:
they never act again, and a deactivated one only shrinks, so it never
goes on hold.

A bundle changes the phase iff its marking leaves a live structure off
hold.  Such a structure records an operation in the bundle: it acts, it
is robbed or removed by another structure's operation, or it backtracks.
With every live structure held, the extension read picks no arc, the
collection read no structure, ``dirty`` is empty (the augmentation read
clears it, and only bundle 1 starts with it filled, when no structure
is on hold), and nothing backtracks: the three reads visit no arc.  Once
a bundle changes nothing, no later bundle of the phase can change
anything either (the loop body is a deterministic function of the phase
state), so the engine charges the remaining reads to the stream instead
of performing them and ends the phase early with identical results.

A phase depends on its scale h only through the hold threshold ``limit``
and the bundle budget ``tau_max``, which only grow as h halves.  So when
a phase banks no path, the first phase of the next scale, on the same
matching, would run bundles 1 .. B - 1 as it did, where B is the bundle
in which this phase first puts a structure on hold.  The engine keeps
its state at the start of B, up to B's hold flags and count: if B's
marking holds every live structure, B changes nothing else and the
phase freezes there, so the engine itself ends in that state; otherwise,
while no path is banked, B copies the engine once its marking is done.
The copy has its own nodes and structures, and a fresh record over its
own ``members`` list for each composite node (:func:`_copied`); the
records of subs are shared, since they read only a prefix.  It has its
own retired arcs and dead counts, and shares the stored arc lists,
which no bundle changes in place.  :meth:`PhaseEngine.resume` turns that
engine (:attr:`PhaseEngine.at_first_hold`) into the next scale's phase
at the start of B, and :meth:`PhaseEngine.run` carries on from there.
The reads of bundles 1 .. B - 1 count as passes that visit no arc, and
their events, which a traced forest keeps, are written to the trace
again.
"""

from __future__ import annotations

import copy
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional

from .invariants import InvariantChecker
from .matching import Matching
from .stream import EdgeStream, StreamRead
from .structures import Blossom, Forest, Node, Structure, base_of

READS_PER_BUNDLE = 3


@dataclass(frozen=True)
class PhaseConfig:
    """The integer parameters of one phase at scale ``h``.

    With e = 1/eps and s = 1/h powers of two (s >= 2), the paper's table
    reads l_max = 3e, limit = 6s + 1, tau_max = 72es, t_max = 144es and
    delta = 36es, so the structure-size bound limit * l_max = 18es + 3e
    never exceeds the space budget delta.
    """

    h: Fraction
    l_max: int
    limit: int
    tau_max: int
    t_max: int
    delta: int

    @staticmethod
    def from_scale(h: Fraction, eps: Fraction) -> "PhaseConfig":
        h = Fraction(h)
        eps = Fraction(eps)
        e, s = eps.denominator, h.denominator
        if eps.numerator != 1 or e & (e - 1):
            raise ValueError(f"eps must be in (0, 1] with 1/eps a power of two, got {eps}")
        if h.numerator != 1 or s & (s - 1) or s < 2:
            raise ValueError(f"scale must be in (0, 1/2] with 1/h a power of two, got {h}")
        return PhaseConfig(h, 3 * e, 6 * s + 1, 72 * e * s, 144 * e * s, 36 * e * s)


class PhaseEngine:
    """Executes one phase over a stream against a fixed matching."""

    __slots__ = ("stream", "matching", "config", "n", "forest", "live", "froze",
                 "first_hold", "held_copy", "dead", "arcs_at", "dead_at", "checker")

    def __init__(self, stream: EdgeStream, matching: Matching, config: PhaseConfig,
                 *, trace: Optional[Callable[[dict], None]] = None,
                 checker: Optional[InvariantChecker] = None):
        self.stream = stream
        self.matching = matching
        self.config = config
        self.n = stream.vertex_count
        self.forest = Forest(self.n, matching.mate, config.l_max, trace=trace)
        for alpha in matching.free_vertices():
            self.forest.init_structure(alpha)
        # The structures that may still act, in alpha order.
        self.live = list(self.forest.structures.values())
        # Whether the phase reached a fixpoint before tau_max bundles, the
        # first bundle that put a structure on hold, and a copy of the
        # engine at the start of that bundle (see ``at_first_hold``).
        self.froze = False
        self.first_hold: Optional[int] = None
        self.held_copy: Optional[PhaseEngine] = None
        # Retired arcs; per root blossom, under its base, the positions of
        # the arcs with a tail in it that were live when the list was last
        # compacted (None: not cached), and how many of those are dead.
        self.dead = bytearray(2 * stream.edge_count)
        self.arcs_at: list[Optional[array]] = [None] * self.n
        self.dead_at = [0] * self.n
        self.checker = checker
        if checker is not None:
            checker.start_phase(self.forest, config)

    def run(self) -> list[list[int]]:
        """Run the phase's bundles from ``forest.bundle + 1``: from 1, or
        from the bundle where a resumed phase continues.  Returns the
        banked augmenting paths, ``forest.paths``."""
        cfg = self.config
        if self.checker is not None:
            self.checker.at_boundary()
        for tau in range(self.forest.bundle + 1, cfg.tau_max + 1):
            if not self._bundle(tau):
                # Fixpoint: the remaining bundles of this phase would read
                # the stream without effect.  Charge their passes.
                self.froze = True
                self.stream.charge_passes(READS_PER_BUNDLE * (cfg.tau_max - tau))
                break
        if self.checker is not None:
            self.checker.at_phase_end()
        return self.forest.paths

    @property
    def at_first_hold(self) -> Optional[PhaseEngine]:
        """After a phase that banked no path, the phase as it stood at the
        start of bundle B, where it first put a structure on hold: the
        engine itself if it froze in B, else the copy B took; None if it
        never held (see the module docstring)."""
        if self.froze and self.first_hold == self.forest.bundle:
            return self
        return self.held_copy

    def resume(self, config: PhaseConfig) -> None:
        """Become the phase at ``config``'s smaller scale on the same
        matching, so that :meth:`run` continues it from bundle B, where
        this engine stands as :attr:`at_first_hold` of a phase that
        banked no path (see the module docstring).  B > 1, as every
        structure starts with one vertex, so ``dirty`` is empty at the
        start of B in the new phase, as it is here."""
        forest = self.forest
        start = self.first_hold
        assert start == forest.bundle > 1 and not forest.paths
        assert config.limit > self.config.limit and config.l_max == self.config.l_max
        self.config = config
        self.froze = False
        self.first_hold = None
        forest.bundle = start - 1
        forest.stats["holds"] = 0
        for structure in self.live:
            structure.on_hold = False
        for _ in range(READS_PER_BUNDLE * (start - 1)):
            self.stream.read().close()
        if forest.trace is not None:
            # Bundle B logged only holds, and no bundle before it did.
            forest.events = [event for event in forest.events if event["op"] != "hold"]
            for event in forest.events:
                forest.trace(event)
        if self.checker is not None:
            self.checker.start_phase(forest, config)

    def _bundle(self, tau: int) -> bool:
        """Run pass bundle ``tau``: marking, the three reads, backtracking
        and the boundary check.  Returns whether it changed anything:
        whether marking left a live structure off hold."""
        forest = self.forest
        forest.bundle = tau
        self.live = [s for s in self.live if s.working is not None]
        limit = self.config.limit
        changes = False
        for structure in self.live:
            hold = structure.size >= limit
            if hold and not structure.on_hold:
                forest.record("hold", structure)
                if self.first_hold is None:
                    self.first_hold = tau
            structure.on_hold = hold
            structure.modified = False
            changes = changes or not hold
        if self.first_hold == tau and changes and not forest.paths:
            # A later scale's first phase may resume from here.
            self.held_copy = self._copy()
        self._extend_pass()
        self._contract_and_augment()
        self._backtrack_stuck()
        if self.checker is not None:
            self.checker.at_boundary()
        return changes

    def _copy(self) -> PhaseEngine:
        """A copy of the engine, of its class and with a subclass's own
        attributes, that shares no state a later bundle of either changes:
        it has its forest's copy, the copies of the live structures, and
        its own retired arcs and dead counts.  The stored arc lists are
        shared, since no bundle changes one in place."""
        other = copy.copy(self)
        forest = other.forest = _copied(self.forest)
        other.live = [forest.structures[s.alpha] for s in self.live]
        other.dead = self.dead[:]
        other.arcs_at = self.arcs_at[:]
        other.dead_at = self.dead_at[:]
        return other

    # -- bundle parts ---------------------------------------------------------

    def _arcs_at(self, read: StreamRead, node: Node) -> array:
        """The positions of the arcs whose tail is in the root blossom
        ``node``, in stream order: the live ones and those retired since
        the list was last compacted, which happens here once they are at
        least half of it.  So a list returned that is not empty holds a
        live arc."""
        base = node.base
        own = self.arcs_at[base]
        if own is None:
            assert node.blossom is None
            own = read.tail_positions(base)
        count = self.dead_at[base]
        if count and 2 * count >= len(own):
            self.dead_at[base] = 0
            dead = self.dead
            own = array("q", [p for p in own if not dead[p]])
        self.arcs_at[base] = own
        return own

    def _contract(self, read: StreamRead, u: int, v: int) -> list[array]:
        """Contract at the working node by the arc (u, v) and cache the new
        blossom's list, its subs' lists spliced, with their dead counts
        summed.  Returns the lists of the subs that were inner."""
        forest = self.forest
        arcs_at, dead_at = self.arcs_at, self.dead_at
        mark = len(forest.dirty)
        blossom = forest.contract(u, v)
        # ``contract`` marks dirty the vertices of the inner subs, which it
        # makes outer; an inner node is trivial, so each is a sub's base.
        became_outer = forest.dirty[mark:]
        lists, inner = [], []
        count = 0
        for sub in blossom.subs:
            base = base_of(sub)
            own = arcs_at[base]
            if own is None:
                own = read.tail_positions(base)
            lists.append(own)
            if base in became_outer:
                inner.append(own)
            arcs_at[base] = None
            count += dead_at[base]
            dead_at[base] = 0
        arcs_at[blossom.base] = _spliced(lists)
        dead_at[blossom.base] = count
        return inner

    def _extend_pass(self) -> None:
        """One stream pass; each live structure extends at most once.

        The read ends once every structure it picked with live arcs has
        augmented or overtaken: acting marks a structure modified (or
        removes it), so each later arc would only be skipped or retired.
        Those arcs are neither visited nor retired here."""
        forest = self.forest
        root_of = forest.root_of
        mate = self.matching.mate
        labels = forest.labels
        dead, dead_at = self.dead, self.dead_at
        read = self.stream.read()
        arcs = read.arcs
        picked = []
        for s in self.live:
            if not s.on_hold:
                own = self._arcs_at(read, s.working)
                if own:
                    picked.append(own)
        # One list is in stream order already, and no extension read changes it.
        waiting = len(picked)  # picked structures that have not acted yet
        for p in picked[0] if waiting == 1 else sorted(chain.from_iterable(picked)):
            if dead[p]:
                continue
            u, v = arcs[p]
            bu = root_of[u]  # reached: in a working node when the read began
            bv = root_of[v]
            structure = bu.structure
            if (bu is bv or structure is None or mate[u] == v
                    or (bv is not None and bv.structure is None)):
                dead[p] = dead[p ^ 1] = 1
                # An unreached head will be the base of its trivial node.
                dead_at[bu.base] += 1
                dead_at[v if bv is None else bv.base] += 1
                continue
            if structure.modified:  # it acted or was robbed
                continue
            if bv is not None and bv.outer:
                # In another structure, by outer-independence.
                forest.record_augmentation(u, v)
            else:
                # bv is unvisited or inner, so v is matched and the matched
                # arc with tail v is the one to (possibly) overtake.
                distance = 0 if bu.parent is None else labels[bu.parent_tail]
                if distance + 1 >= labels[v]:
                    continue
                forest.overtake(u, v, distance + 1)
            waiting -= 1
            if not waiting:
                break
        read.close()

    def _contract_and_augment(self) -> None:
        """Two passes: contract to a fixpoint, then augment across
        structures.  The second gathers the edges at dirty vertices that
        join outer nodes of two live structures, then banks them in stream
        order while both their structures are live."""
        forest = self.forest
        root_of = forest.root_of

        read = self.stream.read()
        for structure in self.live:
            if structure.modified and structure.working is not None:
                self._contract_at_working(read, structure)
        read.close()

        dead = self.dead
        read = self.stream.read()
        arcs, tail_positions = read.arcs, read.tail_positions
        # The even positions of the live edges joining a dirty vertex's
        # node (outer, as a vertex stays outer) to an outer node of
        # another live structure.  Banking only removes structures, so an
        # edge that fails this test now fails it at its turn too.
        candidates = []
        for x in forest.dirty:
            owner = root_of[x].structure
            if owner is None:
                continue
            for p in tail_positions(x):
                if dead[p]:
                    continue
                bv = root_of[arcs[p][1]]
                if bv is not None and bv.outer:
                    target = bv.structure
                    if target is not None and target is not owner:
                        candidates.append(p & ~1)
        candidates.sort()
        last = -1
        for p in candidates:
            if p == last:  # an edge with both ends dirty
                continue
            last = p
            u, v = arcs[p]
            if root_of[u].structure is not None and root_of[v].structure is not None:
                forest.record_augmentation(u, v)
        read.close()
        forest.dirty.clear()

    def _contract_at_working(self, read: StreamRead, structure: Structure) -> None:
        """Contract at the structure's working node until no arc at it
        closes a blossom, each time by the first such arc in stream order."""
        root_of = self.forest.root_of
        arcs = read.arcs
        dead, dead_at = self.dead, self.dead_at
        working = structure.working
        # The positions of the arcs at the working node not yet tried.
        pending = self._arcs_at(read, working)
        while pending:
            untried, pending = pending, None
            for p in untried:
                if dead[p]:
                    continue
                u, v = arcs[p]
                bv = root_of[v]
                if bv is None:
                    continue
                if bv is working or bv.structure is None:
                    dead[p] = dead[p ^ 1] = 1
                    dead_at[working.base] += 1
                    dead_at[bv.base] += 1
                    continue
                if bv.structure is not structure or not bv.outer:
                    continue
                rest = untried[bisect_right(untried, p):]
                pending = _spliced([rest, *self._contract(read, u, v)])
                working = structure.working
                break

    def _backtrack_stuck(self) -> None:
        """Retreat every structure that is live but failed to progress."""
        forest = self.forest
        for structure in self.live:
            if structure.on_hold or structure.modified or structure.working is None:
                continue
            forest.backtrack(structure)


def _spliced(lists: list[array]) -> array:
    """One stream-ordered list of the positions in ``lists``, which are
    disjoint and each in stream order: a copy of the longest, with every
    other position inserted at its ``bisect`` point.  Each insert moves
    the tail of the list, so once a list to insert holds more than 64
    positions and more than a tenth as many as the list merged so far,
    all of them are sorted instead: the sort finds the runs and takes
    near-linear time.  Below 64 positions the inserts cost less."""
    longest = max(lists, key=len)
    merged = longest[:]
    for own in lists:
        if own is not longest:
            if len(own) > 64 and 10 * len(own) > len(merged):
                return array("q", sorted(chain.from_iterable(lists)))
            lo = 0
            for p in own:
                lo = bisect_left(merged, p, lo)
                merged.insert(lo, p)
    return merged


def _copied(forest: Forest) -> Forest:
    """A copy of ``forest`` that later operations on either leave as it is.

    Each structure and each node of its tree is copied, and a composite
    node gets a fresh record over its own copy of ``members``, the list
    that its node appends to.  The records of subs are shared, since
    they read only their prefix of a list, and so are removed nodes,
    which never change again in the phase.  ``root_of``, the labels,
    ``dirty``, the banked paths, the stats and the event log are
    copied; the mate map and the hooks are shared.  The copies are
    made without their constructors, each attribute set here."""
    other = object.__new__(Forest)
    other.n, other.mate, other.labels = forest.n, forest.mate, forest.labels[:]
    other.trace, other.on_op = forest.trace, forest.on_op
    other.events = None if forest.events is None else forest.events[:]
    other.bundle = forest.bundle
    root_of = other.root_of = forest.root_of[:]
    structures = other.structures = {}
    other.dirty, other.paths, other.stats = forest.dirty[:], forest.paths[:], dict(forest.stats)
    make = object.__new__
    stack = []  # pairs (node, its copy), the copy's parent links set
    for alpha, structure in forest.structures.items():
        twin = structures[alpha] = make(Structure)
        twin.alpha, twin.size, twin.working = alpha, structure.size, None
        twin.on_hold, twin.modified = structure.on_hold, structure.modified
        new = twin.root = make(Node)
        new.structure, new.parent, new.parent_tail, new.sibling = twin, None, None, None
        stack += (structure.root, new)
    while stack:
        new = stack.pop()
        node = stack.pop()
        new.base, new.outer, twin = node.base, node.outer, new.structure
        if node is node.structure.working:
            twin.working = new
        record = node.blossom
        if record is None:
            new.blossom = None
            root_of[node.base] = new
        else:
            fresh = new.blossom = make(Blossom)
            fresh.base, fresh.subs, fresh.cycle = record.base, record.subs, record.cycle
            fresh.arcs, fresh.count = record.arcs, record.count
            fresh.members = record.members[:]
            for x in fresh.members:
                root_of[x] = new
        new.kid = last = None
        kid = node.kid
        while kid is not None:
            child = make(Node)
            child.structure, child.parent, child.parent_tail, child.sibling = \
                twin, new, kid.parent_tail, None
            if last is None:
                new.kid = child
            else:
                last.sibling = child
            last = child
            stack += (kid, child)
            kid = kid.sibling
    return other
