"""Join graphs over bound queries.

The join graph has one node per FROM-clause alias and one edge per join
predicate — equi-joins (``a.x = b.y``, the edges the enumerator puts join
keys on) and *residual* join filters (non-equi predicates such as
``a.x < b.y`` or cross-table ``OR`` trees, which connect their aliases
pairwise so the enumerator can plan them as filtered cross products).  The
optimizer's dynamic-programming enumeration only considers *connected*
sub-sets (no unfiltered Cartesian products, like PostgreSQL's default), so
the graph exposes connectivity helpers.  The deep-dive examples of the paper
(Figures 3 and 4) are rendered from this structure.

Internally an alias subset is an ``int`` bitmask: bit ``i`` stands for the
``i``-th alias in sorted order.  Adjacency and the predicates' aliases are
precomputed as masks and connectivity is memoized per mask.  The planner,
the cardinality estimator and the perfect-(n) oracle share this core; the
alias-set methods (``is_connected``, ``connects``, ...) wrap it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.sql.ast import Expr
from repro.sql.binder import BoundJoin, BoundQuery

AliasSet = FrozenSet[str]


def mask_bits(mask: int) -> Iterator[int]:
    """The single-bit masks of ``mask``, lowest bit first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class JoinGraph:
    """Undirected join graph of a bound query."""

    def __init__(self, query: BoundQuery) -> None:
        self.query = query
        self.aliases: Tuple[str, ...] = tuple(query.aliases)
        self._names: Tuple[str, ...] = tuple(sorted(self.aliases))
        self._bit: Dict[str, int] = {
            alias: 1 << index for index, alias in enumerate(self._names)
        }
        #: Per alias bit: the aliases it shares a predicate with.
        self._adjacency: Dict[int, int] = dict.fromkeys(self._bit.values(), 0)
        self._edges: Dict[Tuple[str, str], None] = {}
        #: ``(join, left alias bit, right alias bit)`` in predicate order.
        self._joins: List[Tuple[BoundJoin, int, int]] = []
        for join in query.joins:
            self._link(join.left_alias, join.right_alias)
            self._joins.append(
                (join, self._bit[join.left_alias], self._bit[join.right_alias])
            )
        # A residual referencing an alias outside the query can never be
        # covered: its mask carries a bit no subset has.
        outside = 1 << len(self._names)
        #: ``(residual, referenced aliases mask)`` in predicate order.
        self.residual_masks: List[Tuple[Expr, int]] = []
        for residual in getattr(query, "residuals", ()):
            referenced = residual.referenced_aliases()
            aliases = [a for a in referenced if a in self._bit]
            for i, left in enumerate(aliases):
                for right in aliases[i + 1 :]:
                    self._link(left, right)
            mask = self.mask_of(aliases)
            if len(aliases) < len(referenced):
                mask |= outside
            self.residual_masks.append((residual, mask))
        self.full_mask = (1 << len(self._names)) - 1
        self._connected: Dict[int, bool] = {}
        self._neighborhood: Dict[int, int] = {}

    def _link(self, left: str, right: str) -> None:
        self._adjacency[self._bit[left]] |= self._bit[right]
        self._adjacency[self._bit[right]] |= self._bit[left]
        self._edges.setdefault(tuple(sorted((left, right))), None)

    # -- bitmask core ------------------------------------------------------

    def mask_of(self, aliases: Iterable[str]) -> int:
        """Bitmask of an alias collection (``KeyError`` for unknown aliases)."""
        mask = 0
        for alias in aliases:
            mask |= self._bit[alias]
        return mask

    def aliases_of(self, mask: int) -> AliasSet:
        """The alias set a bitmask stands for."""
        return frozenset(self._names[bit.bit_length() - 1] for bit in mask_bits(mask))

    def sort_key(self, mask: int) -> Tuple[int, ...]:
        """Bit positions ascending: orders masks like ``tuple(sorted(aliases))``."""
        return tuple(bit.bit_length() for bit in mask_bits(mask))

    def neighborhood(self, mask: int) -> int:
        """Union of the adjacency masks of the members of ``mask`` (memoized)."""
        hood = self._neighborhood.get(mask)
        if hood is None:
            hood = 0
            for bit in mask_bits(mask):
                hood |= self._adjacency[bit]
            self._neighborhood[mask] = hood
        return hood

    def connected(self, mask: int) -> bool:
        """True if the induced subgraph over ``mask`` is connected (memoized)."""
        answer = self._connected.get(mask)
        if answer is None:
            answer = mask != 0 and self._reach(mask & -mask, mask) == mask
            self._connected[mask] = answer
        return answer

    def _reach(self, start: int, within: int) -> int:
        """The aliases of ``within`` reachable from ``start`` inside it."""
        seen = frontier = start
        while frontier:
            frontier = self.neighborhood(frontier) & within & ~seen
            seen |= frontier
        return seen

    def linked(self, left: int, right: int) -> bool:
        """True if at least one edge joins the two (disjoint) masks."""
        return bool(self.neighborhood(left) & right)

    def join_linked(self, left: int, right: int) -> bool:
        """True if at least one equi-join joins the two (disjoint) masks."""
        if self.residual_masks:
            return bool(self.joins_between_masks(left, right))
        return self.linked(left, right)  # every edge is an equi-join

    def joins_between_masks(self, left: int, right: int) -> Tuple[BoundJoin, ...]:
        """Equi-joins with one side in each mask, in predicate order."""
        return tuple(
            join
            for join, a, b in self._joins
            if (a & left and b & right) or (a & right and b & left)
        )

    def residuals_covered(self, left: int, right: int) -> Tuple[Expr, ...]:
        """Residual filters first covered by joining ``left`` and ``right``.

        A residual applies at the join whose alias set first covers every
        alias it references and neither child does on its own, so each
        residual is applied exactly once along any plan tree.
        """
        union = left | right
        return tuple(
            residual
            for residual, mask in self.residual_masks
            if not mask & ~union and mask & ~left and mask & ~right
        )

    def residual_bridges(self, left: int, right: int) -> bool:
        """Whether some residual references aliases on both sides."""
        return any(mask & left and mask & right for _, mask in self.residual_masks)

    def removable_bit(self, mask: int) -> int:
        """The alias to peel off ``mask`` when building it from a smaller subset.

        The highest-sorted alias whose removal leaves a connected remainder
        linked to it; a disconnected subset (only probed by explicit
        experiments) peels its highest alias.  The cardinality estimator and
        the true-cardinality oracle both decompose subsets this way.
        """
        for bit in reversed(list(mask_bits(mask))):
            rest = mask & ~bit
            if self.connected(rest) and self._adjacency[bit] & rest:
                return bit
        return 1 << (mask.bit_length() - 1)

    def connected_mask_levels(self, max_size: int) -> List[List[int]]:
        """Connected subset masks by size: element ``k`` holds those of size ``k+1``.

        Subsets grow one neighbouring alias at a time, so only connected
        subsets are ever produced; each level is in ascending mask order.
        """
        levels: List[List[int]] = []
        current = sorted(self._adjacency)
        while current and len(levels) < max_size:
            levels.append(current)
            grown: Set[int] = set()
            for mask in current:
                for bit in mask_bits(self.neighborhood(mask) & ~mask):
                    grown.add(mask | bit)
            current = sorted(grown)
        return levels

    # -- alias-set API -----------------------------------------------------

    def neighbors(self, alias: str) -> Set[str]:
        """Aliases directly joined to ``alias``."""
        return set(self.aliases_of(self._adjacency[self._bit[alias]]))

    def edges(self) -> List[Tuple[str, str]]:
        """All edges as sorted alias pairs (one entry per pair)."""
        return list(self._edges)

    def joins_between_sets(
        self, left: Iterable[str], right: Iterable[str]
    ) -> List[BoundJoin]:
        """Join predicates with one side in ``left`` and the other in ``right``."""
        return list(self.joins_between_masks(self.mask_of(left), self.mask_of(right)))

    def degree(self, alias: str) -> int:
        """Number of aliases joined to ``alias``."""
        return bin(self._adjacency[self._bit[alias]]).count("1")

    def is_connected(self, aliases: Iterable[str]) -> bool:
        """True if the induced subgraph over ``aliases`` is connected."""
        return self.connected(self.mask_of(aliases))

    def connects(self, left: Iterable[str], right: Iterable[str]) -> bool:
        """True if at least one join edge connects the two alias groups."""
        return self.linked(self.mask_of(left), self.mask_of(right))

    def removable_alias(self, subset: Iterable[str]) -> str:
        """Alias form of :meth:`removable_bit`."""
        bit = self.removable_bit(self.mask_of(subset))
        return self._names[bit.bit_length() - 1]

    def connected_components(self) -> List[Set[str]]:
        """Connected components of the whole graph."""
        remaining = self.full_mask
        components: List[Set[str]] = []
        while remaining:
            component = self._reach(remaining & -remaining, remaining)
            components.append(set(self.aliases_of(component)))
            remaining &= ~component
        return components

    def connected_subsets_of_size(self, size: int) -> List[AliasSet]:
        """All connected alias subsets of exactly ``size`` tables.

        Used by the perfect-(n) oracle and by the Table I estimate-count
        experiment; sorted by ``tuple(sorted(subset))``.
        """
        if size < 1 or size > len(self.aliases):
            return []
        levels = self.connected_mask_levels(size)
        if len(levels) < size:
            return []
        return [
            self.aliases_of(mask)
            for mask in sorted(levels[size - 1], key=self.sort_key)
        ]

    def connected_subsets_up_to(self, max_size: int) -> List[AliasSet]:
        """All connected alias subsets of size 1..``max_size``."""
        subsets: List[AliasSet] = []
        for size in range(1, max_size + 1):
            subsets.extend(self.connected_subsets_of_size(size))
        return subsets

    # -- rendering ----------------------------------------------------------

    def to_dot(self) -> str:
        """Render the join graph in Graphviz DOT syntax (for the examples)."""
        lines = [f"graph {self.query.name or 'query'} {{"]
        for alias in self.aliases:
            lines.append(f'  {alias} [label="{alias}"];')
        for left, right in self.edges():
            lines.append(f"  {left} -- {right};")
        lines.append("}")
        return "\n".join(lines)

    def to_text(self) -> str:
        """Human-readable adjacency listing used by the deep-dive example."""
        lines = [f"join graph of {self.query.name or 'query'}:"]
        for alias in self.aliases:
            neighbors = ", ".join(sorted(self.neighbors(alias))) or "(isolated)"
            lines.append(f"  {alias} -- {neighbors}")
        return "\n".join(lines)
