"""Unit tests for the join graph."""

from repro.optimizer import JoinGraph
from repro.sql import QueryBuilder


def chain_query(n=4):
    """t1 - t2 - t3 - ... chain query over the stocks schema-ish tables."""
    builder = QueryBuilder(name="chain")
    for i in range(n):
        builder.add_table("company", f"t{i}")
    for i in range(n - 1):
        builder.add_join(f"t{i}", "id", f"t{i+1}", "id")
    return builder.build()


def star_query():
    """Star around ``t`` with three satellites."""
    builder = QueryBuilder(name="star")
    builder.add_table("title", "t")
    for alias in ("a", "b", "c"):
        builder.add_table("movie_keyword", alias)
        builder.add_join("t", "id", alias, "movie_id")
    return builder.build()


class TestJoinGraph:
    def test_neighbors_and_degree(self):
        graph = JoinGraph(star_query())
        assert graph.neighbors("t") == {"a", "b", "c"}
        assert graph.degree("t") == 3
        assert graph.degree("a") == 1

    def test_edges(self):
        graph = JoinGraph(chain_query(3))
        assert graph.edges() == [("t0", "t1"), ("t1", "t2")]

    def test_is_connected(self):
        graph = JoinGraph(star_query())
        assert graph.is_connected({"t", "a"})
        assert graph.is_connected({"t", "a", "b", "c"})
        assert not graph.is_connected({"a", "b"})
        assert not graph.is_connected(set())
        assert graph.is_connected({"a"})

    def test_connects(self):
        graph = JoinGraph(star_query())
        assert graph.connects({"t"}, {"a"})
        assert not graph.connects({"a"}, {"b"})

    def test_connected_components(self):
        graph = JoinGraph(chain_query(4))
        components = graph.connected_components()
        assert len(components) == 1
        assert components[0] == {"t0", "t1", "t2", "t3"}

    def test_connected_subsets_of_size(self):
        graph = JoinGraph(chain_query(4))
        pairs = graph.connected_subsets_of_size(2)
        assert len(pairs) == 3  # chain of 4 has 3 adjacent pairs
        triples = graph.connected_subsets_of_size(3)
        assert len(triples) == 2
        assert graph.connected_subsets_of_size(0) == []
        assert graph.connected_subsets_of_size(9) == []

    def test_connected_subsets_star(self):
        graph = JoinGraph(star_query())
        # Star with 3 satellites: pairs = 3 (each satellite with hub).
        assert len(graph.connected_subsets_of_size(2)) == 3
        # Triples: hub + any 2 satellites = C(3,2) = 3.
        assert len(graph.connected_subsets_of_size(3)) == 3
        assert len(graph.connected_subsets_up_to(2)) == 4 + 3

    def test_joins_between_sets(self):
        graph = JoinGraph(star_query())
        joins = graph.joins_between_sets({"t", "a"}, {"b"})
        assert len(joins) == 1

    def test_to_dot_and_text(self):
        graph = JoinGraph(star_query())
        dot = graph.to_dot()
        assert "graph star" in dot
        assert "t -- " in dot or "a -- " in dot
        text = graph.to_text()
        assert "join graph of star" in text

    def test_removable_alias_keeps_remainder_connected(self):
        chain = JoinGraph(chain_query(4))
        assert chain.removable_alias({"t0", "t1", "t2", "t3"}) == "t3"
        # {t0, t1, t3} is disconnected: no alias qualifies, the highest goes.
        assert chain.removable_alias({"t0", "t1", "t3"}) == "t3"
        assert chain.removable_alias({"t1", "t2", "t3"}) == "t3"
        star = JoinGraph(star_query())
        assert star.removable_alias({"a", "t"}) == "t"
        assert star.removable_alias({"a", "b", "t"}) == "b"


def cycle_query(n=5):
    """t0 - t1 - ... - t(n-1) - t0 ring."""
    builder = QueryBuilder(name="cycle")
    for i in range(n):
        builder.add_table("company", f"t{i}")
    for i in range(n):
        builder.add_join(f"t{i}", "id", f"t{(i + 1) % n}", "id")
    return builder.build()


def grown_subsets(graph, size):
    """Alias-set growth one neighbour at a time, sorted by sorted aliases."""
    current = {frozenset((alias,)) for alias in graph.aliases}
    for _ in range(size - 1):
        current = {
            subset | {neighbor}
            for subset in current
            for alias in subset
            for neighbor in graph.neighbors(alias)
            if neighbor not in subset
        }
    return sorted(current, key=lambda s: tuple(sorted(s)))


class TestConnectedSubsetEnumeration:
    def test_chain_star_cycle_lists(self):
        chain = JoinGraph(chain_query(4))
        assert chain.connected_subsets_of_size(3) == [
            frozenset({"t0", "t1", "t2"}),
            frozenset({"t1", "t2", "t3"}),
        ]
        star = JoinGraph(star_query())
        assert star.connected_subsets_of_size(2) == [
            frozenset({"a", "t"}),
            frozenset({"b", "t"}),
            frozenset({"c", "t"}),
        ]
        cycle = JoinGraph(cycle_query(5))
        # Every run of k consecutive ring members, listed by sorted aliases.
        assert cycle.connected_subsets_of_size(2) == [
            frozenset(pair)
            for pair in (
                ("t0", "t1"),
                ("t0", "t4"),
                ("t1", "t2"),
                ("t2", "t3"),
                ("t3", "t4"),
            )
        ]
        assert len(cycle.connected_subsets_of_size(4)) == 5
        assert cycle.connected_subsets_of_size(5) == [frozenset(cycle.aliases)]

    def test_matches_alias_set_growth(self, imdb_db, job_queries):
        job = next(q for q in job_queries if q.num_tables == 12)
        graphs = [
            JoinGraph(chain_query(6)),
            JoinGraph(star_query()),
            JoinGraph(cycle_query(6)),
            JoinGraph(imdb_db.parse(job.sql, name=job.name)),
        ]
        for graph in graphs:
            for size in range(1, len(graph.aliases) + 1):
                assert graph.connected_subsets_of_size(size) == grown_subsets(
                    graph, size
                ), (graph.query.name, size)
