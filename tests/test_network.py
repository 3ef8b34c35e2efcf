"""Structure and validation of the network type."""

import pytest

from vbereq import NetworkError, SocialNetwork, network


def net(actors, ties=()):
    return SocialNetwork(tuple(actors), frozenset(ties))


class TestConstruction:
    def test_basic(self):
        n = net("ABC", {("A", "B"), ("B", "A"), ("B", "C")})
        assert n.size == 3
        assert n.tie_count == 3
        assert n.actors == ("A", "B", "C")
        assert n.has_tie("A", "B") and not n.has_tie("C", "B")
        assert "A" in n and "Z" not in n
        assert list(n) == ["A", "B", "C"]

    def test_actor_order_is_preserved(self):
        n = net(("Z", "M", "A"))
        assert n.actors == ("Z", "M", "A")

    def test_empty_network_rejected(self):
        with pytest.raises(NetworkError):
            net(())

    def test_duplicate_actor_rejected(self):
        with pytest.raises(NetworkError, match="duplicate"):
            net(("A", "B", "A"))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(NetworkError, match="unknown actor"):
            net("AB", {("A", "C")})

    def test_self_tie_rejected(self):
        with pytest.raises(NetworkError, match="self-tie"):
            net("AB", {("A", "A")})

    @pytest.mark.parametrize(
        "bad",
        ["", "a,b", " a", "a ", "#x", "a:b", "a\nb", 7,
         "\ufeffA", "A\u200bB", "A\xadB", "A\x7fB"],
    )
    def test_bad_actor_ids_rejected(self, bad):
        with pytest.raises(NetworkError):
            net(("A", bad))

    def test_internal_space_is_allowed(self):
        n = net(("Acme Corp", "B"), {("Acme Corp", "B")})
        assert n.has_tie("Acme Corp", "B")

    def test_equality_and_hash_ignore_tie_listing_order(self):
        a = net("AB", [("A", "B"), ("B", "A")])
        b = net("AB", [("B", "A"), ("A", "B")])
        assert a == b
        assert hash(a) == hash(b)


class TestQueries:
    def test_neighbor_sets(self):
        n = net("ABC", {("A", "B"), ("C", "A")})
        assert n.out_neighbors("A") == {"B"}
        assert n.in_neighbors("A") == {"C"}
        assert n.neighbors("A") == {"B", "C"}
        assert n.neighbors("B") == {"A"}

    def test_unknown_actor_query_raises(self):
        n = net("AB")
        with pytest.raises(NetworkError, match="unknown actor"):
            n.out_neighbors("Z")


class TestDerivations:
    def test_induced_keeps_internal_ties_and_parent_order(self):
        n = net("ABCD", {("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")})
        sub = n.induced(("C", "A", "B"))
        assert sub.actors == ("A", "B", "C")
        assert sub.ties == {("A", "B"), ("B", "C")}

    def test_induced_rejects_outsiders_and_empty(self):
        n = net("AB")
        with pytest.raises(NetworkError):
            n.induced(("A", "Z"))
        with pytest.raises(NetworkError):
            n.induced(())

    def test_symmetrized(self):
        n = net("ABC", {("A", "B")})
        s = n.symmetrized()
        assert s.ties == {("A", "B"), ("B", "A")}
        assert s.symmetrized() is s

    def test_derivations_check_no_actor_id_again(self, monkeypatch):
        n = net("ABCD", {("A", "B"), ("B", "C"), ("C", "D")})
        checked = []
        monkeypatch.setattr(network, "validate_actor_id", checked.append)
        n.induced("ABC")
        n.symmetrized()
        n.distances(undirected=True)
        assert checked == []


class TestDistances:
    def test_hop_tables_per_view(self):
        n = net("ABC", {("A", "B"), ("B", "C")})
        assert n.distances() == {
            "A": {"A": 0, "B": 1, "C": 2},
            "B": {"B": 0, "C": 1},
            "C": {"C": 0},
        }
        assert n.distances(undirected=True)["C"] == {"C": 0, "B": 1, "A": 2}

    def test_memoized_per_network_without_changing_equality(self):
        n = net("AB", {("A", "B")})
        twin = net("AB", {("A", "B")})
        assert n.distances() is n.distances()
        assert n.distances(undirected=True) is n.distances(undirected=True)
        assert n == twin and hash(n) == hash(twin)
        assert repr(n) == repr(twin)
