import numpy as np
import pytest

from gossip_sa.network import (
    Graph,
    GossipModel,
    expected_mixing_matrix,
    is_connected,
    pairwise_matrix,
    sample_gossip,
    spectral_gap,
)


class ScriptedRng:
    """Stands in for a generator; ``random()`` returns the scripted draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def triangle_model(c=1.0, eta=0.0):
    graph = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    return GossipModel(graph, activation_scale=c, activation_decay=eta)


class TestPairwiseMatrix:
    def test_literal_example(self):
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(pairwise_matrix(1, 2, 3), expected)

    def test_idempotent(self):
        w = pairwise_matrix(2, 3, 4)
        assert np.allclose(w @ w, w, atol=1e-15)

    def test_doubly_stochastic_sums(self):
        w = pairwise_matrix(1, 4, 5)
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-15)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-15)

    def test_symmetric(self):
        w = pairwise_matrix(2, 5, 6)
        assert np.array_equal(w, w.T)

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 4), (2, 2), (-1, 3)])
    def test_invalid_indices(self, i, j):
        with pytest.raises(ValueError):
            pairwise_matrix(i, j, 3)


class TestGraph:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),), (1.0,))
        with pytest.raises(ValueError):
            Graph(3, ((1, 4),), (1.0,))
        with pytest.raises(ValueError):
            Graph(3, ((2, 1),), (1.0,))  # must be canonical i < j

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (1, 2)), (0.5, 0.5))

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (2, 3)), (0.5, 0.4))
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (2, 3)), (1.2, -0.2))

    def test_from_edges_normalizes_and_canonicalizes(self):
        g = Graph.from_edges(4, [(2, 1), (3, 4)], weights=[3.0, 1.0])
        assert g.edges == ((1, 2), (3, 4))
        assert g.pair_probs == pytest.approx((0.75, 0.25))


class TestSampleGossip:
    def test_single_edge_always_that_pair(self):
        graph = Graph.from_edges(2, [(1, 2)])
        model = GossipModel(graph)
        rng = np.random.default_rng(0)
        expected = pairwise_matrix(1, 2, 2)
        for n in range(1, 11):
            p = model.activation_probability(n)
            assert np.array_equal(sample_gossip(model, p, rng), expected)

    def test_lazy_identity_frequency(self):
        model = triangle_model(c=0.5)
        rng = np.random.default_rng(1)
        p = model.activation_probability(1)
        eye = np.eye(3)
        draws = 10**5
        idle = sum(
            np.array_equal(sample_gossip(model, p, rng), eye) for _ in range(draws)
        )
        assert abs(idle / draws - 0.5) <= 0.01

    def test_uniform_pair_frequency_conditioned_on_exchange(self):
        model = triangle_model(c=0.5)
        p = model.activation_probability(1)
        rng = np.random.default_rng(2)
        counts = {edge: 0 for edge in model.graph.edges}
        for _ in range(10**5):
            # An exchange halves exactly its two diagonal entries; the identity none.
            active = tuple(np.flatnonzero(np.diag(sample_gossip(model, p, rng)) == 0.5) + 1)
            if active:
                counts[active] += 1
        total = sum(counts.values())
        for edge, count in counts.items():
            assert abs(count / total - 1.0 / 3.0) <= 0.01, edge

    def test_reproducible_given_seed(self):
        model = triangle_model(c=0.7)
        p = model.activation_probability
        first = [sample_gossip(model, p(n), np.random.default_rng(42)) for n in [1]]
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        seq_a = [sample_gossip(model, p(n), rng_a) for n in range(1, 200)]
        seq_b = [sample_gossip(model, p(n), rng_b) for n in range(1, 200)]
        for wa, wb in zip(seq_a, seq_b):
            assert np.array_equal(wa, wb)
        assert np.array_equal(first[0], seq_a[0])

    def test_every_matrix_is_exactly_doubly_stochastic(self):
        # The engine mixes with the alphabet unchecked: every matrix holds
        # only 0, 1/2 and 1, so its row and column sums are exactly 1.
        rng = np.random.default_rng(3)
        for _ in range(50):
            for w in random_model(rng)._alphabet:
                assert np.isin(w, (0.0, 0.5, 1.0)).all()
                assert (w.sum(axis=0) == 1.0).all() and (w.sum(axis=1) == 1.0).all()

    def test_all_samples_doubly_stochastic(self):
        # Each draw is one of the model's alphabet matrices, so it is exactly
        # doubly stochastic too.
        rng = np.random.default_rng(3)
        for _ in range(200):
            model = random_model(rng)
            p = model.activation_probability(int(rng.integers(1, 50)))
            w = sample_gossip(model, p, rng)
            assert any(w is a for a in model._alphabet)
            assert (w.sum(axis=0) == 1.0).all() and (w.sum(axis=1) == 1.0).all()

    def test_returned_matrices_are_read_only(self):
        # Draws share the model's cached alphabet, so writes must fail loudly.
        model = triangle_model(c=0.5)
        p = model.activation_probability(1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = sample_gossip(model, p, rng)
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 2.0
        identity, *exchanges = model._alphabet
        assert np.array_equal(identity, np.eye(3))
        for w, (i, j) in zip(exchanges, model.graph.edges):
            assert np.array_equal(w, pairwise_matrix(i, j, 3))

    def test_activation_decay_schedule(self):
        model = triangle_model(c=2.0, eta=0.5)
        assert model.activation_probability(1) == 1.0  # capped at one
        assert model.activation_probability(16) == pytest.approx(0.5)

    def test_edge_draw_matches_searchsorted(self):
        # The picked edge is the one np.searchsorted(cum, u, side="right")
        # picks, for random draws, draws on and next to every bin edge, and
        # draws just below 1.
        rng = np.random.default_rng(8)
        for _ in range(50):
            model = random_model(rng)
            _, _, cum = model._edge_table
            draws = np.concatenate(
                [
                    rng.random(100),
                    cum,
                    np.nextafter(cum, 0.0),
                    np.nextafter(cum, 2.0),
                    [0.0, np.nextafter(1.0, 0.0), 1.0 - 1e-16, 1.0 - 1e-12],
                ]
            )
            p = model.activation_probability(1)
            for u in draws:
                k = min(int(np.searchsorted(cum, u, side="right")), cum.size - 1)
                scripted = ScriptedRng([0.0, float(u)])
                assert sample_gossip(model, p, scripted) is model._alphabet[k + 1]
                assert not scripted.draws

    def test_each_interval_picks_its_edge(self):
        # Edge k owns [cum[k-1], cum[k]), from 0 for the first edge and up to
        # 1 for the last.  Both rules send the interval's lower end, the float
        # above it and the float below its upper end to edge k; the upper end
        # itself is the next interval's lower end.
        rng = np.random.default_rng(10)
        models = [random_model(rng) for _ in range(50)]
        models.append(GossipModel(Graph.from_edges(2, [(1, 2)])))
        for model in models:
            p = model.activation_probability(1)
            inner = model._edge_table[2][:-1]
            for k, (lo, hi) in enumerate(zip(np.r_[0.0, inner], np.r_[inner, 1.0])):
                draws = np.array([lo, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0)])
                assert lo < draws[1] <= draws[2] < hi
                assert (model.pick_edges(draws) == k).all()
                for u in draws:
                    scripted = ScriptedRng([0.0, float(u)])
                    assert sample_gossip(model, p, scripted) is model._alphabet[k + 1]

    def test_pick_edges_matches_searchsorted(self):
        # Threshold counting picks the capped searchsorted index for random
        # draws, every cum entry and its float neighbours, on graphs of 1 to
        # 28 edges, with and without a preallocated output.
        rng = np.random.default_rng(9)
        models = [random_model(rng) for _ in range(50)]
        models.append(GossipModel(Graph.from_edges(2, [(1, 2)])))
        for model in models:
            _, _, cum = model._edge_table
            draws = np.concatenate(
                [
                    rng.random(500),
                    cum,
                    np.nextafter(cum, 0.0),
                    np.nextafter(cum, 2.0),
                    [0.0, np.nextafter(1.0, 0.0), 1.0 - 1e-16, 1.0 - 1e-12],
                ]
            )
            expected = np.minimum(np.searchsorted(cum, draws, side="right"), cum.size - 1)
            picked = model.pick_edges(draws)
            assert np.iinfo(picked.dtype).max >= cum.size - 1
            assert np.array_equal(picked, expected)
            out = np.full(draws.shape, 99, dtype=np.intp)
            assert model.pick_edges(draws, out=out) is out
            assert np.array_equal(out, expected)

    def test_pick_edges_defaults_to_the_index_dtype(self):
        # Picks index the edge table, so they come as np.intp, which
        # np.take uses without a cast; a smaller integer output still works.
        model = triangle_model()
        draws = np.random.default_rng(4).random(100)
        picked = model.pick_edges(draws)
        assert picked.dtype == np.intp
        small = np.empty(draws.shape, dtype=np.uint8)
        assert np.array_equal(model.pick_edges(draws, out=small), picked)

    @pytest.mark.parametrize("c", [1e-300, 0.1, 0.5, 0.6, np.nextafter(1.0, 0.0)])
    def test_activation_exchanges_exactly_below_p(self, c):
        # The first uniform u exchanges iff u < p: at u = 0 and the float
        # just below p, not at p or the float just above it.
        model = triangle_model(c=c)
        p = model.activation_probability(1)
        assert p < 1.0
        cases = [(0.0, True), (np.nextafter(p, 0.0), True), (p, False), (np.nextafter(p, 1.0), False)]
        for u, exchanges in cases:
            scripted = ScriptedRng([float(u), 0.0])
            expected = model._alphabet[1] if exchanges else model._alphabet[0]
            assert sample_gossip(model, p, scripted) is expected

    def test_lazy_step_makes_one_draw(self):
        model = triangle_model(c=0.5)
        scripted = ScriptedRng([0.5, 0.1])
        p = model.activation_probability(1)
        assert sample_gossip(model, p, scripted) is model._alphabet[0]
        assert scripted.draws == [0.1]


def random_model(rng, max_agents=8):
    """Random connected-or-not gossip model on up to ``max_agents`` agents."""
    n = int(rng.integers(2, max_agents + 1))
    possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = [e for e in possible if rng.random() < 0.5]
    if not keep:
        keep = [possible[int(rng.integers(len(possible)))]]
    weights = rng.uniform(0.2, 2.0, size=len(keep))
    return GossipModel(Graph.from_edges(n, keep, weights), activation_scale=1.0)


class TestSpectralGap:
    def test_two_agents_single_edge_is_zero(self):
        model = GossipModel(Graph.from_edges(2, [(1, 2)]))
        assert abs(spectral_gap(model)) <= 1e-12

    def test_complete_four_graph_closed_form(self):
        edges = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        model = GossipModel(Graph.from_edges(4, edges))
        rho = spectral_gap(model)
        assert abs(rho - 2.0 / 3.0) <= 1e-12
        # brute-force eigendecomposition of the enumerated expectation
        expectation = sum(
            pairwise_matrix(i, j, 4) / len(edges) for i, j in edges
        )
        brute = np.max(np.abs(np.linalg.eigvalsh(expectation - np.ones((4, 4)) / 4.0)))
        assert abs(rho - brute) <= 1e-12

    def test_vanishing_activation_gives_unit_radius(self):
        model = triangle_model(c=1e-12)
        assert abs(spectral_gap(model) - 1.0) <= 1e-11

    def test_laziness_scales_gap_linearly(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            base = random_model(rng)
            rho_full = spectral_gap(base)
            p = float(rng.uniform(0.05, 1.0))
            lazy = GossipModel(base.graph, activation_scale=p)
            assert abs((1.0 - spectral_gap(lazy)) - p * (1.0 - rho_full)) <= 1e-12

    def test_radius_below_one_iff_connected(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = random_model(rng)
            p = float(rng.uniform(0.05, 1.0))
            model = GossipModel(model.graph, activation_scale=p)
            rho = spectral_gap(model)
            if is_connected(model.graph):
                assert rho < 1.0 - 1e-12
            else:
                assert abs(rho - 1.0) <= 1e-12

    def test_expected_matrix_equals_the_enumeration(self):
        # The closed form I - (p/2) L_q against the average over every
        # realizable matrix, on 2 to 11 agents and decaying activation.
        rng = np.random.default_rng(7)
        for _ in range(200):
            graph = random_model(rng, max_agents=11).graph
            decay = float(rng.uniform(0.0, 1.0))
            model = GossipModel(graph, float(rng.uniform(0.05, 2.0)), decay)
            n = int(rng.integers(1, 50))
            p = model.activation_probability(n)
            exchanges = np.zeros((graph.n_agents, graph.n_agents))
            for (i, j), q in zip(graph.edges, graph.pair_probs):
                exchanges += q * pairwise_matrix(i, j, graph.n_agents)
            enumerated = p * exchanges + (1.0 - p) * np.eye(graph.n_agents)
            assert np.abs(expected_mixing_matrix(model, n) - enumerated).max() <= 1e-15

    def test_expected_matrix_is_doubly_stochastic(self):
        # Doubly stochastic up to the rounding of its Laplacian.
        rng = np.random.default_rng(6)
        for _ in range(20):
            expected = expected_mixing_matrix(random_model(rng), 3)
            assert expected.min() >= 0.0
            assert np.abs(expected.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.abs(expected.sum(axis=1) - 1.0).max() <= 1e-12


class TestIsConnected:
    def test_path_graph_connected(self):
        assert is_connected(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]))

    def test_two_components_disconnected(self):
        assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))

    def test_reference_topology_connected(self):
        g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        assert is_connected(g)

