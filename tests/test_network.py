import numpy as np
import pytest

from gossip_sa.network import (
    Graph,
    GossipModel,
    check_doubly_stochastic,
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
            assert np.array_equal(sample_gossip(model, n, rng), expected)

    def test_lazy_identity_frequency(self):
        model = triangle_model(c=0.5)
        rng = np.random.default_rng(1)
        eye = np.eye(3)
        draws = 10**5
        idle = sum(
            np.array_equal(sample_gossip(model, 1, rng), eye) for _ in range(draws)
        )
        assert abs(idle / draws - 0.5) <= 0.01

    def test_uniform_pair_frequency_conditioned_on_exchange(self):
        model = triangle_model(c=0.5)
        rng = np.random.default_rng(2)
        counts = {edge: 0 for edge in model.graph.edges}
        eye = np.eye(3)
        for _ in range(10**5):
            w = sample_gossip(model, 1, rng)
            if np.array_equal(w, eye):
                continue
            active = tuple(np.flatnonzero(np.isclose(np.diag(w), 0.5)) + 1)
            counts[active] += 1
        total = sum(counts.values())
        for edge, count in counts.items():
            assert abs(count / total - 1.0 / 3.0) <= 0.01, edge

    def test_reproducible_given_seed(self):
        model = triangle_model(c=0.7)
        first = [sample_gossip(model, n, np.random.default_rng(42)) for n in [1]]
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        seq_a = [sample_gossip(model, n, rng_a) for n in range(1, 200)]
        seq_b = [sample_gossip(model, n, rng_b) for n in range(1, 200)]
        for wa, wb in zip(seq_a, seq_b):
            assert np.array_equal(wa, wb)
        assert np.array_equal(first[0], seq_a[0])

    def test_all_samples_doubly_stochastic(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            model = random_model(rng)
            w = sample_gossip(model, int(rng.integers(1, 50)), rng)
            check_doubly_stochastic(w, tol=1e-12)

    def test_returned_matrices_are_read_only(self):
        # Draws share the model's cached alphabet, so writes must fail loudly.
        model = triangle_model(c=0.5)
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = sample_gossip(model, 1, rng)
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
            for u in draws:
                k = min(int(np.searchsorted(cum, u, side="right")), cum.size - 1)
                scripted = ScriptedRng([0.0, float(u)])
                assert sample_gossip(model, 1, scripted) is model._alphabet[k + 1]
                assert not scripted.draws

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

    def test_lazy_step_makes_one_draw(self):
        model = triangle_model(c=0.5)
        scripted = ScriptedRng([0.5, 0.1])
        assert sample_gossip(model, 1, scripted) is model._alphabet[0]
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

    def test_expected_matrix_is_doubly_stochastic(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            model = random_model(rng)
            check_doubly_stochastic(expected_mixing_matrix(model, 3), tol=1e-12)


class TestIsConnected:
    def test_path_graph_connected(self):
        assert is_connected(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]))

    def test_two_components_disconnected(self):
        assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))

    def test_reference_topology_connected(self):
        g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        assert is_connected(g)


class TestCheckDoublyStochastic:
    def test_accepts_identity_and_uniform(self):
        check_doubly_stochastic(np.eye(5))
        check_doubly_stochastic(np.ones((3, 3)) / 3.0)

    def test_rejects_row_stochastic_only(self):
        w = np.array([[0.7, 0.3], [0.5, 0.5]])
        with pytest.raises(ValueError, match="doubly stochastic"):
            check_doubly_stochastic(w)

    def test_rejects_negative_entries(self):
        w = np.array([[1.5, -0.5], [-0.5, 1.5]])
        with pytest.raises(ValueError, match="negative"):
            check_doubly_stochastic(w)

    def test_rejects_nan_entry(self):
        w = np.array([[np.nan, 0.5], [0.5, 0.5]])
        for _ in range(2):
            with pytest.raises(ValueError, match="NaN"):
                check_doubly_stochastic(w)

    def test_failing_matrix_raises_on_every_call(self):
        w = np.array([[0.7, 0.3], [0.5, 0.5]])
        for _ in range(3):
            with pytest.raises(ValueError, match="doubly stochastic"):
                check_doubly_stochastic(w)

    def test_matrix_mutated_after_passing_is_rejected(self):
        w = pairwise_matrix(1, 2, 3)
        check_doubly_stochastic(w)
        w[0, 0] = 0.7
        with pytest.raises(ValueError, match="doubly stochastic"):
            check_doubly_stochastic(w)
        w[0, 0] = 0.5
        check_doubly_stochastic(w)

    def test_pass_at_loose_tolerance_does_not_carry_over(self):
        w = np.array([[0.5 + 1e-9, 0.5], [0.5, 0.5 - 1e-9]])
        check_doubly_stochastic(w, tol=1e-6)
        with pytest.raises(ValueError, match="doubly stochastic"):
            check_doubly_stochastic(w, tol=1e-12)

    def test_shape_checked_before_the_cache(self):
        check_doubly_stochastic(np.eye(4))
        with pytest.raises(ValueError, match="square"):
            check_doubly_stochastic(np.eye(4).reshape(2, 8))
