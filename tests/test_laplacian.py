import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rasch
from rasch.errors import DisconnectedGraphError
from rasch.laplacian import (
    BtlWeights,
    WeightedLaplacian,
    build_count_laplacian,
    build_z_laplacian,
    pseudo_inverse,
    pseudo_inverse_trace,
    spectral_diagnostics,
)
from rasch.laplacian import _component_labels, _partition
from rasch.model import condition_numbers, sample_ground_truth, sample_responses, sigmoid_deriv
from rasch.pairing import PairedComparisons, compile_comparisons, random_split


def _pc(m, edges):
    """PairedComparisons from (i, j, count, wins_hi) tuples: ``count`` records
    on the pair, of which ``i`` won ``wins_hi`` (y = 0) and ``j`` the rest."""
    rec_i, rec_j, rec_y = [], [], []
    for i, j, c, w in edges:
        rec_i += [i] * c
        rec_j += [j] * c
        rec_y += [0] * int(w) + [1] * (c - int(w))
    return PairedComparisons(m=m, rec_i=rec_i, rec_j=rec_j, rec_t=[0] * len(rec_i), rec_y=rec_y)


def _from_edges(m, idx_i, idx_j, weights):
    """Weighted Laplacian of an edge list, assembled as a dense matrix."""
    W = np.zeros((m, m))
    np.add.at(W, (idx_i, idx_j), weights)
    np.add.at(W, (idx_j, idx_i), weights)
    return WeightedLaplacian(np.diag(W.sum(axis=1)) - W)


def _simulated_pc(n=4000, m=12, p=0.5, seed=0):
    gt = sample_ground_truth(n, m, "standard-normal", seed=seed)
    data = sample_responses(gt, p, seed=seed)
    return gt, compile_comparisons(data, random_split(data, seed))


class TestBuild:
    def test_single_edge_matrix(self):
        lap = build_count_laplacian(_pc(2, [(1, 0, 3, 2.0)]))
        np.testing.assert_array_equal(lap.matrix, [[3.0, -3.0], [-3.0, 3.0]])
        assert lap.connected

    def test_empty_graph(self):
        lap = build_count_laplacian(_pc(3, []))
        np.testing.assert_array_equal(lap.matrix, np.zeros((3, 3)))
        assert not lap.connected
        assert len(lap.components) == 3

    def test_complete_graph_spectrum(self):
        edges = [(i, j, 1, 0.0) for i in range(4) for j in range(i)]
        lap = build_count_laplacian(_pc(4, edges))
        # oracle: direct eigensolve of the assembled matrix
        np.testing.assert_allclose(np.linalg.eigvalsh(lap.matrix),
                                   [0.0, 4.0, 4.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(lap.spectrum, [4.0, 4.0, 4.0, 0.0], atol=1e-12)

    def test_z_weights_quarter_at_zero(self):
        pc = _pc(3, [(1, 0, 2, 1.0), (2, 1, 4, 2.0)])
        L = build_count_laplacian(pc)
        Lz = build_z_laplacian(pc, np.zeros(3))
        np.testing.assert_allclose(Lz.matrix, L.matrix / 4.0, atol=1e-15)

    def test_z_weight_log3(self):
        pc = _pc(2, [(1, 0, 1, 0.0)])
        theta = np.array([-0.5 * np.log(3.0), 0.5 * np.log(3.0)])
        Lz = build_z_laplacian(pc, theta)
        assert Lz.matrix[0, 1] == pytest.approx(-3.0 / 16.0, abs=1e-15)

    def test_z_weights_bounded_by_quarter(self):
        gt, pc = _simulated_pc(seed=3)
        Lz = build_z_laplacian(pc, gt.theta_star)
        off = -Lz.matrix[pc.edge_i, pc.edge_j] / pc.counts[pc.edge_i, pc.edge_j]
        assert np.all(off <= 0.25 + 1e-15)

    def test_z_range_with_condition_number(self):
        gt, pc = _simulated_pc(seed=5)
        kappa1 = condition_numbers(gt).kappa1
        w = BtlWeights.from_theta(gt.theta_star, zip(pc.edge_i, pc.edge_j))
        vals = np.asarray(list(w.z.values()))
        assert np.all(vals >= 1.0 / (4.0 * kappa1) - 1e-15)
        assert np.all(vals <= 0.25 + 1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_z_laplacian(_pc(3, [(1, 0, 1, 0.0)]), np.zeros(2))


class TestPseudoInverse:
    def test_two_node_trace(self):
        lap = _from_edges(2, [1], [0], [3.5])
        assert pseudo_inverse_trace(lap) == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_complete_graph_trace(self):
        for m in (3, 5, 17):
            ii, jj = np.triu_indices(m, k=1)
            lap = _from_edges(m, jj, ii, np.ones(ii.size))
            assert pseudo_inverse_trace(lap) == pytest.approx((m - 1) / m, rel=1e-12)

    def test_identity_and_eigen_paths_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.integers(3, 30)
            ii, jj = np.triu_indices(m, k=1)
            keep = rng.random(ii.size) < 0.6
            ii, jj = ii[keep], jj[keep]
            w = rng.uniform(0.1, 5.0, ii.size)
            lap = _from_edges(int(m), jj, ii, w)
            if not lap.connected:
                continue
            # the eigenvalue trace agrees with the trace of the rank-completion inverse
            P = pseudo_inverse(lap)
            a = float(np.trace(P))
            b = pseudo_inverse_trace(lap)
            assert a == pytest.approx(b, rel=1e-8)
            # pseudo-inverse itself annihilates the ones vector
            assert np.abs(P @ np.ones(int(m))).max() <= 1e-8
            # matrix identity path agrees with the eigendecomposition inverse
            lam, U = np.linalg.eigh(lap.matrix)
            P_eig = (U[:, 1:] / lam[1:]) @ U[:, 1:].T
            assert np.linalg.norm(P - P_eig) <= 1e-8 * max(1.0, np.linalg.norm(P_eig))

    def test_spectrum_inversion_relation(self):
        gt, pc = _simulated_pc(seed=7)
        lap = build_z_laplacian(pc, gt.theta_star)
        P = pseudo_inverse(lap)
        lam = np.sort(np.linalg.eigvalsh(lap.matrix))[1:]
        lam_inv = np.sort(np.linalg.eigvalsh(P))[1:]
        np.testing.assert_allclose(np.sort(1.0 / lam), lam_inv, rtol=1e-8)

    def test_disconnected_rejected(self):
        lap = _from_edges(4, [1, 3], [0, 2], [1.0, 1.0])
        with pytest.raises(DisconnectedGraphError) as err:
            pseudo_inverse_trace(lap)
        assert err.value.components == [[0, 1], [2, 3]]

    def test_trace_within_theory_bounds(self):
        # on a healthy simulated instance the trace sits between m/(2np)
        # and 16 kappa1 kappa2 m / (np)
        n, m, p = 10_000, 20, 0.1
        gt = sample_ground_truth(n, m, "standard-normal", seed=11)
        data = sample_responses(gt, p, seed=11)
        pc = compile_comparisons(data, random_split(data, 11))
        lap = build_z_laplacian(pc, gt.theta_star)
        tr = pseudo_inverse_trace(lap)
        cn = condition_numbers(gt)
        assert m / (2 * n * p) <= tr <= 16 * cn.kappa1 * cn.kappa2 * m / (n * p)

    def test_edge_addition_never_decreases_connectivity_eigenvalue(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = int(rng.integers(3, 10))
            ii, jj = np.triu_indices(m, k=1)
            w = rng.uniform(0.0, 2.0, ii.size)
            lap = _from_edges(m, jj, ii, w)
            lam_before = np.linalg.eigvalsh(lap.matrix)[1]
            k = int(rng.integers(ii.size))
            w2 = w.copy()
            w2[k] += rng.uniform(0.1, 3.0)
            lap2 = _from_edges(m, jj, ii, w2)
            lam_after = np.linalg.eigvalsh(lap2.matrix)[1]
            assert lam_after >= lam_before - 1e-10


class TestDiagnostics:
    def test_two_node_equality_case(self):
        lap = _from_edges(2, [1], [0], [2.0])
        # lambda_1 = 2w equals twice the max weighted degree exactly
        gt = sample_ground_truth(1, 2, "all-zeros", seed=0)
        report = spectral_diagnostics(lap, n=1, p=1.0, kappa=condition_numbers(gt))
        assert report.max_eigen_ok
        assert report.lambda_1 == pytest.approx(4.0)

    def test_max_eigen_bound_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = int(rng.integers(2, 15))
            ii, jj = np.triu_indices(m, k=1)
            keep = rng.random(ii.size) < 0.7
            w = rng.uniform(0.0, 4.0, keep.sum())
            lap = _from_edges(m, jj[keep], ii[keep], w)
            deg = lap.weighted_degrees()
            assert lap.spectrum[0] <= 2.0 * deg.max() + 1e-9

    def test_simulated_instance_passes_probabilistic_checks(self):
        n, m, p = 10_000, 50, 0.1
        gt = sample_ground_truth(n, m, "standard-normal", seed=13)
        data = sample_responses(gt, p, seed=13)
        pc = compile_comparisons(data, random_split(data, 13))
        report = spectral_diagnostics(build_count_laplacian(pc), n=n, p=p,
                                      kappa=condition_numbers(gt))
        assert report.spectral_ok and report.degree_ok and report.max_eigen_ok
        payload = json.loads(report.to_json())
        assert payload["m"] == m and payload["spectral_ok"] is True


def _components_reference(m, ei, ej):
    """Plain breadth-first search, kept independent of the library paths."""
    adj = {v: set() for v in range(m)}
    for a, b in zip(ei, ej):
        adj[int(a)].add(int(b))
        adj[int(b)].add(int(a))
    seen, out = set(), []
    for v in range(m):
        if v in seen:
            continue
        stack, comp = [v], []
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            comp.append(u)
            stack.extend(adj[u] - seen)
        out.append(sorted(comp))
    return sorted(out)


class TestComponents:
    @pytest.mark.parametrize("pad", [0, 600])  # small and large item counts
    def test_matches_bfs_reference(self, pad):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = int(rng.integers(2, 40)) + pad
            k = int(rng.integers(0, 3 * m))
            ei = rng.integers(0, m, k)
            ej = rng.integers(0, m, k)
            adj = np.zeros((m, m), dtype=bool)
            adj[ei, ej] = adj[ej, ei] = True
            labels = _component_labels(adj)
            want = _components_reference(m, ei, ej)
            assert _partition(labels) == want
            lap = WeightedLaplacian(-adj.astype(float))  # edges are the negative entries
            assert lap.connected == (len(want) == 1)
            assert [list(c) for c in lap.components] == want

    def test_empty_matrix_is_not_connected(self):
        lap = WeightedLaplacian(np.zeros((0, 0)))
        assert not lap.connected and lap.components == ()

    def test_hessian_builds_skip_connectivity_work(self):
        # connectivity is cached and only computed on demand
        lap = _from_edges(3, [1, 2], [0, 1], [1.0, 1.0])
        assert "connected" not in lap.__dict__ and "components" not in lap.__dict__
        assert lap.connected
        assert "connected" in lap.__dict__


def test_pseudo_inverse_trace_leaves_numpy_ma_unloaded():
    # the first np.unique of a process imports numpy.ma, about 14 ms
    env = dict(os.environ, PYTHONPATH=str(Path(rasch.__file__).parents[1]))
    code = ("import sys, numpy as np\n"
            "from rasch.laplacian import WeightedLaplacian, pseudo_inverse_trace\n"
            "lap = WeightedLaplacian(np.array([[1., -1, 0], [-1, 2, -1], [0, -1, 1]]))\n"
            "assert lap.connected and lap.components == ((0, 1, 2),)\n"
            "pseudo_inverse_trace(lap)\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
