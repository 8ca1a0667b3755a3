"""Laplacian, eigenbasis, energy embedding, and quantizer behavior."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from obsmap.graphs import graph_from_edges, random_regular
from obsmap.spectral import (
    DEGENERACY_TOL,
    EigenSolverError,
    EnergyEmbedding,
    SpectralBasis,
    codebook_size,
    empty_embedding,
    energy_embedding,
    low_frequency_basis,
    normalized_laplacian,
    quantize_absolute,
    quantize_relative,
    write_basis_tsv,
    write_embedding_tsv,
)

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def torus_graph(side: int):
    """side x side grid with wrap-around: 4-regular, highly repeated spectrum."""
    def vid(i, j):
        return (i % side) * side + (j % side)

    edges = [(vid(i, j), vid(i, j + 1)) for i in range(side) for j in range(side)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(side) for j in range(side)]
    return graph_from_edges(side * side, edges)


def dense_oracle(lap, count):
    """Bottom `count` eigenpairs from LAPACK, signs canonicalized as the
    library does."""
    vals, vecs = scipy.linalg.eigh(lap.toarray(), subset_by_index=(0, count - 1))
    for j in range(count):
        nz = np.flatnonzero(np.abs(vecs[:, j]) > 1e-12)
        if nz.size and vecs[nz[0], j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vals, vecs


def multiplicities(vals) -> list[int]:
    """Sizes of the runs of eigenvalues tied within DEGENERACY_TOL."""
    runs = [1]
    for gap in np.diff(vals):
        if gap < DEGENERACY_TOL:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


def solved_values(basis: SpectralBasis) -> np.ndarray:
    """Retained eigenvalues plus the first dropped one."""
    return np.append(basis.eigenvalues, basis.next_eigenvalue)


def make_embedding(values, scaled=False) -> EnergyEmbedding:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return EnergyEmbedding(values=arr, scaled=scaled)


class TestNormalizedLaplacian:
    def test_p2_closed_form(self):
        lap = normalized_laplacian(path_graph(2)).toarray()
        assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_regular_graph_is_identity_minus_scaled_adjacency(self):
        g = cycle_graph(6)
        lap = normalized_laplacian(g).toarray()
        adj = np.zeros((6, 6))
        for u, nbrs in enumerate(g.adjacency):
            adj[u, list(nbrs)] = 1.0
        assert np.allclose(lap, np.eye(6) - adj / 2.0)

    def test_symmetry(self):
        lap = normalized_laplacian(random_connected_graph(11)).toarray()
        assert np.allclose(lap, lap.T)

    def test_isolated_vertex_rejected(self):
        from obsmap.graphs import graph_from_edges

        with pytest.raises(ValueError, match="isolated"):
            normalized_laplacian(graph_from_edges(3, [(0, 1)]))


@pytest.fixture(scope="module")
def cycle3000():
    """C_3000 Laplacian and its Lanczos basis at m=5 (every nontrivial
    eigenvalue doubled)."""
    lap = normalized_laplacian(cycle_graph(3000))
    return lap, low_frequency_basis(lap, 5)


class TestLowFrequencyBasis:
    def test_p2_closed_form(self):
        basis = low_frequency_basis(normalized_laplacian(path_graph(2)), 1)
        assert basis.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)
        s = 1.0 / math.sqrt(2.0)
        assert basis.vectors[:, 1] == pytest.approx([s, -s], abs=1e-12)
        assert not basis.degeneracy_flag

    def test_trivial_vector_is_degree_weighted(self):
        # The zero eigenvector of the normalized Laplacian is proportional
        # to sqrt(deg); on a regular graph that is the constant vector.
        basis = low_frequency_basis(normalized_laplacian(cycle_graph(8)), 0)
        assert basis.eigenvalues[0] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(basis.vectors[:, 0], 1.0 / math.sqrt(8.0))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_spectral_invariants(self, seed):
        g = random_connected_graph(seed, n_max=50)
        m = min(3, g.n - 1)
        basis = low_frequency_basis(normalized_laplacian(g), m)
        vals = basis.eigenvalues
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] <= 1e-9
        assert np.all(vals >= -1e-9) and np.all(vals <= 2.0 + 1e-9)
        if m >= 1:
            # connected graph: the zero eigenvalue is simple
            assert vals[1] > 1e-9
        gram = basis.vectors.T @ basis.vectors
        assert np.allclose(gram, np.eye(m + 1), atol=1e-8)

    def test_c4_degenerate_pair_is_flagged(self):
        basis = low_frequency_basis(normalized_laplacian(cycle_graph(4)), 2)
        assert basis.eigenvalues[1] == pytest.approx(1.0, abs=1e-9)
        assert basis.eigenvalues[2] == pytest.approx(1.0, abs=1e-9)
        assert basis.degeneracy_flag

    def test_path_spectrum_is_simple(self):
        basis = low_frequency_basis(normalized_laplacian(path_graph(9)), 4)
        assert not basis.degeneracy_flag

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            low_frequency_basis(normalized_laplacian(path_graph(3)), 3)

    def test_negative_m(self):
        with pytest.raises(ValueError):
            low_frequency_basis(normalized_laplacian(path_graph(3)), -1)

    def test_sparse_solver_matches_dense(self):
        # n above the dense cutoff routes through the iterative solver; the
        # path graph has a simple spectrum, so canonicalized vectors agree.
        import scipy.linalg

        g = path_graph(2050)
        lap = normalized_laplacian(g)
        basis = low_frequency_basis(lap, 2)
        ref_vals, ref_vecs = scipy.linalg.eigh(lap.toarray(), subset_by_index=(0, 2))
        assert basis.eigenvalues == pytest.approx(ref_vals, abs=1e-8)
        for j in range(3):
            col = ref_vecs[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            if nz.size and col[nz[0]] < 0:
                col = -col
            assert np.max(np.abs(basis.vectors[:, j] - col)) < 1e-7

    def test_lanczos_matches_dense_oracle_on_cubic_graph(self):
        lap = normalized_laplacian(random_regular(3000, 3, 11))
        basis = low_frequency_basis(lap, 5)
        ref_vals, ref_vecs = dense_oracle(lap, 7)
        assert np.max(np.abs(solved_values(basis) - ref_vals)) < 1e-10
        oracle = SpectralBasis(
            eigenvalues=ref_vals[:6], vectors=ref_vecs[:, :6], degeneracy_flag=False
        )
        for eta in (0.1, 0.3, 1.0, 2.0):
            ours = quantize_absolute(energy_embedding(basis, 5, scaled=True), eta)
            theirs = quantize_absolute(energy_embedding(oracle, 5, scaled=True), eta)
            assert np.array_equal(ours.codes, theirs.codes), eta

    @pytest.mark.parametrize("side", [None, 60], ids=["cycle3000", "torus60x60"])
    def test_repeated_eigenvalues_match_oracle_and_flag(self, side, cycle3000):
        if side is None:
            lap, basis = cycle3000
        else:
            lap = normalized_laplacian(torus_graph(side))
            basis = low_frequency_basis(lap, 5)
        ref_vals, ref_vecs = dense_oracle(lap, 7)
        ours = solved_values(basis)
        assert np.max(np.abs(ours - ref_vals)) < 1e-10
        assert multiplicities(ours) == multiplicities(ref_vals)
        assert max(multiplicities(ours)) > 1
        assert basis.degeneracy_flag
        # Columns 1..4 span whole eigenspaces in both spectra (cycle: two
        # pairs; torus: one quadruple), so the spans agree across solvers.
        overlap = ref_vecs[:, 1:5].T @ basis.vectors[:, 1:5]
        assert np.allclose(np.linalg.svd(overlap, compute_uv=False), 1.0, atol=1e-8)

    def test_boundary_tie_is_flagged(self):
        # On a cycle lambda_1 = lambda_2: at m=1 the only tie is between the
        # last kept and the first dropped eigenvalue.
        basis = low_frequency_basis(normalized_laplacian(cycle_graph(12)), 1)
        assert basis.eigenvalues.shape == (2,)
        assert basis.vectors.shape == (12, 2)
        assert basis.next_eigenvalue == pytest.approx(basis.eigenvalues[1], abs=1e-12)
        assert basis.degeneracy_flag
        # the path has a simple spectrum, so the same cut is unflagged
        assert not low_frequency_basis(normalized_laplacian(path_graph(12)), 1).degeneracy_flag

    def test_boundary_tie_is_flagged_in_lanczos_slices(self, cycle3000):
        # Cycle spectrum 0, a, a, b, b, c, c: odd m ends inside a pair (a
        # boundary tie), even m keeps a whole pair.
        _, full = cycle3000
        for m in range(1, 5):
            cut = full.leading(m)
            assert cut.eigenvalues.shape == (m + 1,)
            assert cut.vectors.shape == (3000, m + 1)
            assert cut.next_eigenvalue == full.eigenvalues[m + 1]
            assert cut.degeneracy_flag
        one = full.leading(1)
        assert one.next_eigenvalue - one.eigenvalues[1] < DEGENERACY_TOL

    def test_leading_matches_fresh_solve(self):
        lap = normalized_laplacian(random_regular(600, 3, 4))
        full = low_frequency_basis(lap, 5)
        for m in range(6):
            fresh = low_frequency_basis(lap, m)
            cut = full.leading(m)
            assert cut.degeneracy_flag == fresh.degeneracy_flag
            assert cut.next_eigenvalue == pytest.approx(fresh.next_eigenvalue, abs=1e-10)
            assert np.allclose(cut.eigenvalues, fresh.eigenvalues, atol=1e-10)
            assert np.allclose(cut.vectors, fresh.vectors, atol=1e-7)
        with pytest.raises(ValueError):
            full.leading(6)

    def test_no_extra_pair_when_basis_is_full(self):
        basis = low_frequency_basis(normalized_laplacian(path_graph(5)), 4)
        assert basis.next_eigenvalue is None
        assert basis.vectors.shape == (5, 5)

    def test_repeated_calls_are_bit_identical(self):
        lap = normalized_laplacian(random_regular(3000, 3, 11))
        a = low_frequency_basis(lap, 5)
        b = low_frequency_basis(lap, 5)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.next_eigenvalue == b.next_eigenvalue

    def test_large_k_relative_to_n_solves_densely(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("Lanczos called for k near n")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", unexpected)
        lap = normalized_laplacian(path_graph(500))
        basis = low_frequency_basis(lap, 200)
        ref_vals, _ = dense_oracle(lap, 202)
        assert np.max(np.abs(solved_values(basis) - ref_vals)) < 1e-10

    def test_no_convergence_becomes_solver_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(EigenSolverError, match="did not converge"):
            low_frequency_basis(normalized_laplacian(random_regular(600, 3, 1)), 2)

    def test_residual_contract_enforced(self, monkeypatch):
        real = scipy.sparse.linalg.eigsh

        def sloppy(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals + 1e-6, vecs

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", sloppy)
        with pytest.raises(EigenSolverError, match="residual"):
            low_frequency_basis(normalized_laplacian(random_regular(600, 3, 1)), 2)

    def test_accepts_dense_input(self):
        lap = normalized_laplacian(path_graph(5))
        a = low_frequency_basis(lap, 2)
        b = low_frequency_basis(lap.toarray(), 2)
        assert np.allclose(a.vectors, b.vectors, atol=1e-10)


class TestEnergyEmbedding:
    def test_p2_values(self):
        basis = low_frequency_basis(normalized_laplacian(path_graph(2)), 1)
        emb = energy_embedding(basis, 1, scaled=False)
        assert np.allclose(emb.values, [[0.5], [0.5]], atol=1e-12)
        scaled = energy_embedding(basis, 1, scaled=True)
        assert np.allclose(scaled.values, [[1.0], [1.0]], atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_column_normalization(self, seed):
        g = random_connected_graph(seed, n_max=40)
        m = min(3, g.n - 1)
        basis = low_frequency_basis(normalized_laplacian(g), m)
        emb = energy_embedding(basis, m, scaled=False)
        assert np.all(emb.values >= 0.0)
        assert emb.values.sum(axis=0) == pytest.approx(np.ones(m), abs=1e-10)
        scaled = energy_embedding(basis, m, scaled=True)
        assert scaled.values.mean(axis=0) == pytest.approx(np.ones(m), abs=1e-10)

    def test_m_prefix_of_basis(self):
        basis = low_frequency_basis(normalized_laplacian(path_graph(8)), 3)
        full = energy_embedding(basis, 3, scaled=False)
        prefix = energy_embedding(basis, 2, scaled=False)
        assert np.array_equal(prefix.values, full.values[:, :2])

    def test_m_beyond_basis_rejected(self):
        basis = low_frequency_basis(normalized_laplacian(path_graph(8)), 2)
        with pytest.raises(ValueError):
            energy_embedding(basis, 3, scaled=False)

    def test_empty_embedding(self):
        emb = empty_embedding(7, scaled=True)
        assert emb.values.shape == (7, 0)
        assert emb.scaled

    def test_sign_flip_leaves_embedding_unchanged(self):
        basis = low_frequency_basis(normalized_laplacian(random_connected_graph(42)), 2)
        flipped_vecs = basis.vectors.copy()
        flipped_vecs[:, 1] *= -1.0
        flipped_vecs.setflags(write=False)
        flipped = SpectralBasis(
            eigenvalues=basis.eigenvalues,
            vectors=flipped_vecs,
            degeneracy_flag=basis.degeneracy_flag,
        )
        a = energy_embedding(basis, 2, scaled=True)
        b = energy_embedding(flipped, 2, scaled=True)
        assert np.array_equal(a.values, b.values)


class TestQuantizeAbsolute:
    def test_floor_rule(self):
        codes = quantize_absolute(make_embedding([[0.74], [1.5]]), 0.5)
        assert codes.codes.tolist() == [[1], [3]]
        assert codes.rule == "absolute"
        assert codes.delta == 0.5

    def test_coarse_step_collapses(self):
        codes = quantize_absolute(make_embedding([[0.9], [0.3]]), 1.5)
        assert codes.codes.tolist() == [[0], [0]]

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            quantize_absolute(make_embedding([[1.0]]), 0.0)
        with pytest.raises(ValueError):
            quantize_absolute(make_embedding([[1.0]]), -0.1)

    def test_empty_embedding(self):
        codes = quantize_absolute(empty_embedding(4, scaled=False), 0.5)
        assert codes.codes.shape == (4, 0)


class TestQuantizeRelative:
    def test_step_from_max_entry(self):
        emb = make_embedding([[0.8], [0.2], [0.1]])
        codes = quantize_relative(emb, 0.5)
        assert codes.delta == pytest.approx(0.4)
        # 0.2 / 0.4 = 0.5 rounds away from zero
        assert codes.codes.tolist() == [[2], [1], [0]]

    def test_all_zero_embedding(self):
        codes = quantize_relative(make_embedding([[0.0], [0.0]]), 0.5)
        assert codes.codes.tolist() == [[0], [0]]
        assert codes.delta == 0.0

    def test_empty_embedding(self):
        codes = quantize_relative(empty_embedding(3, scaled=False), 0.5)
        assert codes.codes.shape == (3, 0)
        assert codes.delta == 0.0

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            quantize_relative(make_embedding([[1.0]]), 0.0)

    def test_halving_eta_does_not_coarsen(self):
        # Rounding makes strict monotonicity unprovable in general; these
        # sampled instances are asserted as a frozen regression.
        for seed in range(20):
            g = random_connected_graph(seed, n_min=10, n_max=40)
            m = min(3, g.n - 1)
            basis = low_frequency_basis(normalized_laplacian(g), m)
            emb = energy_embedding(basis, m, scaled=False)
            sizes = [
                codebook_size(quantize_relative(emb, eta))
                for eta in (0.8, 0.4, 0.2, 0.1, 0.05)
            ]
            assert sizes == sorted(sizes), (seed, sizes)


class TestCodebookSize:
    def test_m0_is_one(self):
        assert codebook_size(quantize_absolute(empty_embedding(9, False), 0.5)) == 1

    def test_distinct_rows(self):
        emb = make_embedding([[0.1, 0.9], [0.1, 0.9], [0.9, 0.1]])
        assert codebook_size(quantize_absolute(emb, 0.5)) == 2

    def test_fine_step_mean_on_regular_instances(self):
        # 20 cubic graphs at n=500, m=5, scaled floor step 0.1: nearly every
        # vertex keeps a distinct code, mean sits just under n.
        sizes = []
        for seed in range(1000, 1020):
            g = random_regular(500, 3, seed)
            basis = low_frequency_basis(normalized_laplacian(g), 5)
            emb = energy_embedding(basis, 5, scaled=True)
            sizes.append(codebook_size(quantize_absolute(emb, 0.1)))
        mean = sum(sizes) / len(sizes)
        assert mean == pytest.approx(499.45, rel=0.02)


class TestTsvWriters:
    def test_basis_tsv(self, tmp_path):
        basis = low_frequency_basis(normalized_laplacian(path_graph(3)), 1)
        path = tmp_path / "basis.tsv"
        write_basis_tsv(basis, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "vertex\teigenvalue_index\tvalue"
        assert len(lines) == 1 + 3 * 2
        assert lines[1].startswith("0\t0\t")

    def test_embedding_tsv_indexes_from_one(self, tmp_path):
        basis = low_frequency_basis(normalized_laplacian(path_graph(3)), 2)
        emb = energy_embedding(basis, 2, scaled=False)
        path = tmp_path / "emb.tsv"
        write_embedding_tsv(emb, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "vertex\teigenvalue_index\tvalue"
        assert len(lines) == 1 + 3 * 2
        assert lines[1].split("\t")[:2] == ["0", "1"]


def test_star_center_has_zero_energy():
    # The star's first nontrivial eigenvector vanishes at the hub, a handy
    # fixed point for the energy map.
    basis = low_frequency_basis(normalized_laplacian(star_graph(4)), 1)
    emb = energy_embedding(basis, 1, scaled=False)
    assert emb.values[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_complete_graph_leaf_energies_sum_to_one():
    basis = low_frequency_basis(normalized_laplacian(complete_graph(5)), 2)
    emb = energy_embedding(basis, 2, scaled=False)
    assert emb.values.sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-10)
