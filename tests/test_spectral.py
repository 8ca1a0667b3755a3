"""Laplacian, eigenbasis, energy embedding, and quantizer behavior."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from obsmap.graphs import (
    ConnectivityError,
    graph_from_edges,
    largest_connected_component,
    random_regular,
)
from obsmap.spectral import (
    _START_SEED,
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
    _ChebyshevFilter,
)
from obsmap import spectral

from test_graphs import graphs_of_every_shape

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
        for u, v in g.edges():
            adj[u, v] = adj[v, u] = 1.0
        assert np.allclose(lap, np.eye(6) - adj / 2.0)

    def test_symmetry(self):
        lap = normalized_laplacian(random_connected_graph(11)).toarray()
        assert np.allclose(lap, lap.T)

    def test_isolated_vertex_rejected(self):
        from obsmap.graphs import ConnectivityError, graph_from_edges

        with pytest.raises(ConnectivityError, match="vertex 2 is isolated"):
            normalized_laplacian(graph_from_edges(3, [(0, 1)]))


def composed_laplacian(g) -> sp.csr_matrix:
    """I - D^(-1/2) A D^(-1/2) composed in scipy's sparse algebra."""
    scale = sp.diags(1.0 / np.sqrt(g.degrees().astype(np.float64)))
    return sp.csr_matrix(sp.identity(g.n, format="csr") - scale @ g.to_sparse() @ scale)


def composed_filter(lap, center: float, radius: float) -> sp.csr_matrix:
    """2S = (2 center / radius) I - (2 / radius) lap in scipy's sparse algebra."""
    n = lap.shape[0]
    shift = (2.0 * center / radius) * sp.identity(n, format="csr")
    return sp.csr_matrix(shift - (2.0 / radius) * lap)


def assert_same_csr(got, want) -> None:
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.tobytes() == want.data.tobytes()


@st.composite
def shifted_operands(draw):
    """A canonical CSR square matrix and a shift. Rows may be empty, the
    diagonal is stored nowhere, somewhere or everywhere, and some stored
    diagonal entries are -shift, so that their sum is zero."""
    n = draw(st.integers(0, 30))
    shift = draw(st.sampled_from((0.0, 1.0, 2.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = rng.random((n, n)) < draw(st.sampled_from((0.0, 0.2, 0.6)))
    diagonal = draw(st.sampled_from(("none", "some", "all")))
    np.fill_diagonal(stored, {"none": False, "some": rng.random(n) < 0.5, "all": True}[diagonal])
    values = rng.normal(size=(n, n))
    np.fill_diagonal(values, np.where(rng.random(n) < 0.3, -shift, values.diagonal()))
    a = sp.csr_matrix((values[stored], np.nonzero(stored)), shape=(n, n))
    assert a.has_canonical_format
    return a, shift


@given(shifted_operands())
@settings(max_examples=200, deadline=None)
def test_shifted_equals_sparse_sum(drawn):
    a, shift = drawn
    got = spectral._shifted(a, a.data.copy(), shift)
    assert got.has_canonical_format
    assert_same_csr(got, sp.csr_matrix(shift * sp.identity(a.shape[0], format="csr") + a))


class TestOperatorsFromArrays:
    """normalized_laplacian and the filter's 2S, built from CSR arrays,
    equal the sparse algebra they replace bit for bit."""

    @given(graphs_of_every_shape(), st.sampled_from((0.0, 0.3, 0.6)))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_sparse_algebra(self, g, cut):
        isolated = np.flatnonzero(g.degrees() == 0)
        if isolated.size:
            with pytest.raises(ConnectivityError, match=f"^vertex {isolated[0]} is isolated$"):
                normalized_laplacian(g)
            return
        lap = normalized_laplacian(g)
        assert_same_csr(lap, composed_laplacian(g))
        # cut 0 puts zeros on the diagonal of 2S, which the sum drops.
        center, radius = 1.0 + cut / 2.0, 1.0 - cut / 2.0
        assert_same_csr(_ChebyshevFilter(lap, center, radius, 8)._twice,
                        composed_filter(lap, center, radius))
        # An operator missing some diagonal entries, as it is and with each
        # row's entries reversed, which the sum leaves in its own order.
        partial = sp.csr_matrix(lap.multiply(g.to_sparse() + sp.identity(g.n) * (g.n > 2)))
        want = composed_filter(partial, center, radius)
        assert_same_csr(_ChebyshevFilter(partial, center, radius, 8)._twice, want)
        ptr = partial.indptr.tolist()
        order = [i for a, b in zip(ptr, ptr[1:]) for i in reversed(range(a, b))]
        reversed_rows = sp.csr_matrix(
            (partial.data[order], partial.indices[order], partial.indptr), shape=partial.shape)
        got = _ChebyshevFilter(reversed_rows, center, radius, 8)._twice
        assert got.has_canonical_format
        assert got.toarray().tobytes() == want.toarray().tobytes()


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
        # boundary tie), even m keeps a whole pair. Each embedding cut from
        # the m=5 basis is flagged as a fresh solve at its m is.
        lap, full = cycle3000
        assert full.eigenvalues[2] - full.eigenvalues[1] < DEGENERACY_TOL
        for m in range(1, 5):
            emb = energy_embedding(full, m, True)
            assert emb.values.shape == (3000, m)
            assert emb.degenerate
            assert emb.degenerate == low_frequency_basis(lap, m).degeneracy_flag

    def test_embedding_cut_matches_fresh_solve(self):
        lap = normalized_laplacian(random_regular(600, 3, 4))
        full = low_frequency_basis(lap, 5)
        for m in range(6):
            fresh = low_frequency_basis(lap, m)
            assert energy_embedding(full, m, True).degenerate == fresh.degeneracy_flag
            cut = energy_embedding(full, m, False).values
            assert np.allclose(cut, energy_embedding(fresh, m, False).values, atol=1e-7)
        with pytest.raises(ValueError):
            energy_embedding(full, 6, True)

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

    def test_arpack_error_becomes_solver_error(self, monkeypatch):
        def no_shifts(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(3)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_shifts)
        with pytest.raises(EigenSolverError, match="ARPACK error 3"):
            low_frequency_basis(normalized_laplacian(random_regular(600, 3, 1)), 2)

    @pytest.mark.skipif(not spectral._EIGSH_TAKES_RNG, reason="eigsh draws its own restarts")
    @pytest.mark.parametrize("name", ["complete450", "star450", "barbell2x250"])
    def test_breakdown_restarts_are_seeded(self, name):
        # The Krylov space of these breaks down, so ARPACK restarts from
        # random vectors; each call must draw the same ones.
        lap = normalized_laplacian(PARITY_GRAPHS[name]())
        first, again = low_frequency_basis(lap, 5), low_frequency_basis(lap, 5)
        assert first.vectors.tobytes() == again.vectors.tobytes()
        assert first.eigenvalues.tobytes() == again.eigenvalues.tobytes()

    def test_residual_contract_enforced(self, monkeypatch):
        # Eigenvalues are Rayleigh quotients of the returned vectors, so the
        # perturbation goes into the vectors.
        real = scipy.sparse.linalg.eigsh
        noise = np.random.default_rng(3)

        def sloppy(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals, vecs + 1e-6 * noise.standard_normal(vecs.shape)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", sloppy)
        with pytest.raises(EigenSolverError, match="residual"):
            low_frequency_basis(normalized_laplacian(random_regular(600, 3, 1)), 2)

    def test_cut_below_wanted_eigenvalue_raises(self, monkeypatch):
        # A filter cut between the 5th and 6th smallest eigenvalues leaves
        # one of the 6 wanted pairs in the damped band.
        lap = normalized_laplacian(random_regular(600, 3, 1))
        vals, _ = dense_oracle(lap, 6)
        monkeypatch.setattr(spectral, "_ritz_cut", lambda *args: float(vals[4] + vals[5]) / 2.0)
        with pytest.raises(EigenSolverError, match="filter cut"):
            low_frequency_basis(lap, 4)

    @pytest.mark.parametrize("degree", [1, 2, 3, 8])
    @pytest.mark.parametrize("graph", [
        lambda: random_regular(500, 3, 7),
        lambda: random_regular(2000, 3, 8),
        lambda: cycle_graph(3000),
        lambda: star_graph(449),
    ], ids=["cubic500", "cubic2000", "cycle3000", "star450"])
    def test_filter_matvec_matches_sparse_reference(self, graph, degree):
        lap = normalized_laplacian(graph())
        n = lap.shape[0]
        center, radius = 1.1, 0.9
        s = (center * sp.identity(n, format="csr") - lap) / radius
        x = np.random.default_rng(5).uniform(-1.0, 1.0, n)
        prev, cur = x, s @ x
        for _ in range(degree - 1):
            prev, cur = cur, 2.0 * (s @ cur) - prev
        got = _ChebyshevFilter(lap, center, radius, degree).matvec(x)
        assert np.max(np.abs(got - cur)) <= 1e-12 * np.max(np.abs(cur))

    def test_degree_one_filter_is_the_shifted_operator(self):
        # The fallback operator reproduces 2I - L bit for bit.
        lap = normalized_laplacian(random_regular(2000, 3, 8))
        x = np.random.default_rng(_START_SEED).uniform(-1.0, 1.0, 2000)
        shifted = 2.0 * sp.identity(2000, format="csr") - lap
        assert np.array_equal(_ChebyshevFilter(lap, 2.0, 1.0, 1).matvec(x), shifted @ x)

    def test_accepts_dense_input(self):
        lap = normalized_laplacian(path_graph(5))
        a = low_frequency_basis(lap, 2)
        b = low_frequency_basis(lap.toarray(), 2)
        assert np.allclose(a.vectors, b.vectors, atol=1e-10)


def blas_thread_counts() -> list[int]:
    return [getter() for getter, _ in spectral._openblas_controls()]


@pytest.fixture
def two_blas_threads():
    """Every bundled OpenBLAS set to 2 threads for the test, then reset."""
    controls = spectral._openblas_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS thread setter is loaded")
    saved = blas_thread_counts()
    for _, setter in controls:
        setter(2)
    yield
    for (_, setter), count in zip(controls, saved):
        setter(count)


# Reads the thread count of each bundled OpenBLAS before and after
# `import obsmap`, without obsmap's own lookup, and checks that the import
# looked nothing up.
IMPORT_PROBE = """
import ctypes, glob, os
import numpy, scipy, scipy.linalg, scipy.sparse.linalg

def counts():
    out = []
    if not hasattr(os, "RTLD_NOLOAD"):
        return out
    for pkg in (numpy, scipy):
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        for path in sorted(glob.glob(os.path.join(site, pkg.__name__ + ".libs", "*openblas*"))):
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            for name in ("scipy_openblas_get_num_threads",
                         "scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, name):
                    out.append(getattr(lib, name)())
                    break
    return out

before = counts()
import obsmap
from obsmap import spectral
assert spectral._openblas_controls.cache_info().currsize == 0, "import looked up BLAS"
assert counts() == before, (before, counts())
"""


class TestBlasThreadPin:
    def test_solves_run_on_one_thread(self, monkeypatch, two_blas_threads):
        seen = []

        def recording(solver):
            def run(*args, **kwargs):
                seen.append((solver.__name__, blas_thread_counts()))
                return solver(*args, **kwargs)
            return run

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording(scipy.sparse.linalg.eigsh))
        monkeypatch.setattr(scipy.linalg, "eigh", recording(scipy.linalg.eigh))
        low_frequency_basis(normalized_laplacian(random_regular(600, 3, 1)), 5)
        low_frequency_basis(normalized_laplacian(random_regular(200, 3, 1)), 5)
        assert [name for name, _ in seen] == ["eigsh", "eigh"]
        assert all(set(counts) == {1} for _, counts in seen)

    def test_count_restored_after_solve(self, two_blas_threads):
        low_frequency_basis(normalized_laplacian(random_regular(600, 3, 1)), 5)
        low_frequency_basis(normalized_laplacian(random_regular(200, 3, 1)), 5)
        assert set(blas_thread_counts()) == {2}

    def test_count_restored_after_solver_error(self, monkeypatch, two_blas_threads):
        def stalled(*args, **kwargs):
            assert set(blas_thread_counts()) == {1}
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(EigenSolverError, match="did not converge"):
            low_frequency_basis(normalized_laplacian(random_regular(600, 3, 1)), 2)
        assert set(blas_thread_counts()) == {2}

    def test_nested_pins_restore_the_outer_count(self, two_blas_threads):
        with spectral._one_blas_thread:
            with spectral._one_blas_thread:
                assert set(blas_thread_counts()) == {1}
            assert set(blas_thread_counts()) == {1}
        assert set(blas_thread_counts()) == {2}

    def test_concurrent_pins_keep_one_thread_and_restore(self, two_blas_threads):
        inside: list[list[int]] = []

        def pin_repeatedly():
            for _ in range(300):
                with spectral._one_blas_thread:
                    inside.append(blas_thread_counts())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=pin_repeatedly) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(inside) == 6 * 300
        assert all(set(counts) == {1} for counts in inside)
        assert set(blas_thread_counts()) == {2}

    def test_import_leaves_thread_state_alone(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(spectral.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("n", [2000, 6000])
    def test_basis_bit_identical_without_pin(self, monkeypatch, two_blas_threads, n):
        lap = normalized_laplacian(random_regular(n, 3, 0))
        pinned = low_frequency_basis(lap, 5)
        monkeypatch.setattr(spectral, "_openblas_controls", lambda: ())
        unpinned = low_frequency_basis(lap, 5)
        assert np.array_equal(pinned.eigenvalues, unpinned.eigenvalues)
        assert np.array_equal(pinned.vectors, unpinned.vectors)
        assert pinned.next_eigenvalue == unpinned.next_eigenvalue


def barbell_graph(clique: int):
    """Two copies of K_clique joined by one edge."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(clique + i, clique + j) for i, j in edges]
    return graph_from_edges(2 * clique, edges + [(clique - 1, clique)])


def shifted_reference(lap, m):
    """The Lanczos solve the Chebyshev filter replaced: ARPACK on 2I - L
    from the seeded start at tol=0, with restarts drawn from the same seeded
    generator, for the bottom m+2 pairs, signs canonicalized as the library
    does. Returns the m+2 eigenvalues, the retained m+1 vectors and the
    degeneracy flag."""
    n = lap.shape[0]
    shifted = 2.0 * sp.identity(n, format="csr") - sp.csr_matrix(lap)
    rng = np.random.default_rng(_START_SEED)
    start = rng.uniform(-1.0, 1.0, n)
    restarts = {"rng": rng} if spectral._EIGSH_TAKES_RNG else {}
    top, vecs = scipy.sparse.linalg.eigsh(
        shifted, k=m + 2, which="LA", v0=start, tol=0, **restarts)
    vals = 2.0 - top
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    for j in range(m + 1):
        nz = np.flatnonzero(np.abs(vecs[:, j]) > 1e-12)
        if nz.size and vecs[nz[0], j] < 0:
            vecs[:, j] = -vecs[:, j]
    nontrivial = vals[1:]
    flag = bool(np.any(np.diff(nontrivial) < DEGENERACY_TOL * np.maximum(1.0, nontrivial[1:])))
    return vals, vecs[:, : m + 1], flag


PARITY_GRAPHS = {
    "cubic6000": lambda: random_regular(6000, 3, 0),
    "cubic20000": lambda: random_regular(20000, 3, 0),
    "cycle3000": lambda: cycle_graph(3000),
    "torus60x60": lambda: torus_graph(60),
    "path2050": lambda: path_graph(2050),
    "complete450": lambda: complete_graph(450),
    "star450": lambda: star_graph(449),
    "barbell2x250": lambda: barbell_graph(250),
}


def einsum_ritz_cut(lap, start, k):
    """The bound pass with every product in einsum and lap @ q through scipy:
    the cut the library computed before its products moved to BLAS."""
    steps = max(spectral._BOUND_STEPS, 2 * k)
    block = np.empty((steps, lap.shape[0]))
    alpha = np.empty(steps)
    beta = np.empty(steps - 1)
    q = start / np.sqrt(np.einsum("i,i->", start, start))
    for j in range(steps):
        block[j] = q
        w = lap @ q
        alpha[j] = 0.0
        for _ in range(2):
            coef = np.einsum("ij,j->i", block[: j + 1], w)
            w -= np.einsum("ij,i->j", block[: j + 1], coef)
            alpha[j] += coef[j]
        if j + 1 == steps:
            break
        beta[j] = np.sqrt(np.einsum("i,i->", w, w))
        if beta[j] < spectral.RESIDUAL_TOL:
            return None
        q = w / beta[j]
    cut = float(scipy.linalg.eigh_tridiagonal(alpha, beta, eigvals_only=True)[k])
    return cut if cut <= spectral._MAX_CUT else None


@pytest.mark.parametrize("name", [
    "cubic500", "cubic2000", "cubic6000", "cycle3000", "torus60x60",
    "complete450", "star450", "barbell2x250",
])
def test_ritz_cut_matches_einsum_reference(name):
    graph = {
        "cubic500": lambda: random_regular(500, 3, 0),
        "cubic2000": lambda: random_regular(2000, 3, 0),
        **PARITY_GRAPHS,
    }[name]()
    lap = normalized_laplacian(graph)
    start = np.random.default_rng(_START_SEED).uniform(-1.0, 1.0, lap.shape[0])
    k = 7  # the pairs low_frequency_basis solves at m = 5
    want = einsum_ritz_cut(lap, start, k)
    with spectral._one_blas_thread:
        got = spectral._ritz_cut(lap, start, k)
    if name in ("complete450", "star450", "barbell2x250"):
        # The Krylov space of these breaks down within the pass.
        assert want is None and got is None
    else:
        assert want is not None
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", list(PARITY_GRAPHS))
def test_filtered_solve_matches_shifted_solve(name):
    m = 5
    lap = normalized_laplacian(PARITY_GRAPHS[name]())
    ref_vals, ref_vecs, ref_flag = shifted_reference(lap, m)
    basis = low_frequency_basis(lap, m)
    assert np.max(np.abs(solved_values(basis) - ref_vals)) < 1e-10
    assert basis.degeneracy_flag == ref_flag
    assert basis.next_eigenvalue == pytest.approx(ref_vals[-1], abs=1e-10)
    # Compare the retained columns up to the last eigenvalue gap, so that
    # both spans consist of whole eigenspaces.
    gaps = np.diff(ref_vals) >= DEGENERACY_TOL * np.maximum(1.0, ref_vals[1:])
    whole = 1 + int(np.flatnonzero(gaps)[-1])
    overlap = ref_vecs[:, :whole].T @ basis.vectors[:, :whole]
    assert np.allclose(np.linalg.svd(overlap, compute_uv=False), 1.0, atol=1e-8)
    if all(run == 1 for run in multiplicities(ref_vals)):
        reference = SpectralBasis(eigenvalues=ref_vals[:-1], vectors=ref_vecs, degeneracy_flag=ref_flag)
        for eta in (0.1, 0.3, 1.0, 2.0):
            ours = quantize_absolute(energy_embedding(basis, m, scaled=True), eta)
            theirs = quantize_absolute(energy_embedding(reference, m, scaled=True), eta)
            assert np.array_equal(ours.codes, theirs.codes), eta


def sampled_graph(n: int, mean_degree: int, seed: int, weights=None):
    """Largest component of n * mean_degree / 2 vertex pairs, loops and
    repeats dropped, with endpoints drawn uniformly (an Erdos-Renyi graph)
    or in proportion to weights (a Chung-Lu graph)."""
    rng = np.random.default_rng(seed)
    p = None if weights is None else weights / weights.sum()
    ends = np.sort(rng.choice(n, (2, n * mean_degree // 2), p=p), axis=0)
    pairs = np.unique(ends[:, ends[0] != ends[1]], axis=1)
    return largest_connected_component(graph_from_edges(n, zip(*pairs.tolist())))


def chung_lu(n: int, gamma: float, seed: int):
    """Chung-Lu graph of mean degree about 6 whose weights fall off as
    rank^(-1/(gamma-1)): a degree tail of exponent gamma."""
    return sampled_graph(n, 6, seed, np.arange(1, n + 1) ** (-1.0 / (gamma - 1.0)))


CUT_GRAPHS = {
    **PARITY_GRAPHS,
    "cubic500": lambda: random_regular(500, 3, 0),
    "cubic2000": lambda: random_regular(2000, 3, 0),
    "gnp6000mean10": lambda: sampled_graph(6000, 10, 1),
    "gnp6000mean20": lambda: sampled_graph(6000, 20, 2),
}


@pytest.mark.parametrize("name", list(CUT_GRAPHS))
def test_smoothed_cut_is_certified_and_never_lost(monkeypatch, name):
    """The bound pass from the low-pass-smoothed start breaks down nowhere
    the pass from the raw start does not: where its cut is None, so is the
    raw one, and where only its cut is a number, the raw pass did not break
    down either but ended above _MAX_CUT. Every cut it gives bounds the
    (k+1)-th eigenvalue from above and lies strictly above the k-th."""
    lap = normalized_laplacian(CUT_GRAPHS[name]())
    start = np.random.default_rng(_START_SEED).uniform(-1.0, 1.0, lap.shape[0])
    for k in (3, 7):
        with spectral._one_blas_thread:
            raw = spectral._ritz_cut(lap, start, k)
            cut = spectral._ritz_cut(lap, spectral._smoothed(lap, start), k)
        if cut is None:
            assert raw is None, k
            continue
        if raw is None:
            limit = spectral._MAX_CUT
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_MAX_CUT", np.inf)
                with spectral._one_blas_thread:
                    assert spectral._ritz_cut(lap, start, k) > limit, k
        # The bottom k+1 eigenvalues; ARPACK on 2I - L crawls on a path or
        # cycle, whose bottom eigenvalues lie about 1e-6 apart.
        if lap.shape[0] <= 3000:
            vals = dense_oracle(lap, k + 1)[0]
        else:
            vals = shifted_reference(lap, k - 1)[0]
        assert vals[k - 1] < cut, k
        assert cut >= vals[k] - 1e-12, k


def arpack_applications(monkeypatch, lap, m: int) -> int:
    """Operator applications ARPACK makes in low_frequency_basis(lap, m)."""
    applications = []
    solve = scipy.sparse.linalg.eigsh

    def counted(operator, **kwargs):
        def matvec(x):
            applications.append(None)
            return operator.matvec(x)

        wrapped = scipy.sparse.linalg.LinearOperator(operator.shape, matvec=matvec,
                                                     dtype=operator.dtype)
        return solve(wrapped, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(scipy.sparse.linalg, "eigsh", counted)
        low_frequency_basis(lap, m)
    return len(applications)


@pytest.mark.parametrize("graph", [
    lambda: random_regular(6000, 3, 0),
    lambda: chung_lu(3000, 3.0, 0),
], ids=["cubic6000", "chunglu3000"])
def test_smoothed_start_saves_arpack_steps(monkeypatch, graph):
    # Counts, not times: the same solve with the smoothing replaced by the
    # identity, in the same process, takes strictly more ARPACK steps.
    lap = normalized_laplacian(graph())
    smoothed = arpack_applications(monkeypatch, lap, 5)
    monkeypatch.setattr(spectral, "_smoothed", lambda lap, x: x)
    raw = arpack_applications(monkeypatch, lap, 5)
    assert smoothed < raw


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
        assert not emb.degenerate

    def test_quantizers_carry_the_flag(self, cycle3000):
        _, full = cycle3000
        for m, flag in ((0, False), (2, True)):
            emb = energy_embedding(full, m, True)
            assert emb.degenerate is flag
            assert quantize_absolute(emb, 0.5).degenerate is flag
            assert quantize_relative(emb, 0.5).degenerate is flag

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

    def test_code_beyond_int64_raises_naming_eta(self):
        # floor(9 / 1e-18) fits int64 (< 2**63 ~ 9.22e18); floor(10 / 1e-18)
        # would wrap on the cast.
        codes = quantize_absolute(make_embedding([[9.0], [0.5]]), 1e-18)
        assert codes.codes[0, 0] > 0
        with pytest.raises(ValueError, match="eta 1e-18"):
            quantize_absolute(make_embedding([[10.0], [0.5]]), 1e-18)
        with pytest.raises(ValueError, match="eta 1e-20"):
            quantize_absolute(make_embedding([[0.5], [600.0]]), 1e-20)


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

    def test_code_beyond_int64_raises_naming_eta(self):
        # The largest entry takes code round(1 / eta).
        codes = quantize_relative(make_embedding([[0.8], [0.2]]), 1e-18)
        assert codes.codes[0, 0] > 0
        with pytest.raises(ValueError, match="eta 1e-20"):
            quantize_relative(make_embedding([[0.8], [0.2]]), 1e-20)

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
