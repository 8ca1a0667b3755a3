"""Normalized Laplacian, low-frequency eigenbasis, energy embeddings, and
quantized spectral codes.

The retained basis always includes the trivial (constant-direction)
eigenvector at eigenvalue 0; embeddings are built from the nontrivial
vectors only. Eigenvector sign is canonicalized so observable quantities
do not depend on solver internals.

Small operators (n up to 300) are solved densely; larger ones by a
matrix-free Lanczos solve (ARPACK, Lehoucq, Sorensen and Yang, 1998) at
machine precision from seeded start and restart vectors, so repeated solves
return bit-identical vectors. The solve runs on a Chebyshev polynomial of the
operator that damps the unwanted part of the spectrum (Zhou and Saad, SIAM
J. Matrix Anal. Appl., 2007), which cuts the number of ARPACK steps; the
damped interval starts at a Rayleigh-Ritz upper bound from a short Lanczos
pass, and every returned eigenvalue is checked to lie below it. One pair
beyond the retained ones is solved so the degeneracy flag also sees the
retention boundary. A basis solved once at the largest m needed is cut per m
by energy_embedding alone, which flags its columns as a fresh solve at that m
would; the flag rides on to the quantized code table. Both solves run with
the OpenBLAS bundled with numpy and scipy on one thread, and give each
library its thread count back when they return.
"""

from __future__ import annotations

import ctypes
import glob
import inspect
import os
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .graphs import ConnectivityError, Graph
from .observation import Groups, _group_rows

__all__ = [
    "DEGENERACY_TOL",
    "RESIDUAL_TOL",
    "EigenSolverError",
    "SpectralBasis",
    "EnergyEmbedding",
    "QuantizedCodes",
    "normalized_laplacian",
    "low_frequency_basis",
    "energy_embedding",
    "empty_embedding",
    "quantize_absolute",
    "quantize_relative",
    "codebook_size",
    "write_basis_tsv",
    "write_embedding_tsv",
]

# Adjacent retained eigenvalues closer than this times max(1, |lambda|), an
# absolute gap for every lambda below 1, mark a degenerate eigenspace: energy
# signatures inside it are basis-dependent, so results carry a flag instead.
DEGENERACY_TOL = 1e-9

# Post-hoc residual ceiling for every retained eigenpair, ||L v - lam v||_2.
RESIDUAL_TOL = 1e-8

# Largest n solved densely. On a 2-core x86-64 VM, median times for the
# bottom 7 pairs of five cubic graphs, 5 runs each, dense against the
# filtered Lanczos solve: n=200 2.8 against 5.4 ms; n=300 6.8 against 6.7 ms;
# n=400 11.6 against 8.1 ms; n=500 16.8 against 8.2 ms.
_DENSE_MAX_N = 300

# Degree of the Chebyshev filter a Lanczos solve runs on. Same VM and
# graphs, median ms at n=6000 for degrees 4, 8, 12 and 16: 86, 83, 92, 102;
# at n=500 and 2000 degrees 4 to 12 lie within 10% of each other.
_FILTER_DEGREE = 8

# Lanczos steps of the pass that bounds the filter cut; at least 2k for k
# wanted pairs, twice ARPACK's default Krylov size. Median ms at n=6000 for
# 30, 40 and 50 steps: 95, 83, 86; one cubic graph at n=100 000 solves in
# 5.5 s at 40 steps and 4.8 s at 50, whose block is 40 MB.
_BOUND_STEPS = 40

# Largest filter cut. The cut grows with the density of the graph (random
# graphs of mean degree 3, 10, 20 and 50 at n=6000 give 0.31, 0.53, 0.65 and
# 0.77), and above about 0.6 the filtered solve was slower than one on
# 2I - L: its sparse products cost more, and [cut, 2] is mostly empty.
_MAX_CUT = 0.6

# Seed of the Lanczos start vector and of the vectors ARPACK restarts from
# when its Krylov space breaks down (complete graphs, stars). ARPACK otherwise
# draws fresh random vectors per call, and the results then differ from call
# to call. Older scipy releases draw the restart vectors themselves.
_START_SEED = 0
_EIGSH_TAKES_RNG = "rng" in inspect.signature(scipy.sparse.linalg.eigsh).parameters

# First entry of a column larger than this in absolute value decides the sign.
_SIGN_TOL = 1e-12

# Thread-count getter and setter pairs that the OpenBLAS builds bundled with
# the numpy and scipy wheels export, in the order they are tried.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class EigenSolverError(RuntimeError):
    """Eigensolver failed to meet the residual contract."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpectralBasis:
    """Bottom eigenpairs of a normalized Laplacian.

    eigenvalues has shape (m+1,) ascending, including the trivial zero;
    vectors has shape (n, m+1) with orthonormal columns, one per
    eigenvalue. next_eigenvalue is the first dropped eigenvalue, the
    (m+2)-th smallest, or None when m+1 = n leaves none. degeneracy_flag
    marks a near-degenerate gap among the retained nontrivial eigenvalues or
    between the last retained one and next_eigenvalue.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    degeneracy_flag: bool
    next_eigenvalue: float | None = None

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        """Number of retained nontrivial eigenpairs."""
        return self.vectors.shape[1] - 1


@dataclass(frozen=True)
class EnergyEmbedding:
    """Per-vertex squared eigenvector entries, shape (n, m).

    Column j holds the energy of the (j+1)-th eigenvector (trivial
    excluded). With scaled=True entries are multiplied by n, which makes
    the column means exactly 1. degenerate is the degeneracy flag of the
    basis these m columns were cut from, taken at their own retention
    boundary: the flag a fresh low_frequency_basis(op, m) carries.
    """

    values: np.ndarray
    scaled: bool
    degenerate: bool = False

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class QuantizedCodes:
    """Integer spectral codes, shape (n, m), plus the quantization metadata.

    rule is "absolute" (floor with step eta) or "relative" (round half away
    from zero with step delta = eta * max absolute embedding entry). delta
    records the step actually applied; 0.0 when the embedding was empty or
    identically zero. degenerate is the embedding's flag: the codes are
    basis-dependent when it is set.
    """

    codes: np.ndarray
    rule: str
    eta: float
    delta: float
    degenerate: bool = False

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def m(self) -> int:
        return self.codes.shape[1]

    @cached_property
    def groups(self) -> Groups:
        """The vertices grouped by code row, computed on first access."""
        return _group_rows(self.codes)


def normalized_laplacian(g: Graph) -> sp.csr_matrix:
    """I - D^(-1/2) A D^(-1/2) as symmetric CSR.

    Raises ConnectivityError if the graph has an isolated vertex (the
    scaling is undefined there), as a search that cannot reach it does.
    """
    degs = g.degrees()
    if np.any(degs == 0):
        isolated = int(np.flatnonzero(degs == 0)[0])
        raise ConnectivityError(f"vertex {isolated} is isolated")
    adjacency = g.to_sparse()
    scale = 1.0 / np.sqrt(degs.astype(np.float64))
    return _shifted(adjacency, -(np.repeat(scale, degs) * scale[adjacency.indices]), 1.0)


def _shifted(a: sp.csr_matrix, values: np.ndarray, shift: float) -> sp.csr_matrix:
    """shift * I plus the matrix with the pattern of the square CSR a, whose
    rows hold sorted, distinct columns, and the given values, which are
    updated in place. Built from the arrays as scipy's sparse sum builds
    it, at a fraction of its cost: a diagonal entry is value + shift, or
    shift where a's row has none; every other entry is its value; zero sums
    are dropped.
    """
    n = a.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    diagonal = np.flatnonzero(a.indices == rows)
    values[diagonal] += shift
    if diagonal.size == n:
        out = sp.csr_matrix((values, a.indices.copy(), a.indptr.copy()), shape=(n, n))
    else:
        missing = np.ones(n, dtype=bool)
        missing[a.indices[diagonal]] = False
        absent = np.flatnonzero(missing)
        indptr = a.indptr + np.concatenate(([0], np.cumsum(missing)))
        # A row's inserted diagonal follows its entries left of the diagonal.
        at = indptr[absent] + np.bincount(rows[a.indices < rows], minlength=n)[absent]
        kept = np.ones(indptr[-1], dtype=bool)
        kept[at] = False
        indices = np.empty(indptr[-1], dtype=a.indices.dtype)
        indices[kept] = a.indices
        indices[at] = absent
        merged = np.full(indptr[-1], shift)
        merged[kept] = values
        out = sp.csr_matrix((merged, indices, indptr), shape=(n, n))
    out.eliminate_zeros()
    return out


def _degenerate(vals: np.ndarray) -> bool:
    """Whether adjacent nontrivial eigenvalues among vals[1:] lie within
    DEGENERACY_TOL * max(1, |lambda|): an absolute gap for lambda below 1."""
    nontrivial = vals[1:]
    gaps = np.diff(nontrivial)
    scale = np.maximum(1.0, np.abs(nontrivial[1:]))
    return bool(np.any(gaps < DEGENERACY_TOL * scale))


class _ChebyshevFilter(scipy.sparse.linalg.LinearOperator):
    """T_d(S) with S = (center I - L) / radius, the operator of a Lanczos solve.

    S maps the eigenvalues of L within radius of center into [-1, 1], where
    |T_d| <= 1, and those below center - radius above 1, where T_d grows
    monotonically; so the top eigenpairs of T_d(S) are the bottom pairs of L
    below that edge, in order. At degree 1 with center 2 and radius 1 the
    operator is 2I - L.

    matvec runs the recurrence t_(j+1) = 2 S t_j - t_(j-1) as one call of the
    CSR kernel that matrix @ vector dispatches to per degree, on a
    precomputed 2S and with the output started at -t_(j-1). It takes only the
    1-D vectors ARPACK hands over.
    """

    def __init__(self, lap: sp.csr_matrix, center: float, radius: float, degree: int) -> None:
        super().__init__(dtype=np.float64, shape=lap.shape)
        if not lap.has_canonical_format:  # _shifted needs sorted, distinct columns
            lap = lap.copy()
            lap.sum_duplicates()
        # (2 center / radius) I - (2 / radius) lap, as the sparse sum gives it.
        self._twice = _shifted(lap, (-2.0 / radius) * lap.data, 2.0 * center / radius)
        self._degree = degree
        # scipy.sparse loaded this kernel module on import.
        self._kernel = sp._sparsetools.csr_matvec

    def matvec(self, x: np.ndarray) -> np.ndarray:
        a = self._twice
        n = a.shape[0]
        cur = np.zeros(n)
        self._kernel(n, n, a.indptr, a.indices, a.data, x, cur)
        # Halving is exact, so t_1 = S x equals a product with S itself.
        cur *= 0.5
        prev = x
        for _ in range(self._degree - 1):
            nxt = -prev
            self._kernel(n, n, a.indptr, a.indices, a.data, cur, nxt)
            prev, cur = cur, nxt
        return cur

    _matvec = matvec


def _ritz_cut(lap: sp.csr_matrix, start: np.ndarray, k: int) -> float | None:
    """An upper bound on the (k+1)-th smallest eigenvalue of lap, strictly
    above the k-th, or None when the Krylov space of start breaks down or
    the bound exceeds _MAX_CUT.

    The bound is the (k+1)-th smallest Ritz value of a Lanczos pass with
    full reorthogonalisation: Ritz values of an orthonormal subspace bound
    the eigenvalues from above (Courant-Fischer), and those of an unreduced
    tridiagonal are distinct. A Lanczos coefficient below RESIDUAL_TOL means
    the space is already invariant to the accuracy the basis is held to.
    lap must hold float64 data, which the CSR kernel reads as it is.
    """
    n = lap.shape[0]
    steps = max(_BOUND_STEPS, 2 * k)
    block = np.empty((steps, n))
    alpha = np.empty(steps)
    beta = np.empty(steps - 1)
    # The kernel that lap @ q dispatches to, without the dispatch.
    matvec = sp._sparsetools.csr_matvec
    q = start / np.sqrt(start @ start)
    for j in range(steps):
        block[j] = q
        w = np.zeros(n)
        matvec(n, n, lap.indptr, lap.indices, lap.data, q, w)
        # Classical Gram-Schmidt twice against every earlier vector, on BLAS.
        # The caller pins BLAS to one thread, so the products sum in one
        # order and the cut is the same on every call on a given machine.
        # Another order moves only its last bits (relative 1e-15 against
        # einsum's on cubic graphs), and with them those of the vectors.
        basis = block[: j + 1]
        alpha[j] = 0.0
        for _ in range(2):
            coef = basis @ w
            w -= coef @ basis
            alpha[j] += coef[j]
        if j + 1 == steps:
            break
        beta[j] = np.sqrt(w @ w)
        if beta[j] < RESIDUAL_TOL:
            return None
        q = w / beta[j]
    cut = float(scipy.linalg.eigh_tridiagonal(alpha, beta, eigvals_only=True)[k])
    return cut if cut <= _MAX_CUT else None


@cache
def _openblas_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """Thread-count getter and setter of each OpenBLAS that numpy or scipy
    ships beside itself (numpy.libs/, scipy.libs/) and that is already
    loaded; empty where there is none or the platform cannot tell.

    RTLD_NOLOAD only attaches to a library the process has loaded, so the
    lookup loads nothing. It runs on the first solve, not on import.
    """
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return ()
    controls = []
    for package in (np, scipy):
        site = os.path.dirname(os.path.dirname(package.__file__))
        pattern = os.path.join(site, package.__name__ + ".libs", "*openblas*")
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path, mode=noload | os.RTLD_LAZY)
            except OSError:
                continue
            for get_name, set_name in _BLAS_THREAD_SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    controls.append((getter, setter))
                    break
    return tuple(controls)


class _OneBlasThread:
    """Context manager that runs every bundled OpenBLAS on one thread and
    then restores each library's previous count, also on an exception.

    ARPACK's reorthogonalisation runs on BLAS, whose worker threads would
    keep spinning after the solve and, in a process pool, compete with the
    other workers for the cores. Nested or concurrent solves share one pin:
    the first to enter saves the counts and the last to leave restores them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[tuple[Callable[[int], None], int]] = []

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = [(setter, getter()) for getter, setter in _openblas_controls()]
                for setter, _ in self._saved:
                    setter(1)
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for setter, count in self._saved:
                    setter(count)


# One per process, as the thread counts it pins are.
_one_blas_thread = _OneBlasThread()


def _bottom_pairs(op: sp.spmatrix | np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom k eigenpairs, ascending, from a dense or a Lanczos solve run
    on one BLAS thread."""
    with _one_blas_thread:
        n = op.shape[0]
        # Dense below the crossover, and when k is not well below n: ARPACK
        # needs k < n, and a Krylov space of 2k+1 vectors near n costs more
        # than the dense solve.
        if n <= _DENSE_MAX_N or 4 * k > n:
            dense = op.toarray() if sp.issparse(op) else op
            return scipy.linalg.eigh(dense, subset_by_index=(0, k - 1))
        # Lanczos on a Chebyshev filter that damps [cut, 2], the rest of a
        # normalized Laplacian's spectrum, into [-1, 1]: fewer ARPACK steps,
        # each made of _FILTER_DEGREE cheap sparse products. Without a usable
        # cut the operator is 2I - op. Either way the wanted values of the
        # operator lie near 1 or above, where ARPACK's test, relative to the
        # Ritz value, is about as strict as an absolute one.
        lap = sp.csr_matrix(op, dtype=np.float64)
        rng = np.random.default_rng(_START_SEED)
        start = rng.uniform(-1.0, 1.0, n)
        cut = _ritz_cut(lap, start, k)
        if cut is None:
            operator = _ChebyshevFilter(lap, 2.0, 1.0, 1)
        else:
            operator = _ChebyshevFilter(lap, 1.0 + cut / 2.0, 1.0 - cut / 2.0, _FILTER_DEGREE)
        # tol=0 (machine precision) stays although RESIDUAL_TOL is far
        # looser: at tol=1e-10 Lanczos on C_3000 or the 60x60 torus converges
        # to one copy of each doubled eigenvalue and skips the other. Every
        # pair it returns is a true eigenpair, so neither the residual check
        # nor the degeneracy flag can see the missing one. The filter cuts the
        # number of steps to reach machine precision instead of the precision.
        restarts = {"rng": rng} if _EIGSH_TAKES_RNG else {}
        try:
            _, vecs = scipy.sparse.linalg.eigsh(
                operator, k=k, which="LA", v0=start, tol=0, **restarts)
        except scipy.sparse.linalg.ArpackError as exc:
            raise EigenSolverError(f"Lanczos solve did not converge: {exc}") from exc
        vals = np.einsum("ij,ij->j", vecs, lap @ vecs)
        if cut is not None and np.any(vals >= cut):
            raise EigenSolverError(
                f"Lanczos eigenvalue {float(np.max(vals)):.6g} is not below "
                f"the filter cut {cut:.6g}"
            )
        order = np.argsort(vals, kind="stable")
        return vals[order], vecs[:, order]


def low_frequency_basis(op: sp.spmatrix | np.ndarray, m: int) -> SpectralBasis:
    """Bottom m+1 eigenpairs of a symmetric PSD operator, ascending.

    Solves densely up to n=300 and by Lanczos above, in both cases one pair
    more than retained (when n allows) so the flag sees the boundary gap.
    Every solved eigenpair is residual-checked against the operator; column
    signs are canonicalized (first entry above 1e-12 in absolute value is
    made positive); gaps below DEGENERACY_TOL * max(1, |lambda|), so absolute
    for every lambda below 1, set the flag. The Lanczos start and restart
    vectors are seeded, so repeated calls give bit-identical results.

    Args:
        op: symmetric operator with spectrum in [0, 2], typically a
            normalized Laplacian.
        m: number of nontrivial eigenpairs to retain; m+1 must not exceed n.

    Raises:
        EigenSolverError: the solve did not converge, a Lanczos eigenvalue is
            not below the filter cut, or a residual exceeds RESIDUAL_TOL.
    """
    if not sp.issparse(op):
        op = np.asarray(op, dtype=np.float64)
    n = op.shape[0]
    if m < 0:
        raise ValueError("m must be non-negative")
    if m + 1 > n:
        raise ValueError(f"m+1={m + 1} eigenpairs requested from an n={n} operator")

    vals, vecs = _bottom_pairs(op, min(m + 2, n))
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nonzero = np.flatnonzero(np.abs(col) > _SIGN_TOL)
        if nonzero.size and col[nonzero[0]] < 0:
            vecs[:, j] = -col

    residual = op @ vecs - vecs * vals[np.newaxis, :]
    worst = float(np.max(np.linalg.norm(residual, axis=0)))
    if worst > RESIDUAL_TOL:
        raise EigenSolverError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )

    next_eigenvalue = float(vals[m + 1]) if vals.size > m + 1 else None
    return SpectralBasis(_readonly(vals[: m + 1].copy()), _readonly(vecs[:, : m + 1].copy()),
                         _degenerate(vals), next_eigenvalue)


def energy_embedding(basis: SpectralBasis, m: int, scaled: bool) -> EnergyEmbedding:
    """Squared entries of the first m nontrivial eigenvectors: the one
    per-m cut of a basis solved at its largest m.

    With scaled=True values are multiplied by n; unit eigenvector norm then
    makes every column mean exactly 1, so a fixed quantization step acts
    relative to the typical entry. The embedding is flagged degenerate as
    low_frequency_basis(op, m) would be: from the basis's own flag when m is
    its m, else from its first m+2 eigenvalues.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > basis.m:
        raise ValueError(f"basis holds {basis.m} nontrivial vectors, m={m} requested")
    values = basis.vectors[:, 1 : m + 1] ** 2
    if scaled:
        values = values * basis.n
    flag = basis.degeneracy_flag if m == basis.m else _degenerate(basis.eigenvalues[: m + 2])
    return EnergyEmbedding(values=_readonly(values), scaled=scaled, degenerate=flag)


def empty_embedding(n: int, scaled: bool) -> EnergyEmbedding:
    """Zero-column embedding for pipelines whose spectral part is inactive;
    never degenerate."""
    return EnergyEmbedding(values=_readonly(np.zeros((n, 0))), scaled=scaled, degenerate=False)


def _int64_codes(steps: np.ndarray, eta: float) -> np.ndarray:
    """Whole step counts as read-only int64 codes; ValueError naming eta
    when one lies outside int64's range, where the cast would wrap it."""
    if not np.all(np.abs(steps) < 2.0**63):
        raise ValueError(f"eta {eta:g} is too small: a spectral code leaves the int64 range")
    return _readonly(steps.astype(np.int64))


def quantize_absolute(emb: EnergyEmbedding, eta: float) -> QuantizedCodes:
    """Floor quantizer with fixed step eta: code = floor(value / eta).

    Raises ValueError when eta is not positive or a code leaves int64.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    codes = _int64_codes(np.floor(emb.values / eta), eta)
    return QuantizedCodes(codes=codes, rule="absolute", eta=float(eta), delta=float(eta),
                          degenerate=emb.degenerate)


def quantize_relative(emb: EnergyEmbedding, eta: float) -> QuantizedCodes:
    """Rounding quantizer with step eta times the largest embedding entry.

    code = round(value / delta) with halves away from zero, where
    delta = eta * max|values|. An empty or identically zero embedding
    yields all-zero codes and delta 0 without dividing. Raises ValueError
    when eta is not positive or a code leaves int64.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    max_abs = float(np.max(np.abs(emb.values), initial=0.0))
    if max_abs == 0.0:
        codes = _readonly(np.zeros(emb.values.shape, dtype=np.int64))
        delta = 0.0
    else:
        delta = eta * max_abs
        x = emb.values / delta
        codes = _int64_codes(np.copysign(np.floor(np.abs(x) + 0.5), x), eta)
    return QuantizedCodes(codes=codes, rule="relative", eta=float(eta), delta=float(delta),
                          degenerate=emb.degenerate)


def codebook_size(codes: QuantizedCodes) -> int:
    """Number of distinct code rows; 1 for an m=0 code table."""
    return len(codes.groups)


def _write_columns_tsv(path: str, columns: np.ndarray, first_index: int) -> None:
    """Write an (n, w) matrix as (vertex, eigenvalue index, value) lines,
    column by column, column j under eigenvalue index first_index + j."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex\teigenvalue_index\tvalue\n")
        for j in range(columns.shape[1]):
            col = columns[:, j]
            for v in range(columns.shape[0]):
                fh.write(f"{v}\t{j + first_index}\t{col[v]:.17g}\n")


def write_basis_tsv(basis: SpectralBasis, path: str) -> None:
    """Dump retained eigenvector entries as (vertex, eigenvalue index, value)."""
    _write_columns_tsv(path, basis.vectors, 0)


def write_embedding_tsv(emb: EnergyEmbedding, path: str) -> None:
    """Dump embedding entries as (vertex, eigenvalue index, value).

    Column j of the embedding corresponds to eigenvalue index j+1 of the
    basis it came from (the trivial vector carries no energy column).
    """
    _write_columns_tsv(path, emb.values, 1)
