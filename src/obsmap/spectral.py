"""Normalized Laplacian, low-frequency eigenbasis, energy embeddings, and
quantized spectral codes.

The retained basis always includes the trivial (constant-direction)
eigenvector at eigenvalue 0; embeddings are built from the nontrivial
vectors only. Eigenvector sign is canonicalized so observable quantities
do not depend on solver internals.

Small operators (n up to 400) are solved densely; larger ones by a
matrix-free Lanczos solve (ARPACK, Lehoucq, Sorensen and Yang, 1998) from a
fixed start vector, so repeated solves return bit-identical vectors. One
pair beyond the retained ones is solved so the degeneracy flag also sees the
retention boundary, and a basis solved once at the largest m needed can be
cut down per m with SpectralBasis.leading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .graphs import Graph

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

# Adjacent retained eigenvalues closer than this (relative to their size)
# mark a numerically degenerate eigenspace: energy signatures inside it are
# basis-dependent, so downstream results carry a flag instead of a guess.
DEGENERACY_TOL = 1e-9

# Post-hoc residual ceiling for every retained eigenpair, ||L v - lam v||_2.
RESIDUAL_TOL = 1e-8

# Largest n solved densely; above this Lanczos is faster. On a 2-core x86-64
# VM, for the bottom 7 pairs of a cubic graph: n=300 dense 5.9 ms, Lanczos
# 12.5 ms; n=500 dense 16.5 ms, Lanczos 12.3 ms.
_DENSE_MAX_N = 400

# Seed of the Lanczos start vector. ARPACK otherwise draws a fresh random
# start per call, and the vectors then differ in their last bits.
_START_SEED = 0

# First entry of a column larger than this in absolute value decides the sign.
_SIGN_TOL = 1e-12


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

    def leading(self, m: int) -> SpectralBasis:
        """The bottom m+1 pairs of this basis, flagged (at DEGENERACY_TOL)
        against their own retention boundary; equals a fresh
        low_frequency_basis(op, m) up to solver rounding."""
        if not 0 <= m <= self.m:
            raise ValueError(f"basis holds {self.m} nontrivial vectors, m={m} requested")
        if m == self.m:
            return self
        vals = self.eigenvalues[: m + 2]
        return SpectralBasis(
            eigenvalues=_readonly(vals[:-1].copy()),
            vectors=_readonly(self.vectors[:, : m + 1].copy()),
            degeneracy_flag=_degenerate(vals, DEGENERACY_TOL),
            next_eigenvalue=float(vals[-1]),
        )


@dataclass(frozen=True)
class EnergyEmbedding:
    """Per-vertex squared eigenvector entries, shape (n, m).

    Column j holds the energy of the (j+1)-th eigenvector (trivial
    excluded). With scaled=True entries are multiplied by n, which makes
    the column means exactly 1.
    """

    values: np.ndarray
    scaled: bool

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
    identically zero.
    """

    codes: np.ndarray
    rule: str
    eta: float
    delta: float

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def m(self) -> int:
        return self.codes.shape[1]


def normalized_laplacian(g: Graph) -> sp.csr_matrix:
    """I - D^(-1/2) A D^(-1/2) as symmetric CSR.

    Raises ValueError if the graph has an isolated vertex (the scaling is
    undefined there).
    """
    degs = g.degrees()
    if np.any(degs == 0):
        isolated = int(np.flatnonzero(degs == 0)[0])
        raise ValueError(f"vertex {isolated} is isolated")
    inv_sqrt = 1.0 / np.sqrt(degs.astype(np.float64))
    rows = []
    cols = []
    data = []
    for u in range(g.n):
        rows.append(u)
        cols.append(u)
        data.append(1.0)
    for u, v in g.edges():
        w = -inv_sqrt[u] * inv_sqrt[v]
        rows.extend((u, v))
        cols.extend((v, u))
        data.extend((w, w))
    lap = sp.csr_matrix(
        (np.array(data), (np.array(rows), np.array(cols))), shape=(g.n, g.n)
    )
    return lap


def _degenerate(vals: np.ndarray, tol: float) -> bool:
    """Whether adjacent nontrivial eigenvalues among vals[1:] lie within tol,
    relative to their size."""
    nontrivial = vals[1:]
    gaps = np.diff(nontrivial)
    scale = np.maximum(1.0, np.abs(nontrivial[1:]))
    return bool(np.any(gaps < tol * scale))


def _bottom_pairs(op: sp.spmatrix | np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom k eigenpairs, ascending, from a dense or a Lanczos solve."""
    n = op.shape[0]
    # Dense below the crossover, and when k is not well below n: ARPACK
    # needs k < n, and a Krylov space of 2k+1 vectors near n costs more than
    # the dense solve.
    if n <= _DENSE_MAX_N or 4 * k > n:
        dense = op.toarray() if sp.issparse(op) else op
        return scipy.linalg.eigh(dense, subset_by_index=(0, k - 1))
    # Lanczos on the top of 2I - op. ARPACK's stopping test is relative to
    # the Ritz value, so asking for the bottom of op directly (values near 0)
    # demands far more accuracy than the residual check needs; near 2 the
    # same test is absolute. A Krylov space is unchanged by the shift.
    shifted = 2.0 * sp.identity(n, format="csr") - sp.csr_matrix(op)
    start = np.random.default_rng(_START_SEED).uniform(-1.0, 1.0, n)
    try:
        top, vecs = scipy.sparse.linalg.eigsh(shifted, k=k, which="LA", v0=start)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise EigenSolverError(f"Lanczos solve did not converge: {exc}") from exc
    vals = 2.0 - top
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def low_frequency_basis(
    op: sp.spmatrix | np.ndarray, m: int, tol: float = DEGENERACY_TOL
) -> SpectralBasis:
    """Bottom m+1 eigenpairs of a symmetric PSD operator, ascending.

    Solves densely up to n=400 and by Lanczos above, in both cases one pair
    more than retained (when n allows) so the flag sees the boundary gap.
    Every solved eigenpair is residual-checked against the operator; column
    signs are canonicalized (first entry above 1e-12 in absolute value is
    made positive). The Lanczos start vector is fixed, so repeated calls
    give bit-identical results.

    Args:
        op: symmetric operator, typically a normalized Laplacian.
        m: number of nontrivial eigenpairs to retain; m+1 must not exceed n.
        tol: relative gap below which adjacent nontrivial eigenvalues, the
            first dropped one included, are flagged degenerate.

    Raises:
        EigenSolverError: the solve did not converge or a residual exceeds
            RESIDUAL_TOL.
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

    return SpectralBasis(
        eigenvalues=_readonly(vals[: m + 1].copy()),
        vectors=_readonly(vecs[:, : m + 1].copy()),
        degeneracy_flag=_degenerate(vals, tol),
        next_eigenvalue=float(vals[m + 1]) if vals.size > m + 1 else None,
    )


def energy_embedding(basis: SpectralBasis, m: int, scaled: bool) -> EnergyEmbedding:
    """Squared entries of the first m nontrivial eigenvectors.

    With scaled=True values are multiplied by n; unit eigenvector norm then
    makes every column mean exactly 1, so a fixed quantization step acts
    relative to the typical entry.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > basis.m:
        raise ValueError(f"basis holds {basis.m} nontrivial vectors, m={m} requested")
    values = basis.vectors[:, 1 : m + 1] ** 2
    if scaled:
        values = values * basis.n
    return EnergyEmbedding(values=_readonly(values), scaled=scaled)


def empty_embedding(n: int, scaled: bool) -> EnergyEmbedding:
    """Zero-column embedding for pipelines whose spectral part is inactive."""
    return EnergyEmbedding(values=_readonly(np.zeros((n, 0))), scaled=scaled)


def quantize_absolute(emb: EnergyEmbedding, eta: float) -> QuantizedCodes:
    """Floor quantizer with fixed step eta: code = floor(value / eta)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    codes = np.floor(emb.values / eta).astype(np.int64)
    return QuantizedCodes(
        codes=_readonly(codes), rule="absolute", eta=float(eta), delta=float(eta)
    )


def quantize_relative(emb: EnergyEmbedding, eta: float) -> QuantizedCodes:
    """Rounding quantizer with step eta times the largest embedding entry.

    code = round(value / delta) with halves away from zero, where
    delta = eta * max|values|. An empty or identically zero embedding
    yields all-zero codes and delta 0 without dividing.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if emb.values.size == 0:
        codes = np.zeros(emb.values.shape, dtype=np.int64)
        return QuantizedCodes(
            codes=_readonly(codes), rule="relative", eta=float(eta), delta=0.0
        )
    max_abs = float(np.max(np.abs(emb.values)))
    if max_abs == 0.0:
        codes = np.zeros(emb.values.shape, dtype=np.int64)
        return QuantizedCodes(
            codes=_readonly(codes), rule="relative", eta=float(eta), delta=0.0
        )
    delta = eta * max_abs
    x = emb.values / delta
    codes = (np.copysign(np.floor(np.abs(x) + 0.5), x)).astype(np.int64)
    return QuantizedCodes(
        codes=_readonly(codes), rule="relative", eta=float(eta), delta=float(delta)
    )


def codebook_size(codes: QuantizedCodes) -> int:
    """Number of distinct code rows; 1 for an m=0 code table."""
    if codes.m == 0:
        return 1 if codes.n > 0 else 0
    return int(np.unique(codes.codes, axis=0).shape[0])


def write_basis_tsv(basis: SpectralBasis, path: str) -> None:
    """Dump retained eigenvector entries as (vertex, eigenvalue index, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex\teigenvalue_index\tvalue\n")
        for j in range(basis.vectors.shape[1]):
            col = basis.vectors[:, j]
            for v in range(basis.n):
                fh.write(f"{v}\t{j}\t{col[v]:.17g}\n")


def write_embedding_tsv(emb: EnergyEmbedding, path: str) -> None:
    """Dump embedding entries as (vertex, eigenvalue index, value).

    Column j of the embedding corresponds to eigenvalue index j+1 of the
    basis it came from (the trivial vector carries no energy column).
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex\teigenvalue_index\tvalue\n")
        for j in range(emb.m):
            col = emb.values[:, j]
            for v in range(emb.n):
                fh.write(f"{v}\t{j + 1}\t{col[v]:.17g}\n")
