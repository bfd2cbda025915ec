"""Finite tracial matrix algebra.

A square complex matrix together with the normalized trace tr/dim is the
basic object everything else consumes.  This module provides the operator
norm and the L2 norm of the trace, maximal abelian subalgebra (MASA) frames
given by a unitary change of basis, the trace-preserving conditional
expectation onto a frame, and the discrete-Fourier frame that is
perpendicular to the diagonal one.
"""

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10

# Dimension above which the operator norm switches from full SVD to power
# iteration on x*x (200 iterations or relative change < 1e-10).
SVD_DIM_LIMIT = 1024
_POWER_ITERATIONS = 200
_POWER_TOL = 1e-10
_POWER_SEED = 0xA11CE


def _as_entries(x) -> np.ndarray:
    """Accept a TracedMatrix or a raw square array."""
    if isinstance(x, TracedMatrix):
        return x.entries
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class TracedMatrix:
    """Square complex matrix carrying the normalized trace functional.

    Entries are stored as a read-only complex128 array.  Instances are
    immutable and safe to share across threads.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.complex128, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"entries must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("dim must be >= 1")
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValueError("entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class MasaFrame:
    """Unitary change of basis defining a MASA A = U . Diag . U*.

    The identity frame (the diagonal MASA) holds no dense basis: ``basis``
    builds it when read.  Any other basis must satisfy |u*u - 1| <=
    UNITARY_TOL; a basis bit-equal to the identity is taken as the identity
    frame without that O(dim^3) product.  Instances are immutable.
    """

    def __init__(self, basis):
        u = np.array(basis, dtype=np.complex128, copy=True)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("frame basis must be square")
        eye = np.eye(u.shape[0])
        if np.array_equal(u, eye):
            u = None
        else:
            dev = np.abs(u.conj().T @ u - eye).max()
            if not dev <= UNITARY_TOL:  # also refuses a NaN deviation
                raise ValueError(f"frame basis is not unitary (deviation {dev:.3e})")
            u.setflags(write=False)
        self.__dict__.update(dim=eye.shape[0], _basis=u)  # _basis None: the identity frame

    def __setattr__(self, name, value):
        raise AttributeError(f"MasaFrame is immutable; cannot set {name!r}")

    @property
    def is_identity(self) -> bool:
        return self._basis is None

    @property
    def basis(self) -> np.ndarray:
        """The unitary U; the identity frame builds it anew on each read."""
        return np.eye(self.dim, dtype=np.complex128) if self._basis is None else self._basis

    @classmethod
    def identity(cls, dim: int) -> "MasaFrame":
        if dim < 0:
            raise ValueError(f"frame dim must be >= 0, got {dim}")
        frame = object.__new__(cls)
        frame.__dict__.update(dim=int(dim), _basis=None)
        return frame

    def to_frame(self, x) -> np.ndarray:
        """Coordinates of x in the frame eigenbasis: U* x U."""
        a = _as_entries(x)
        if a.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: matrix {a.shape[0]}, frame {self.dim}")
        if self.is_identity:
            return a
        return self.basis.conj().T @ a @ self.basis

    def from_frame(self, a: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_frame`."""
        if self.is_identity:
            return np.asarray(a, dtype=np.complex128)
        return self.basis @ a @ self.basis.conj().T

    def diagonal_element(self, values) -> TracedMatrix:
        """The MASA element with the given eigenvalues in this frame."""
        v = np.asarray(values, dtype=np.complex128)
        return TracedMatrix(self.from_frame(np.diag(v)))


def normalized_trace(x) -> complex:
    """tau(x) = (1/dim) tr(x);  tau(1) = 1 and tau(xy) = tau(yx)."""
    a = _as_entries(x)
    return complex(np.trace(a) / a.shape[0])


def op_norm(x) -> float:
    """Largest singular value.

    Full SVD up to dim 1024; above that, power iteration on x*x with a
    deterministic start vector (stops after 200 iterations or when the
    estimate moves by less than 1e-10 relatively).
    """
    a = _as_entries(x)
    dim = a.shape[0]
    if dim <= SVD_DIM_LIMIT:
        # Same LAPACK call as np.linalg.norm(a, 2), without its axis handling.
        return float(np.linalg.svd(a, compute_uv=False)[0])
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    ah = a.conj().T
    est = 0.0
    for _ in range(_POWER_ITERATIONS):
        w = ah @ (a @ v)
        s = np.linalg.norm(w)
        if s == 0.0:
            return 0.0
        v = w / s
        new = float(np.sqrt(s))
        if abs(new - est) <= _POWER_TOL * max(new, 1e-30):
            return new
        est = new
    return est


def l2_norm(x) -> float:
    """tau(x*x)^(1/2), i.e. the Frobenius norm scaled by dim^(-1/2)."""
    a = _as_entries(x)
    return float(np.linalg.norm(a) / np.sqrt(a.shape[0]))


def conditional_expectation(x, frame: MasaFrame) -> TracedMatrix:
    """E_A(x): keep the diagonal of x in the frame eigenbasis.

    Trace preserving, idempotent, and A-bimodular; orthogonal projection
    onto the MASA in the L2 inner product.
    """
    return frame.diagonal_element(np.diagonal(frame.to_frame(x)))


def perpendicular_frame(dim: int) -> MasaFrame:
    """Discrete-Fourier frame F[j,k] = dim^(-1/2) exp(2 pi i jk / dim).

    The MASA F.Diag.F* is perpendicular to the diagonal MASA: traceless
    diagonal and traceless Fourier-diagonal elements are orthogonal under
    the trace, so tau(ab) = tau(a) tau(b) across the two frames.
    """
    if dim < 2:
        raise ValueError("perpendicular frame needs dim >= 2")
    return MasaFrame(_dft_matrix(dim))


def _dft_matrix(m: int) -> np.ndarray:
    """The unitary DFT matrix F[j,k] = m^(-1/2) exp(2 pi i jk / m), 1 at m = 1.

    Unchecked: callers that only need the entries skip the O(m^3) unitarity
    product a MasaFrame takes."""
    j = np.arange(m)
    return np.exp(2j * np.pi * np.outer(j, j) / m) / np.sqrt(m)
