"""Numeric witnesses for presentations.

Floating point lives only here; the symbolic layer stays exact.  Residuals
certify that a matrix assignment approximately satisfies every relation;
classical points evaluate the fundamental matrix at a scalar matrix; a
damped Gauss-Newton search looks for small finite-dimensional
representations.  Acceptance threshold 1e-10, search threshold 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GeneratorId
from .presentations import Presentation

ACCEPT_TOL = 1e-10
SEARCH_TOL = 1e-8
SEARCH_STEPS = 150


@dataclass(frozen=True)
class NumAssignment:
    """Matrices for the plain generators; starred letters evaluate as
    conjugate transposes."""

    dim: int
    matrices: dict


@dataclass(frozen=True)
class ResidualReport:
    residuals: tuple
    max_residual: float


def _opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _word_value(assignment: NumAssignment, w) -> np.ndarray:
    n = assignment.dim
    value = np.eye(n, dtype=complex)
    for g in w:
        m = assignment.matrices[g.plain()]
        value = value @ (m.conj().T if g.star else m)
    return value


def _relation_values(P: Presentation, assignment: NumAssignment):
    n = assignment.dim
    for r in P.relations:
        acc = np.zeros((n, n), dtype=complex)
        for w, c in r.terms():
            acc = acc + float(c) * _word_value(assignment, w)
        yield acc


def eval_residual(P: Presentation, assignment: NumAssignment) -> ResidualReport:
    """Operator-norm residual of every relation under the assignment."""
    needed = {g.plain() for r in P.relations for g in r.letters()}
    needed |= set(P.generators)
    missing = sorted(g.label() for g in needed if g not in assignment.matrices)
    if missing:
        raise ValueError(f"assignment misses generators: {missing}")
    n = assignment.dim
    for g, m in assignment.matrices.items():
        if m.shape != (n, n):
            raise ValueError(f"matrix for {g.label()} has shape {m.shape}, expected {(n, n)}")
    residuals = [_opnorm(acc) for acc in _relation_values(P, assignment)]
    top = max(residuals, default=0.0)
    return ResidualReport(tuple(residuals), top)


def _as_array(m) -> np.ndarray:
    return np.array(
        [[float(m.entry(j, k)) for k in range(m.cols)] for j in range(m.rows)],
        dtype=complex,
    )


def classical_point(P: Presentation, V) -> NumAssignment:
    """One-dimensional evaluation at a scalar matrix V.

    V must be numerically unitary; orthogonal-type presentations also need
    V = F conj(V) F^-1, unitary-type ones need Q conj(V) Q^-1 unitary.
    Rejections carry the violated condition and its measured defect.
    """
    if len(P.factor_tags) != 1:
        raise ValueError("classical points need a single-factor presentation")
    (tag,) = P.factor_tags
    n = P.fundamentals[tag].rows
    V = np.asarray(V, dtype=complex)
    if V.shape != (n, n):
        raise ValueError(f"V has shape {V.shape}, expected {(n, n)}")
    eye = np.eye(n)
    defect = max(_opnorm(V @ V.conj().T - eye), _opnorm(V.conj().T @ V - eye))
    if defect > ACCEPT_TOL:
        raise ValueError(f"V is not unitary: defect {defect:.3e} exceeds {ACCEPT_TOL:.1e}")
    f = P.fmatrices[tag]
    if f is not None:
        fa = _as_array(f)
        fi = _as_array(f.inverse())
        defect = _opnorm(V - fa @ V.conj() @ fi)
        if defect > ACCEPT_TOL:
            raise ValueError(
                f"V fails the reality condition V = F conj(V) F^-1: defect {defect:.3e}"
            )
    else:
        q = _as_array(P.qmatrices[tag])
        qi = _as_array(P.qmatrices[tag].inverse())
        w = q @ V.conj() @ qi
        defect = max(_opnorm(w @ w.conj().T - eye), _opnorm(w.conj().T @ w - eye))
        if defect > ACCEPT_TOL:
            raise ValueError(
                f"Q conj(V) Q^-1 is not unitary: defect {defect:.3e} exceeds {ACCEPT_TOL:.1e}"
            )
    matrices = {
        g: np.array([[V[g.row, g.col]]], dtype=complex) for g in P.generators
    }
    return NumAssignment(1, matrices)


def _unpack(P: Presentation, n: int, x: np.ndarray) -> NumAssignment:
    matrices = {}
    step = 2 * n * n
    for i, g in enumerate(P.generators):
        chunk = x[i * step:(i + 1) * step]
        re = chunk[: n * n].reshape(n, n)
        im = chunk[n * n:].reshape(n, n)
        matrices[g] = re + 1j * im
    return NumAssignment(n, matrices)


def _residual_vector(P: Presentation, n: int, x: np.ndarray) -> np.ndarray:
    out = []
    for acc in _relation_values(P, _unpack(P, n, x)):
        out.append(acc.real.ravel())
        out.append(acc.imag.ravel())
    return np.concatenate(out) if out else np.zeros(0)


def rep_search(P: Presentation, n: int, seed: int):
    """Damped Gauss-Newton least-squares search for an n-dimensional
    representation; deterministic per seed.

    Returns an assignment only when the independent residual check passes
    below the search threshold; budget exhaustion returns None.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    gens = P.generators
    start = []
    for _ in gens:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(z)
        start.append(np.concatenate([q.real.ravel(), q.imag.ravel()]))
    x = np.concatenate(start) if start else np.zeros(0)
    lam = 1e-3
    h = 1e-7
    residual = _residual_vector(P, n, x)
    for _ in range(SEARCH_STEPS):
        report = eval_residual(P, _unpack(P, n, x))
        if report.max_residual < SEARCH_TOL:
            return _unpack(P, n, x)
        jac = np.empty((residual.size, x.size))
        for j in range(x.size):
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (_residual_vector(P, n, xp) - residual) / h
        gram = jac.T @ jac
        grad = jac.T @ residual
        accepted = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(gram + lam * np.eye(x.size), -grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            trial = x + delta
            trial_residual = _residual_vector(P, n, trial)
            if np.linalg.norm(trial_residual) < np.linalg.norm(residual):
                x, residual = trial, trial_residual
                lam = max(lam / 3, 1e-14)
                accepted = True
                break
            lam *= 10
        if not accepted:
            break
    report = eval_residual(P, _unpack(P, n, x))
    if report.max_residual < SEARCH_TOL:
        return _unpack(P, n, x)
    return None
