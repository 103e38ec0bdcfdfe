"""Certified search routines feeding the distance bounds.

Three searches run on one driver, ``_drive``, which repeats a search's
``step`` until no move improves, ``_STALL_LIMIT`` gains in a row fall below
``_TOL``, or ``max_iters`` runs out:

* mirror ascent over density matrices for maximizing or minimizing coherent
  information and its reverse variant,
* a see-saw alternation giving certified lower bounds on diamond-norm
  distance between two channels,
* projected gradient descent over PPT states for the relative entropy of
  entanglement, with a dual minorant making every iterate a certificate.

The fourth engine, a projected subgradient search for the trace-norm
distance to the PPT set, keeps its own fixed diminishing-step schedule and
always runs ``max_iters`` steps.

Everything a Certificate reports as ``value`` is exactly evaluable from its
witness: each search scores with the code that re-checks it (the evaluators in
``channels.py``, ``seesaw_objective``, ``ree_dual_certificate``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import (
    KrausChannel,
    _coherent_information_mat,
    _reverse_coherent_information_mat,
    adjoint_apply_mat,
    apply_mat,
    complement,
    tensor_with_identity,
)
from .entropy import _check_base
from .linalg import (
    DensityMatrix,
    PureState,
    _require_dims,
    hermitian_eigen,
    hermitian_log,
    hermitize,
    maximally_entangled,
    random_density_matrix,
    random_pure_state,
    trace_norm,
)

_STALL_LIMIT = 10
_TOL = 1e-7  # gains below this count towards the stall limit
_STEP = 0.1  # initial step size; subgradient scale of the trace-distance oracle
_BASIS_SEED_CAP = 8
_BASIS_SEED_MIX = 1e-6
_RHO_FLOOR = 1e-9
_SIGMA_FLOOR = 1e-4
_EIG_PAIR_GUARD = 1e-13
_DYKSTRA_TOL = 1e-10
_DYKSTRA_MAX_ITERS = 200


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared knobs for all search routines.

    ``restarts`` counts additional random seeds on top of the deterministic
    ones. ``max_iters`` caps the steps of each run; 0 evaluates the start
    points only.
    """

    restarts: int = 8
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class Certificate:
    """Outcome of a search, pinned to a re-evaluable witness.

    ``value`` is the certified quantity (its meaning depends on ``kind``),
    ``witness`` the state or vector achieving it, ``objective`` an optional
    secondary achieved value, and ``history`` the accepted objective values
    of the winning run.
    """

    kind: str
    value: float
    witness: object
    converged: bool
    iterations: int
    objective: float | None = None
    history: tuple = ()


# ----- the search driver -----


def _drive(step, max_iters: int) -> tuple[bool, int]:
    """Repeat ``step`` until the search stops; return (converged, iterations).

    ``step()`` makes one move and returns its gain, or None when no move
    improves. None, or ``_STALL_LIMIT`` gains in a row below ``_TOL``,
    converges; running out of ``max_iters`` leaves the search unconverged.
    """
    stall = 0
    for it in range(1, max_iters + 1):
        gain = step()
        if gain is None:
            return True, it
        stall = stall + 1 if gain < _TOL else 0
        if stall >= _STALL_LIMIT:
            return True, it
    return False, max_iters


def _line_search(trial_at, improves, eta: float, tries: int):
    """Halve ``eta`` until ``trial_at(eta)`` improves; (eta, trial) or (None, None)."""
    for _ in range(tries):
        trial = trial_at(eta)
        if improves(trial):
            return eta, trial
        eta *= 0.5
    return None, None


def _best_certificate(kind, runs, witness, sign=1) -> Certificate:
    """Certificate of the highest-valued (point, value, history, converged,
    iterations) run, values scaled by ``sign``; ties keep the earliest run."""
    point, val, history, converged, iters = max(runs, key=lambda run: run[1])
    history = tuple(sign * h for h in history)
    return Certificate(kind, sign * val, witness(point), converged, iters, history=history)


def _sign_matrix(m: np.ndarray) -> np.ndarray:
    """sign(M) for Hermitian M: +1 on eigenvalues >= 0, -1 below."""
    w, u = hermitian_eigen(m)
    return (u * np.where(w >= 0.0, 1.0, -1.0)) @ u.conj().T


# ----- mirror ascent over density matrices -----


def _log_base(m: np.ndarray, lb: float) -> np.ndarray:
    return hermitian_log(m) / lb


def coherent_information_gradient(
    phi: KrausChannel, rho_mat: np.ndarray, base: float = 2.0
) -> np.ndarray:
    """Euclidean gradient of rho -> H(Phi(rho)) - H(complement(rho)).

    The identity components of both entropy gradients cancel because channel
    adjoints are unital, leaving adjoint-propagated logarithms.
    """
    return _ic_gradient(phi, complement(phi), rho_mat, math.log(_check_base(base)))


def reverse_coherent_information_gradient(
    phi: KrausChannel, rho_mat: np.ndarray, base: float = 2.0
) -> np.ndarray:
    """Euclidean gradient of rho -> H(rho) - H(complement(rho))."""
    return _rci_gradient(complement(phi), rho_mat, math.log(_check_base(base)))


def _ic_gradient(phi, comp, rho_mat, lb):
    out_log = _log_base(apply_mat(phi, rho_mat), lb)
    env_log = _log_base(apply_mat(comp, rho_mat), lb)
    return hermitize(adjoint_apply_mat(comp, env_log) - adjoint_apply_mat(phi, out_log))


def _rci_gradient(comp, rho_mat, lb):
    env_log = _log_base(apply_mat(comp, rho_mat), lb)
    return hermitize(adjoint_apply_mat(comp, env_log) - _log_base(rho_mat, lb))


def _mirror_step(rho: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    w, u = hermitian_eigen(hermitian_log(rho) + eta * grad)
    ew = np.exp(w - w.max())
    ew /= ew.sum()
    return (u * ew) @ u.conj().T


def _single_ascent(value_fn, grad_fn, rho, cfg):
    val = value_fn(rho)
    history = [val]
    eta = _STEP

    def step():
        nonlocal rho, val, eta
        grad = grad_fn(rho)

        def trial_at(e):
            trial = _mirror_step(rho, grad, e)
            return value_fn(trial), trial

        eta_ok, found = _line_search(trial_at, lambda t: t[0] > val + 1e-15, eta, 50)
        if found is None:
            return None
        gain = found[0] - val
        val, rho = found
        history.append(val)
        eta = min(eta_ok * 2.0, 4.0)
        return gain

    converged, it = _drive(step, cfg.max_iters)
    return rho, val, history, converged, it


def _ascent_seeds(d: int, cfg: OptimizerConfig) -> list:
    rng = np.random.default_rng(cfg.seed)
    eye = np.eye(d, dtype=complex)
    pointers = (np.outer(e, e) for e in eye[: min(d, _BASIS_SEED_CAP)])
    basis = [(1.0 - _BASIS_SEED_MIX) * p + _BASIS_SEED_MIX * eye / d for p in pointers]
    randoms = [random_density_matrix(d, rng).mat for _ in range(cfg.restarts)]
    return [eye / d, *basis, *randoms]


def _ascent_certificate(kind, phi, cfg, base, value_fn, grad_fn, sign=1) -> Certificate:
    """Best-of-seeds mirror ascent of value_fn(comp, m, base) over input matrices m of
    phi, comp = complement(phi); grad_fn(comp, m, log(base)) is its gradient."""
    base = _check_base(base)
    lb = math.log(base)
    comp = complement(phi)
    cfg = cfg or OptimizerConfig()
    runs = (
        _single_ascent(lambda m: value_fn(comp, m, base), lambda m: grad_fn(comp, m, lb), s, cfg)
        for s in _ascent_seeds(phi.d_in, cfg)
    )
    return _best_certificate(kind, runs, DensityMatrix, sign)


def maximize_coherent_information(
    phi: KrausChannel, cfg: OptimizerConfig | None = None, base: float = 2.0
) -> Certificate:
    """Best coherent information found over input states.

    The value is the exact coherent information of the witness state, so it
    is always a valid achievability certificate even when the search has not
    converged to the global optimum.
    """
    return _ascent_certificate(
        "Ic", phi, cfg, base, partial(_coherent_information_mat, phi), partial(_ic_gradient, phi)
    )


def minimize_coherent_information(
    phi: KrausChannel, cfg: OptimizerConfig | None = None, base: float = 2.0
) -> Certificate:
    """Lowest coherent information found; negative values certify distance
    from the degradable set."""

    # 0.0 - x, not -x: equal entropies score +0.0, as H(comp) - H(out) does
    def neg_ic(comp, m, b):
        return 0.0 - _coherent_information_mat(phi, comp, m, b)

    def neg_ic_gradient(comp, m, lb):
        return -_ic_gradient(phi, comp, m, lb)

    return _ascent_certificate("negIc", phi, cfg, base, neg_ic, neg_ic_gradient, sign=-1)


def maximize_reverse_coherent_information(
    phi: KrausChannel, cfg: OptimizerConfig | None = None, base: float = 2.0
) -> Certificate:
    """Best input entropy minus environment entropy found over input states."""
    return _ascent_certificate("L", phi, cfg, base, _reverse_coherent_information_mat, _rci_gradient)


# ----- see-saw lower bound on diamond-norm distance -----


def _output_gap(ext_phi: KrausChannel, ext_psi: KrausChannel, v: np.ndarray) -> np.ndarray:
    """(ext_phi - ext_psi)(|v><v|) for channels already tensored with Id."""
    rho = np.outer(v, v.conj())
    return apply_mat(ext_phi, rho) - apply_mat(ext_psi, rho)


def seesaw_objective(phi: KrausChannel, psi: KrausChannel, vec: np.ndarray) -> float:
    """Trace norm of ((Phi - Psi) (x) Id) applied to the given pure input.

    Any unit vector gives a valid diamond-norm lower bound; this re-evaluates
    a see-saw witness with the same output difference the search scores.
    """
    ext_phi, ext_psi = (tensor_with_identity(c, phi.d_in) for c in (phi, psi))
    return trace_norm(_output_gap(ext_phi, ext_psi, np.asarray(vec, dtype=complex).reshape(-1)))


def _seesaw_seeds(d_a: int, cfg: OptimizerConfig) -> list:
    rng = np.random.default_rng(cfg.seed)
    randoms = [random_pure_state(d_a * d_a, rng).vec for _ in range(cfg.restarts)]
    return [maximally_entangled(d_a).vec, *randoms]


def seesaw_diamond_lower(
    phi: KrausChannel, psi: KrausChannel, cfg: OptimizerConfig | None = None
) -> Certificate:
    """Certified diamond-norm distance lower bound via alternating updates.

    Alternates between the optimal distinguishing observable for the current
    input (a Hermitian sign matrix) and the best pure input for the current
    observable (a top eigenvector). Both half-steps are exact maximizations,
    so the objective never decreases.
    """
    if (phi.d_in, phi.d_out) != (psi.d_in, psi.d_out):
        raise ValueError("channels must share input and output dimensions")
    cfg = cfg or OptimizerConfig()
    d_a = phi.d_in
    ext_phi, ext_psi = (tensor_with_identity(c, d_a) for c in (phi, psi))

    def single(v):
        val = trace_norm(_output_gap(ext_phi, ext_psi, v))
        history = [val]

        def step():
            nonlocal v, val
            sign = _sign_matrix(_output_gap(ext_phi, ext_psi, v))
            m = adjoint_apply_mat(ext_phi, sign) - adjoint_apply_mat(ext_psi, sign)
            v_new = hermitian_eigen(m).eigenvectors[:, -1]
            val_new = trace_norm(_output_gap(ext_phi, ext_psi, v_new))
            if val_new < val:
                return None
            gain = val_new - val
            v, val = v_new, val_new
            history.append(val)
            return gain

        converged, it = _drive(step, cfg.max_iters)
        return v, val, history, converged, it

    runs = (single(v) for v in _seesaw_seeds(d_a, cfg))
    return _best_certificate("Diamond_lower", runs, lambda v: PureState(v, dims=(d_a, d_a)))


# ----- PPT geometry -----


def partial_transpose(mat: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second tensor factor of a bipartite operator."""
    da, db = dims
    n = da * db
    a = np.asarray(mat, dtype=complex)
    if a.shape != (n, n):
        raise ValueError(f"shape {a.shape} incompatible with dims {dims}")
    return a.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(n, n)


def _project_simplex(w: np.ndarray) -> np.ndarray:
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(u) + 1)
    k = idx[u - css / idx > 0][-1]
    tau = css[k - 1] / k
    return np.maximum(w - tau, 0.0)


def _project_density(mat: np.ndarray) -> np.ndarray:
    w, u = hermitian_eigen(mat)
    return (u * _project_simplex(w)) @ u.conj().T


def _project_pt_psd(mat: np.ndarray, dims) -> np.ndarray:
    g = partial_transpose(mat, dims)
    w, u = hermitian_eigen(g)
    clipped = (u * np.maximum(w, 0.0)) @ u.conj().T
    return partial_transpose(clipped, dims)


def project_ppt(mat: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Nearest PPT density matrix in Frobenius norm, via Dykstra alternation.

    Alternates exact projections onto the density-matrix set and onto the
    cone of operators with positive partial transpose, with Dykstra
    corrections so the limit is the true projection onto the intersection.
    Returns the density-matrix-side iterate, which is always a valid state.
    """
    x = hermitize(np.asarray(mat, dtype=complex))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    y = x
    for _ in range(_DYKSTRA_MAX_ITERS):
        y = _project_density(x + p)
        p = x + p - y
        x = _project_pt_psd(y + q, dims)
        q = y + q - x
        if np.linalg.norm(y - x) < _DYKSTRA_TOL:
            break
    return hermitize(y)


# ----- relative entropy of entanglement, certified from below -----


def _ree_terms(rho_t: np.ndarray, tr_rho_log_rho: float, sigma: np.ndarray, dims, lb):
    """Objective, gradient and dual certificate at one PPT candidate.

    The certificate uses convexity of sigma -> H(rho||sigma): the tangent
    plane at sigma minorizes the objective, and its minimum over density
    matrices with positive partial transpose is bounded below by the larger
    of the smallest eigenvalue of the gradient and the smallest eigenvalue
    of its partial transpose. The resulting number is a true lower bound on
    the relative entropy of entanglement of the regularized state no matter
    how far the search is from optimal.

    The candidate is mixed with weight 1e-4 of the maximally mixed state
    before evaluation. Without that floor, directions where the candidate's
    spectrum collapses give the gradient spurious eigenvalues of order
    -rho_mass/sigma_mass and the minorant becomes vacuous; with it, the
    spurious part is bounded by the 1e-9/1e-4 mass ratio while the objective
    moves by at most 1e-4 * log(dim). The tangent-plane inequality holds at
    the mixed candidate exactly, so validity is unaffected.
    """
    n = sigma.shape[0]
    sig = (1.0 - _SIGMA_FLOOR) * hermitize(sigma) + _SIGMA_FLOOR * np.eye(n) / n
    ws, us = hermitian_eigen(sig)
    ws = np.maximum(ws, 1e-300)
    rho_e = us.conj().T @ rho_t @ us
    f_nat = tr_rho_log_rho - float(np.real(np.log(ws) @ np.diag(rho_e).real))
    wa = ws[:, None]
    wb = ws[None, :]
    diff = wa - wb
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = (np.log(wa) - np.log(wb)) / diff
    near = np.abs(diff) <= _EIG_PAIR_GUARD
    kernel[near] = (2.0 / (wa + wb))[near]
    grad = hermitize(us @ (-kernel * rho_e) @ us.conj().T) / lb
    f = f_nat / lb
    lam = float(np.linalg.eigvalsh(grad)[0])
    lam_pt = float(np.linalg.eigvalsh(hermitize(partial_transpose(grad, dims)))[0])
    slope = float(np.real(np.trace(grad @ sig)))
    cert = max(0.0, f + max(lam, lam_pt) - slope)
    return f, grad, cert, sig


def _regularized(rho: DensityMatrix) -> tuple[np.ndarray, float, tuple[int, int]]:
    dims = _require_dims(rho)
    n = rho.dim
    rho_t = (1.0 - _RHO_FLOOR) * rho.mat + _RHO_FLOOR * np.eye(n) / n
    w = np.linalg.eigvalsh(rho_t)
    w = np.maximum(w, 1e-300)
    return rho_t, float((w * np.log(w)).sum()), dims


def ree_dual_certificate(rho: DensityMatrix, sigma: DensityMatrix, base: float = 2.0) -> float:
    """Re-evaluate the certified lower bound at a stored witness."""
    lb = math.log(_check_base(base))
    rho_t, tr_log, dims = _regularized(rho)
    _, _, cert, _ = _ree_terms(rho_t, tr_log, sigma.mat, dims, lb)
    return cert


def ree_ppt_lower(
    rho: DensityMatrix, cfg: OptimizerConfig | None = None, base: float = 2.0
) -> Certificate:
    """Certified lower bound on the relative entropy of entanglement.

    Runs projected gradient descent of H(rho||sigma) over PPT states sigma
    and keeps the best dual certificate seen at any iterate. ``value`` is
    that certificate (valid regardless of convergence), ``objective`` the
    best achieved relative entropy (an upper reference for the PPT
    relaxation), and the witness is the candidate behind ``value``. The
    input is mixed with weight 1e-9 of the maximally mixed state so
    logarithms stay finite; this perturbs the target by a comparable amount.
    """
    cfg = cfg or OptimizerConfig()
    lb = math.log(_check_base(base))
    rho_t, tr_log, dims = _regularized(rho)
    best_sigma = project_ppt(rho_t, dims)
    f, grad, cert, sig = _ree_terms(rho_t, tr_log, best_sigma, dims, lb)
    best_cert = cert
    history = [cert]
    eta = _STEP

    def step():
        nonlocal f, grad, cert, sig, best_cert, best_sigma, eta

        def trial_at(e):
            trial = project_ppt(sig - e * grad, dims)
            return (*_ree_terms(rho_t, tr_log, trial, dims, lb), trial)

        eta_ok, found = _line_search(trial_at, lambda t: t[0] < f - 1e-15, eta, 40)
        if found is None:
            return None
        gain = f - found[0]
        f, grad, cert, sig, candidate = found
        history.append(cert)
        if cert > best_cert:
            best_cert = cert
            best_sigma = candidate
        eta = min(eta_ok * 2.0, 10.0 * _STEP)
        return gain

    converged, it = _drive(step, cfg.max_iters)
    witness = DensityMatrix(best_sigma, dims)
    return Certificate(
        "ER_lower", best_cert, witness, converged, it, objective=f, history=tuple(history)
    )


# ----- trace distance to the PPT set (search estimate) -----


def trace_dist_to_ppt(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> Certificate:
    """Search estimate of min over PPT states of ||rho - sigma||_1.

    Projected subgradient descent with diminishing steps. The value is an
    achieved trace norm against a feasible PPT state, hence an upper
    reference for the separability distance, not a certified lower bound.
    """
    cfg = cfg or OptimizerConfig()
    dims = _require_dims(rho)
    sigma = project_ppt(rho.mat, dims)
    val = trace_norm(rho.mat - sigma)
    best_val = val
    best_sigma = sigma
    history = [val]
    last_improvement = 0
    for it in range(1, cfg.max_iters + 1):
        sign = _sign_matrix(hermitize(rho.mat - sigma))
        sigma = project_ppt(sigma + (_STEP / math.sqrt(it)) * sign, dims)
        val = trace_norm(rho.mat - sigma)
        history.append(val)
        if val < best_val - _TOL:
            last_improvement = it
        if val < best_val:
            best_val = val
            best_sigma = sigma
    converged = (cfg.max_iters - last_improvement) >= _STALL_LIMIT
    witness = DensityMatrix(best_sigma, dims)
    return Certificate(
        "Ds_oracle", best_val, witness, converged, cfg.max_iters, history=tuple(history)
    )
