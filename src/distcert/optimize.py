"""Certified search routines feeding the distance bounds.

Three searches share one stop rule (``_stall``): a search ends when no move
improves, ``_STALL_LIMIT`` gains in a row fall below ``_TOL``, or
``max_iters`` runs out. Each search is one loop:

* mirror ascent over density matrices for maximizing or minimizing coherent
  information and its reverse variant: ``_ascent_stack`` advances all seeds
  of one search in lockstep as one (S, n, n) stack, each along exactly the
  path it takes alone, and returns their runs,
* a see-saw alternation giving certified lower bounds on diamond-norm
  distance between two channels, its step repeated by ``_drive``,
* projected gradient descent over PPT states for the relative entropy of
  entanglement, with a dual minorant making every iterate a certificate; its
  step, repeated by ``_drive``, holds its own halving line search.

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
from .entropy import _check_base, _entropy_mat
from .linalg import (
    _LOG_FLOOR,
    DensityMatrix,
    PureState,
    _checked_eigh,
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
    """Repeat ``step`` (one move; its gain, or None when no move improves) until
    ``_stall`` converges, or ``max_iters`` runs out; (converged, iterations)."""
    stall = 0
    for it in range(1, max_iters + 1):
        if (stall := _stall(stall, step())) is None:
            return True, it
    return False, max_iters


def _stall(stall: int, gain) -> int | None:
    """Stall count after a step gaining ``gain``; None on convergence: no move
    improved (gain None) or ``_STALL_LIMIT`` gains in a row fell below ``_TOL``."""
    if gain is None:
        return None
    stall = stall + 1 if gain < _TOL else 0
    return None if stall >= _STALL_LIMIT else stall


def _halvings(eta: float, tries: int):
    """The step sizes a line search tries: eta, eta / 2, ..., ``tries`` of them."""
    for _ in range(tries):
        yield eta
        eta *= 0.5


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


def coherent_information_gradient(
    phi: KrausChannel, rho_mat: np.ndarray, base: float = 2.0
) -> np.ndarray:
    """Euclidean gradient of rho -> H(Phi(rho)) - H(complement(rho)).

    The identity components of both entropy gradients cancel because channel
    adjoints are unital, leaving adjoint-propagated logarithms.
    """
    return _ic_gradient(phi, complement(phi), rho_mat, None, math.log(_check_base(base)))


def reverse_coherent_information_gradient(
    phi: KrausChannel, rho_mat: np.ndarray, base: float = 2.0
) -> np.ndarray:
    """Euclidean gradient of rho -> H(rho) - H(complement(rho))."""
    return _rci_gradient(complement(phi), rho_mat, hermitian_log(rho_mat), math.log(_check_base(base)))


def _ic_gradient(phi, comp, rho_mat, log_rho, lb):  # log_rho unused: _rci_gradient's signature
    out_log = hermitian_log(apply_mat(phi, rho_mat)) / lb
    env_log = hermitian_log(apply_mat(comp, rho_mat)) / lb
    return hermitize(adjoint_apply_mat(comp, env_log) - adjoint_apply_mat(phi, out_log))


def _rci_gradient(comp, rho_mat, log_rho, lb):
    env_log = hermitian_log(apply_mat(comp, rho_mat)) / lb
    return hermitize(adjoint_apply_mat(comp, env_log) - log_rho / lb)


def _mirror_step(log_rho: np.ndarray, grad: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Trace-normalized exp(log_rho + eta * grad) per matrix of the stacks (eta per matrix)."""
    w, u = _checked_eigh(log_rho + eta[:, None, None] * grad)
    ew = np.exp(w - w.max(-1, keepdims=True))
    ew /= ew.sum(-1, keepdims=True)
    return (u * ew[..., None, :]) @ u.conj().swapaxes(-1, -2)


def _ascent_stack(value_fn, grad_fn, seeds, max_iters: int) -> list:
    """Mirror ascent from every matrix of the stack ``seeds`` in lockstep.

    Returns one (rho, value, history, converged, iterations) run per seed.
    A round sends the next trial of every running seed through one stacked
    mirror step and one stacked ``value_fn`` call, and the seeds that
    accepted and go on through one ``grad_fn(rho, log_rho)`` call. Seeds
    never mix, so each follows the path it follows alone.
    """
    rho = np.array(seeds, dtype=complex)
    vals = value_fn(rho).tolist()
    history = [[v] for v in vals]
    n = len(rho)
    runs = [None if max_iters else (rho[s], vals[s], history[s], False, 0) for s in range(n)]
    etas, eta, stall, its = [None] * n, [_STEP] * n, [0] * n, [0] * n
    log_rho, grad = np.empty_like(rho), np.empty_like(rho)

    def settle(s, gain) -> bool:  # seed s's step ended; True if it goes on
        stall[s] = _stall(stall[s], gain)
        if stall[s] is None or its[s] == max_iters:
            runs[s] = (rho[s], vals[s], history[s], stall[s] is None, its[s])
        return runs[s] is None

    running = fresh = [s for s in range(n) if runs[s] is None]
    while running:
        for s in fresh:  # seeds starting a step: one log of rho, one gradient each
            its[s] += 1
            etas[s] = _halvings(eta[s], 50)
        if fresh:
            log_rho[fresh] = hermitian_log(rho[fresh])
            grad[fresh] = grad_fn(rho[fresh], log_rho[fresh])
        idx, steps = [], []
        for s in running:
            if (e := next(etas[s], None)) is None:
                settle(s, None)  # no step size improved
            else:
                idx.append(s)
                steps.append(e)
        if not idx:
            break
        trial = _mirror_step(log_rho[idx], grad[idx], np.array(steps))
        fresh = []
        for s, e, t, v in zip(idx, steps, trial, value_fn(trial).tolist()):
            if v > vals[s] + 1e-15:
                gain = v - vals[s]
                rho[s], vals[s] = t, v
                history[s].append(v)
                eta[s] = min(e * 2.0, 4.0)
                if settle(s, gain):
                    fresh.append(s)
        running = [s for s in running if runs[s] is None]
    return runs


def _single_ascent(runs: list, s: int):
    """Seed s's run of an ``_ascent_stack``.

    A plain accessor, kept so that the benchmark's trace (``bench/spans.py``)
    can count restarts by its calls and read each run's accepted steps from
    its result.
    """
    return runs[s]


def _ascent_seeds(d: int, cfg: OptimizerConfig) -> list:
    rng = np.random.default_rng(cfg.seed)
    eye = np.eye(d, dtype=complex)
    pointers = (np.outer(e, e) for e in eye[: min(d, _BASIS_SEED_CAP)])
    basis = [(1.0 - _BASIS_SEED_MIX) * p + _BASIS_SEED_MIX * eye / d for p in pointers]
    randoms = [random_density_matrix(d, rng).mat for _ in range(cfg.restarts)]
    return [eye / d, *basis, *randoms]


def _ascent_certificate(kind, phi, cfg, base, value_fn, grad_fn, sign=1) -> Certificate:
    """Best-of-seeds mirror ascent of value_fn(comp, m, base) over input matrices m of
    phi, comp = complement(phi); grad_fn(comp, m, log m, log(base)) is its gradient."""
    base = _check_base(base)
    lb = math.log(base)
    comp = complement(phi)
    cfg = cfg or OptimizerConfig()
    seeds = _ascent_seeds(phi.d_in, cfg)
    runs = _ascent_stack(
        lambda m: value_fn(comp, m, base), partial(grad_fn, comp, lb=lb), seeds, cfg.max_iters
    )
    return _best_certificate(kind, (_single_ascent(runs, s) for s in range(len(runs))), DensityMatrix, sign)


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

    def neg_ic(comp, m, b):
        return -_coherent_information_mat(phi, comp, m, b)

    def neg_ic_gradient(comp, m, log_m, lb):
        return -_ic_gradient(phi, comp, m, log_m, lb)

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
            _, u = hermitian_eigen(m)
            v_new = u[:, -1]
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


def _four_index_shape(a: np.ndarray, dims) -> tuple[int, int, int, int]:
    """(d_A, d_B, d_A, d_B), after checking that ``a`` is square of side d_A * d_B."""
    da, db = dims
    if a.shape != (da * db, da * db):
        raise ValueError(f"shape {a.shape} incompatible with dims {dims}")
    return da, db, da, db


def partial_transpose(mat: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second tensor factor of a bipartite operator."""
    a = np.asarray(mat, dtype=complex)
    return a.reshape(_four_index_shape(a, dims)).transpose(0, 3, 2, 1).reshape(a.shape)


def _project_density(a: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Nearest density matrix to Hermitian ``a``: its spectrum projected onto
    the probability simplex; ``ranks`` is 1.0, 2.0, ..., n."""
    w, u = _checked_eigh(a)
    css = np.cumsum(w[::-1]) - 1.0  # eigh sorts ascending: w[::-1] is descending
    k = np.flatnonzero(w[::-1] - css / ranks > 0)[-1]
    return (u * np.maximum(w - css[k] / (k + 1), 0.0)) @ u.conj().T


def project_ppt(mat: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Nearest PPT density matrix in Frobenius norm, via Dykstra alternation.

    A sweep projects exactly onto the density matrices (``_project_density``,
    once per sweep, so its calls count sweeps), then onto the cone with positive
    partial transpose, each eigendecomposition behind the 1e-8 Hermiticity
    check; Dykstra's corrections p, q make the limit the projection onto the
    intersection. It stops once the two iterates lie within 1e-10 in Frobenius
    norm, or after 200 sweeps without any flag, and returns the density-side
    iterate, always a valid state.
    """
    a = np.asarray(mat, dtype=complex)
    four = _four_index_shape(a, dims)

    def pt(m):  # partial_transpose, its shape checked once above
        return m.reshape(four).transpose(0, 3, 2, 1).reshape(a.shape)

    x = hermitize(a)
    p = q = np.zeros_like(x)
    y = x
    ranks = np.arange(1.0, len(x) + 1)
    for _ in range(_DYKSTRA_MAX_ITERS):
        s = x + p
        y = _project_density(s, ranks)
        p = s - y
        s = y + q
        w, u = _checked_eigh(pt(s))
        x = pt((u * np.maximum(w, 0.0)) @ u.conj().T)
        q = s - x
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
    ws = np.maximum(ws, _LOG_FLOOR)
    rho_e = us.conj().T @ rho_t @ us
    f_nat = tr_rho_log_rho - float(np.real(np.log(ws) @ np.diag(rho_e).real))
    wa, wb = ws[:, None], ws[None, :]
    diff = wa - wb
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = (np.log(wa) - np.log(wb)) / diff
    near = np.abs(diff) <= _EIG_PAIR_GUARD
    kernel[near] = (2.0 / (wa + wb))[near]
    grad = hermitize(us @ (-kernel * rho_e) @ us.conj().T) / lb
    f = f_nat / lb
    lam = float(np.linalg.eigvalsh(grad)[0])
    lam_pt = float(np.linalg.eigvalsh(partial_transpose(grad, dims))[0])
    slope = float(np.real(np.trace(grad @ sig)))
    cert = max(0.0, f + max(lam, lam_pt) - slope)
    return f, grad, cert, sig


def _regularized(rho: DensityMatrix) -> tuple[np.ndarray, float, tuple[int, int]]:
    dims = _require_dims(rho)
    n = rho.dim
    rho_t = (1.0 - _RHO_FLOOR) * rho.mat + _RHO_FLOOR * np.eye(n) / n
    return rho_t, -_entropy_mat(rho_t, math.e), dims


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
        nonlocal f, grad, sig, best_cert, best_sigma, eta
        for e in _halvings(eta, 40):
            trial = project_ppt(sig - e * grad, dims)
            terms = _ree_terms(rho_t, tr_log, trial, dims, lb)
            if terms[0] < f - 1e-15:
                break
        else:
            return None  # the line search is exhausted: no step size improved
        gain = f - terms[0]
        f, grad, cert, sig = terms
        history.append(cert)
        if cert > best_cert:
            best_cert, best_sigma = cert, trial
        eta = min(e * 2.0, 10.0 * _STEP)
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
    best_val, best_sigma = val, sigma
    history = [val]
    last_improvement = 0
    for it in range(1, cfg.max_iters + 1):
        sign = _sign_matrix(rho.mat - sigma)
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
