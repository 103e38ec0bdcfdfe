"""Certified search routines feeding the distance bounds.

One driver, ``_drive``, runs the seeds of three searches in lockstep rounds
and alone applies the stop rule: a seed ends when no move improves,
``_STALL_LIMIT`` gains in a row fall below ``_TOL``, or ``max_iters`` runs
out. Each search supplies the step of one round:

* mirror ascent over density matrices for maximizing or minimizing coherent
  information and its reverse variant, one line-search trial of every seed
  per round through one stacked (S, n, n) mirror step; each seed carries the
  channel outputs its point was scored with, and its gradient reads them.
  A step's schedule (``_halvings``) is fixed when it starts: up to 50 step
  sizes, each half the last, those after the first only while size * slope
  >= ``_MARGIN``, slope being the value's derivative along the mirror path
  at size 0. A trial is accepted if it beats its seed's value by more than
  ``_MARGIN``; no move improves when the schedule runs out,
* a see-saw alternation giving certified lower bounds on diamond-norm
  distance between two channels, one alternation per seed and round,
* projected gradient descent over PPT states for the relative entropy of
  entanglement, with a dual minorant making every iterate a certificate.

The trace-norm search for the distance to the PPT set is the one search
outside the driver: it always runs ``max_iters`` diminishing steps.

Everything a Certificate reports as ``value`` is exactly evaluable from its
witness: each search scores with the code that re-checks it (the evaluators in
``channels.py``, ``seesaw_objective``, ``ree_dual_certificate``).
"""
from __future__ import annotations

import math
import operator
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
    MAX_DIM,
    DensityMatrix,
    _as_int,
    PureState,
    _check_symmetrizable,
    _eigh,
    _eigvalsh,
    _log_eigen,
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
_MARGIN = 1e-15  # a line-search trial must beat the current value by more than this
_STEP = 0.1  # initial step size; subgradient scale of the trace-distance oracle
_BASIS_SEED_CAP = 8
_BASIS_SEED_MIX = 1e-6
_RHO_FLOOR = 1e-9
_SIGMA_FLOOR = 1e-4
_EIG_PAIR_GUARD = 1e-13
_DYKSTRA_TOL = 1e-10
_DYKSTRA_MAX_ITERS = 200
_TRIAL_SWEEPS = 100  # a REE line-search trial whose projection needs more is rejected


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the search routines.

    ``restarts`` counts additional random seeds on top of the deterministic
    ones, drawn from ``seed``. ``max_iters`` caps the steps of each run; 0
    evaluates the start points only. The mirror ascents and the see-saw read
    all three fields; ``ree_ppt_lower`` and ``trace_dist_to_ppt`` read only
    ``max_iters`` and start from one deterministic point.
    """

    restarts: int = 8
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            value = _as_int(getattr(self, name), name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        if self.restarts > MAX_DIM:  # every start state is drawn before the search runs
            raise ValueError(f"restarts must be <= {MAX_DIM}, got {self.restarts}")


@dataclass(frozen=True)
class Certificate:
    """Outcome of a search, pinned to a re-evaluable witness.

    ``value`` is the certified quantity (its meaning depends on ``kind``),
    ``witness`` the state or vector achieving it, and ``objective`` an
    optional secondary achieved value. ``history`` depends on the search:
    the mirror ascents and the see-saw record the objective at the start
    and after each accepted step of the winning run; ``ree_ppt_lower`` the
    dual certificate at the start and at each accepted step (not the
    running best); ``trace_dist_to_ppt`` the trace distance at every
    iterate, the start included.
    """

    kind: str
    value: float
    witness: object
    converged: bool
    iterations: int
    objective: float | None = None
    history: tuple = ()


# ----- the search driver -----


def _drive(step, n: int, max_iters: int) -> list:
    """(converged, iterations) of each of ``n`` seeds run under the stop rule.

    ``step(running)`` advances the running seeds by one round and returns
    {seed: gain} for those that finished a step in it, the gain None when no
    move improved; a seed left out is mid-step.
    """
    stops = [None if max_iters else (False, 0)] * n
    stall, its = [0] * n, [0] * n
    running = [s for s in range(n) if stops[s] is None]
    while running:
        for s, gain in step(running).items():
            its[s] += 1
            stall[s] = stall[s] + 1 if gain is not None and gain < _TOL else 0
            converged = gain is None or stall[s] >= _STALL_LIMIT
            if converged or its[s] == max_iters:
                stops[s] = (converged, its[s])
        running = [s for s in running if stops[s] is None]
    return stops


def _halvings(eta: float, tries: int, slope: float = math.inf):
    """The step sizes a line search tries: eta, eta / 2, ..., ``tries`` of them, each after the
    first only while e * ``slope`` >= ``_MARGIN`` (a mirror step's first-order gain at e)."""
    for k in range(tries):
        if k and eta * slope < _MARGIN:
            return
        yield eta
        eta *= 0.5


def _best_certificate(kind, runs, witness, sign=1) -> Certificate:
    """Certificate of the highest-valued (point, value, history, converged,
    iterations) run, the lowest with ``sign`` -1; ties keep the earliest run."""
    point, val, history, converged, iters = (max if sign > 0 else min)(runs, key=lambda run: run[1])
    return Certificate(kind, val, witness(point), converged, iters, history=tuple(history))


def _sign_matrix(m: np.ndarray) -> np.ndarray:
    """sign(M) for Hermitian M: +1 on eigenvalues >= 0, -1 below."""
    w, u = hermitian_eigen(m)
    return (u * np.where(w >= 0.0, 1.0, -1.0)) @ u.conj().T


# ----- mirror ascent over density matrices -----


def _ic_gradient(phi, comp, outputs, log_rho, lb):  # log_rho unused: _rci_gradient's signature
    out_log, env_log = (hermitian_log(o) / lb for o in outputs)
    return hermitize(adjoint_apply_mat(comp, env_log) - adjoint_apply_mat(phi, out_log))


def _rci_gradient(comp, outputs, log_rho, lb):  # outputs: (comp(rho),)
    return hermitize(adjoint_apply_mat(comp, hermitian_log(outputs[0]) / lb) - log_rho / lb)


def _mirror_step(log_rho: np.ndarray, grad: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Trace-normalized exp(log_rho + eta * grad) per matrix of the stacks (eta per matrix).

    Both stacks are Hermitian as built (a ``_log_eigen`` log and a hermitized
    gradient), so their sum is symmetrized, not checked."""
    w, u = _eigh(hermitize(log_rho + eta[:, None, None] * grad))
    ew = np.exp(w - w[..., -1:])  # eigh sorts ascending: the last eigenvalue is the largest
    ew /= ew.sum(-1, keepdims=True)
    return (u * ew[..., None, :]) @ u.conj().swapaxes(-1, -2)


def _mirror_slope(w: np.ndarray, v: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Derivative at e = 0 of the value along ``_mirror_step(log rho, grad, e)``, per matrix of the stacks.

    rho = v diag(w) v^dag with w floored as in its log, and grad is the gradient of the value. In
    rho's eigenbasis, with G = v^dag grad v and mu = sum_i w_i G_ii, it is
    sum_ij |G_ij - mu delta_ij|^2 K_ij, K_ij the logarithmic mean of w_i and w_j (K_ii = w_i, and
    w_i where the logs tie within 1e-13): every term is >= 0, so rounding cannot make it negative."""
    g = v.conj().swapaxes(-1, -2) @ grad @ v
    diag = g.reshape(len(g), -1)[:, :: w.shape[-1] + 1]  # a view of each G_ii
    diag -= (w * diag.real).sum(-1, keepdims=True)
    log_w = np.log(w)
    dlog = log_w[:, :, None] - log_w[:, None, :]
    k = np.repeat(w[:, :, None], w.shape[-1], -1)  # w_i, kept on the diagonal and where the logs tie
    np.divide(w[:, :, None] - w[:, None, :], dlog, out=k, where=abs(dlog) > _EIG_PAIR_GUARD)
    return (abs(g) ** 2 * k).sum((-2, -1))


def _ascent_stack(value_fn, grad_fn, seeds, max_iters: int, sign: int = 1) -> list:
    """Mirror ascent of ``sign`` * ``value_fn`` from every matrix of the stack ``seeds`` in lockstep.

    Returns one (rho, value, history, converged, iterations) run per seed, in ``value_fn``'s own
    values. ``value_fn(stack)`` returns (values, outputs), outputs a tuple of stacks of the channel
    outputs it scored; ``grad_fn(outputs, log_rho)`` is its gradient at the matrices they came from.
    ``sign`` -1 negates both, so the ascent descends (by negation: a product with -1 could flip a
    complex zero). Each seed carries its rho's outputs and takes a trial's on accepting it, so no
    channel sees one matrix twice. A round sends the next trial of every running seed through one
    stacked mirror step and one stacked ``value_fn`` call, and the seeds starting a step through
    one ``_log_eigen``, one ``grad_fn`` and one ``_mirror_slope`` call, the slope read from the
    eigenpairs of the log. The slope fixes the step's schedule: from its second trial on, a step
    size e with e * slope < ``_MARGIN`` ends the search, as no smaller step's first-order gain
    clears the margin. Seeds never mix, so each follows the path it follows alone.
    """
    signed = operator.neg if sign < 0 else operator.pos
    rho = np.array(seeds, dtype=complex)
    vals, outs = value_fn(rho)
    history = [[v] for v in vals.tolist()]
    n = len(rho)
    etas, eta = [None] * n, [_STEP] * n  # etas[s]: seed s's line search, None between steps
    log_rho, grad = np.empty_like(rho), np.empty_like(rho)

    def step(running):
        if fresh := [s for s in running if etas[s] is None]:
            at = np.array(fresh)  # an index array indexes faster than a list
            log_rho[at], w, v = eigen = _log_eigen(rho[at])
            grad[at] = g = signed(grad_fn(tuple(o[at] for o in outs), eigen[0]))
            for s, slope in zip(fresh, _mirror_slope(w, v, g).tolist()):
                etas[s] = _halvings(eta[s], 50, slope)
        gains, idx, steps = {}, [], []
        for s in running:
            if (e := next(etas[s], None)) is None:
                gains[s] = None  # no step size improved, or no smaller one can
            else:
                idx.append(s)
                steps.append(e)
        if idx:
            at = np.array(idx)
            trial = _mirror_step(log_rho[at], grad[at], np.array(steps))
            trial_vals, trial_outs = value_fn(trial)
            for i, (s, e, v) in enumerate(zip(idx, steps, trial_vals.tolist())):
                if signed(v) > (cur := signed(history[s][-1])) + _MARGIN:
                    gains[s], rho[s] = signed(v) - cur, trial[i]
                    for o, t in zip(outs, trial_outs):
                        o[s] = t[i]
                    history[s].append(v)
                    eta[s], etas[s] = min(e * 2.0, 4.0), None
        return gains

    stops = _drive(step, n, max_iters)
    return [(rho[s], history[s][-1], history[s], *stops[s]) for s in range(n)]


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
    """Best-of-seeds mirror ascent of ``sign`` * value_fn(comp, m, base) = (value, outputs) over
    input matrices m, comp = complement(phi), certified with value_fn's own value (the lowest
    for ``sign`` -1); grad_fn(comp, outputs, log m, log(base)) is value_fn's gradient."""
    base = _check_base(base)
    lb = math.log(base)
    comp = complement(phi)
    cfg = cfg or OptimizerConfig()
    seeds = _ascent_seeds(phi.d_in, cfg)
    runs = _ascent_stack(
        lambda m: value_fn(comp, m, base), partial(grad_fn, comp, lb=lb), seeds, cfg.max_iters, sign
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
    return _ascent_certificate(
        "negIc", phi, cfg, base, partial(_coherent_information_mat, phi), partial(_ic_gradient, phi), sign=-1
    )


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

    vs = _seesaw_seeds(d_a, cfg)
    gaps = [_output_gap(ext_phi, ext_psi, v) for v in vs]  # each input's output difference, scored once
    history = [[trace_norm(gap)] for gap in gaps]

    def step(running):
        gains = {}
        for s in running:
            sign = _sign_matrix(gaps[s])
            m = adjoint_apply_mat(ext_phi, sign) - adjoint_apply_mat(ext_psi, sign)
            v = hermitian_eigen(m)[1][:, -1]
            val = trace_norm(gap := _output_gap(ext_phi, ext_psi, v))
            if val < (cur := history[s][-1]):
                gains[s] = None
            else:
                gains[s], vs[s], gaps[s] = val - cur, v, gap
                history[s].append(val)
        return gains

    stops = _drive(step, len(vs), cfg.max_iters)
    runs = [(vs[s], history[s][-1], history[s], *stops[s]) for s in range(len(vs))]
    return _best_certificate("Diamond_lower", runs, lambda v: PureState(v, dims=(d_a, d_a)))


# ----- PPT geometry -----


def _pt_index(a: np.ndarray, dims) -> np.ndarray:
    """Index i with ``a.take(i)`` the partial transpose of ``a``, checked square of side d_A * d_B."""
    da, db = (_as_int(x, "dims entry") for x in dims)
    if da < 1 or db < 1:
        raise ValueError(f"dims {dims} must both be at least 1")
    if a.shape != (da * db, da * db):
        raise ValueError(f"shape {a.shape} incompatible with dims {dims}")
    return np.arange(a.size).reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(a.shape)


def partial_transpose(mat: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second tensor factor of a bipartite operator."""
    a = np.asarray(mat, dtype=complex)
    return a.take(_pt_index(a, dims))


def _project_density(a: np.ndarray) -> np.ndarray:
    """Nearest density matrix to hermitize(``a``): its spectrum projected onto
    the probability simplex. The threshold is one pass over the spectrum,
    largest first, in Python floats: the same IEEE operations in the same
    order as a numpy running sum, without numpy's per-call cost on a short
    vector, and a sum past the largest float is inf without a warning."""
    w, u = _eigh(hermitize(a))
    acc, theta = 0.0, None
    for j, v in enumerate(reversed(w.tolist())):  # eigh sorts ascending
        acc += v
        t = (acc - 1.0) / (j + 1.0)
        if v - t > 0:  # theta is t at the last index where this holds
            theta = t
    if theta is None:  # near 1e16, w_max - (w_max - 1) rounds to 0
        raise ValueError(f"spectrum up to {w[-1]:.3g} too large to project onto density matrices")
    return (u * np.maximum(w - theta, 0.0)) @ u.conj().T


def project_ppt(mat: np.ndarray, dims: tuple[int, int], *, sweeps: int | None = None) -> np.ndarray | None:
    """Nearest PPT density matrix in Frobenius norm, via Dykstra alternation.

    The input is checked once (its split, finite entries small enough to
    symmetrize) and hermitized. A sweep, two bare eigendecompositions of
    hermitized iterates, projects exactly onto the density matrices
    (``_project_density``, once per sweep, so its calls count sweeps), then
    onto the cone with positive partial transpose; Dykstra's
    corrections p, q make the limit the projection onto the intersection. It stops
    once the two iterates lie within 1e-10 in Frobenius norm and returns the
    density-side iterate, always a valid state. By default it stops silently
    after 200 sweeps and returns that iterate unconverged; with ``sweeps`` given
    it returns None unless the stop test fires within that many sweeps, and
    otherwise the default call's bits.
    The written-out norm is ``np.linalg.norm`` bit for bit, with less overhead.
    """
    a = np.asarray(mat, dtype=complex)
    perm = _pt_index(a, dims)
    _check_symmetrizable(a)
    x = hermitize(a)
    p = q = np.zeros_like(x)
    y = x
    for _ in range(_DYKSTRA_MAX_ITERS if sweeps is None else sweeps):
        s = x + p
        y = _project_density(s)
        p = s - y
        s = y + q
        w, u = _eigh(hermitize(s.take(perm)))
        x = ((u * np.maximum(w, 0.0)) @ u.conj().T).take(perm)
        q = s - x
        d = (y - x).ravel()
        if math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag)) < _DYKSTRA_TOL:
            return hermitize(y)
    return hermitize(y) if sweeps is None else None


# ----- relative entropy of entanglement, certified from below -----


def _ree_objective(rho_t: np.ndarray, tr_rho_log_rho: float, sigma: np.ndarray, lb):
    """The objective f at the floored sig (see ``_ree_terms``) and the (sig, ws, us, rho_e) it reads."""
    n = sigma.shape[0]
    sig = (1.0 - _SIGMA_FLOOR) * hermitize(sigma) + _SIGMA_FLOOR * np.eye(n) / n
    ws, us = _eigh(sig)  # bare: hermitize(.) times a real scalar plus a real diagonal is exactly Hermitian
    ws = np.maximum(ws, _LOG_FLOOR)
    rho_e = us.conj().T @ rho_t @ us
    return (tr_rho_log_rho - float(np.real(np.log(ws) @ np.diag(rho_e).real))) / lb, (sig, ws, us, rho_e)


def _ree_terms(scored, dims, lb):
    """Objective, gradient and dual certificate at one PPT candidate sigma.

    ``scored`` is ``_ree_objective`` at sigma, all that the line search of
    ``ree_ppt_lower`` reads of a trial; the rest is made for the accepted one.

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
    f, (sig, ws, us, rho_e) = scored
    wa, wb = ws[:, None], ws[None, :]
    diff = wa - wb
    near = np.abs(diff) <= _EIG_PAIR_GUARD
    kernel = np.where(near, 2.0 / (wa + wb), (np.log(wa) - np.log(wb)) / np.where(near, 1.0, diff))
    grad = hermitize(us @ (-kernel * rho_e) @ us.conj().T) / lb
    lam = float(_eigvalsh(grad)[0])
    lam_pt = float(_eigvalsh(partial_transpose(grad, dims))[0])
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
    _, _, cert, _ = _ree_terms(_ree_objective(rho_t, tr_log, sigma.mat, lb), dims, lb)
    return cert


def ree_ppt_lower(
    rho: DensityMatrix, cfg: OptimizerConfig | None = None, base: float = 2.0
) -> Certificate:
    """Certified lower bound on the relative entropy of entanglement.

    Runs projected gradient descent of H(rho||sigma) over PPT states sigma
    and keeps the best dual certificate seen at any iterate. ``value`` is
    that certificate (valid regardless of convergence), ``objective`` the
    relative entropy at the last accepted, converged projection, or at the
    start projection when no step was accepted (the default ``project_ppt``
    call, which may stop unconverged at 200 sweeps), and the witness is the
    candidate behind ``value``. A line-search trial whose projection has not
    converged within 100 Dykstra sweeps (``_TRIAL_SWEEPS``) is rejected like
    one that does not lower the objective, so every accepted trial is a
    converged projection. The search and its certificate are for rho_t, the
    input mixed with weight 1e-9 of the maximally mixed state, not for the
    input itself. One run from the PPT projection of rho_t: of ``cfg`` only
    ``max_iters`` is read.
    """
    cfg = cfg or OptimizerConfig()
    lb = math.log(_check_base(base))
    rho_t, tr_log, dims = _regularized(rho)
    best_sigma = project_ppt(rho_t, dims)
    f, grad, cert, sig = _ree_terms(_ree_objective(rho_t, tr_log, best_sigma, lb), dims, lb)
    best_cert = cert
    history = [cert]
    eta = _STEP

    def step(_):
        nonlocal f, grad, sig, best_cert, best_sigma, eta
        for e in _halvings(eta, 40):
            trial = project_ppt(sig - e * grad, dims, sweeps=_TRIAL_SWEEPS)
            if trial is None:
                continue
            scored = _ree_objective(rho_t, tr_log, trial, lb)
            if scored[0] < f - _MARGIN:
                break
        else:
            return {0: None}  # the line search is exhausted: no step size improved
        gain = f - scored[0]
        f, grad, cert, sig = _ree_terms(scored, dims, lb)
        history.append(cert)
        if cert > best_cert:
            best_cert, best_sigma = cert, trial
        eta = min(e * 2.0, 10.0 * _STEP)
        return {0: gain}

    [(converged, it)] = _drive(step, 1, cfg.max_iters)
    witness = DensityMatrix(best_sigma, dims)
    return Certificate(
        "ER_lower", best_cert, witness, converged, it, objective=f, history=tuple(history)
    )


# ----- trace distance to the PPT set (search estimate) -----


def trace_dist_to_ppt(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> Certificate:
    """Search estimate of min over PPT states of ||rho - sigma||_1.

    Projected subgradient descent with diminishing steps, the one search
    outside ``_drive``: it always runs ``max_iters`` steps, as a stall rule
    moves its estimate. sigma is Dykstra's density-side iterate, PPT only
    to the projection's tolerance (eigenvalues of sigma^Gamma near -1e-8),
    so the value is an upper value for the PPT distance only up to that
    slack, and never a lower bound. Only for d_A * d_B <= 6, where PPT and
    separable states coincide, does it estimate the separability distance.
    One run from the PPT projection of the input: of ``cfg`` only
    ``max_iters`` is read.
    """
    cfg = cfg or OptimizerConfig()
    dims = _require_dims(rho)
    sigma = project_ppt(rho.mat, dims)
    val = trace_norm(gap := rho.mat - sigma)
    best_val, best_sigma = val, sigma
    history = [val]
    last_improvement = 0
    for it in range(1, cfg.max_iters + 1):
        sigma = project_ppt(sigma + (_STEP / math.sqrt(it)) * _sign_matrix(gap), dims)
        val = trace_norm(gap := rho.mat - sigma)
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
