"""Certified search routines feeding the distance bounds.

One driver, ``_drive``, runs the seeds of three searches in lockstep rounds
and alone applies the stop rule: a seed ends when no move improves,
``_STALL_LIMIT`` gains in a row fall below ``_TOL``, or ``max_iters`` runs
out, and a mirror-ascent seed also when its step reports it retired. Each
search supplies the step of one round:

* mirror ascent over density matrices for maximizing or minimizing coherent
  information and its reverse variant, one line-search trial of every seed
  per round through one stacked (S, n, n) mirror step; each seed carries the
  channel outputs its point was scored with, and its gradient reads them.
  A step's schedule (``_halvings``) is fixed when it starts: up to 50 step
  sizes, each half the last, those after the first only while size * slope
  >= ``_MARGIN``, slope being the value's derivative along the mirror path
  at size 0. The first size is ``_STEP`` at a seed's first step; later, a
  Barzilai-Borwein step <S, S> / -<S, Y> from the changes S of log rho and Y
  of the gradient since the seed's last step start (inner products of
  traceless parts), capped at 4, where <S, Y> < 0, and otherwise twice the
  last accepted size, capped at 4. A trial is accepted if it beats its
  seed's value by more than ``_MARGIN``; no move improves when the schedule
  runs out. A seed about to start a step retires, keeping its point and
  value, if another seed (running or ended) is at least as good and lies
  within Frobenius distance ``_COINCIDE`` of it; at least as good means a
  higher signed value, or an equal one at a lower index. Values only rise,
  so the best-of-seeds winner (earliest on ties) is never a retired seed,
* a see-saw alternation giving certified lower bounds on diamond-norm
  distance between two channels, one alternation per seed and round,
* projected gradient descent over PPT states for the relative entropy of
  entanglement at d_A * d_B <= 6 and >= 10, with a dual minorant making
  every iterate a certificate.

Two searches run outside the driver, on one Newton log-barrier engine,
``_newton_barrier``, whose ``max_iters`` caps their Newton steps: the
relative entropy of entanglement at d_A * d_B from 7 to 9, certified at its
last iterate, and the trace-norm estimate of the distance to the PPT set.

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
_STEP = 0.1  # initial step size of the mirror ascents and of the REE descent
_BASIS_SEED_CAP = 8
_BASIS_SEED_MIX = 1e-6
_RHO_FLOOR = 1e-9
_SIGMA_FLOOR = 1e-4
_EIG_PAIR_GUARD = 1e-13
_DYKSTRA_TOL = 1e-10
_DYKSTRA_MAX_ITERS = 200
_TRIAL_SWEEPS = 100  # a REE line-search trial whose projection needs more is rejected
_GAP_TOL = 1e-9  # a barrier solve ends once nu / t is this small
_CENTER_TOL = 1e-10  # a centering ends once the squared Newton decrement is this small
_BARRIER_DIMS = range(7, 10)  # d_A * d_B at which ree_ppt_lower runs on the barrier engine
_SPLIT_HALVINGS = 50  # bisection steps of the interior split's search over s
_COINCIDE = 1e-2  # a mirror-ascent seed this close (Frobenius) to one at least as good retires
_RETIRED = object()  # the gain a step reports for a seed that retires


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
    and after each accepted step of the winning run; ``ree_ppt_lower``'s
    descent the dual certificate at the start and at each accepted step
    (not the running best), and its barrier the relative entropy at the
    start and after each Newton step; ``trace_dist_to_ppt`` the trace
    distance at every iterate, the start included.
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
    move improved and ``_RETIRED`` when the seed retires before starting a
    step; a seed left out is mid-step. A retired seed's converged is None and
    its iterations count the steps it took.
    """
    stops = [None if max_iters else (False, 0)] * n
    stall, its = [0] * n, [0] * n
    running = [s for s in range(n) if stops[s] is None]
    while running:
        for s, gain in step(running).items():
            if gain is _RETIRED:
                stops[s] = (None, its[s])
                continue
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


def _traceless_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A^dag B) - tr A tr B / n per matrix of the Hermitian stacks: the inner product of their
    traceless parts, blind to the multiple of I that a mirror step's normalization drops."""
    tr_a, tr_b = (m.trace(axis1=-2, axis2=-1).real for m in (a, b))
    return (a.conj() * b).real.sum((-2, -1)) - tr_a * tr_b / a.shape[-1]


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
    clears the margin. The schedule starts at ``_STEP`` on a seed's first step. On a later one it
    starts at the Barzilai-Borwein step <S, S>_0 / -<S, Y>_0, capped at 4, if <S, Y>_0 < 0, with S
    and Y the changes of log rho and of the signed gradient since the seed's last step start and
    <A, B>_0 = Re tr(A^dag B) - tr A tr B / n (a multiple of I does not move a mirror step);
    otherwise at twice the size the seed last accepted, capped at 4.

    A seed about to start a step retires (converged None, its iterations the steps it took) if
    another seed, running or ended, is at least as good and within Frobenius distance
    ``_COINCIDE``: its signed value is higher, or equal at a lower index. A retired seed keeps its
    point and value and takes no further trial. Seeds interact only through that rule, so a seed
    that does not retire follows the path it follows alone, and a retired seed's history is a
    prefix of that path. A seed's value only rises, and a retired one no longer moves, so the
    seed that ends best (earliest on ties) is never retired: the certificate and its converged
    flag and iterations come from a seed that stopped by its own rule.
    """
    signed = operator.neg if sign < 0 else operator.pos
    rho = np.array(seeds, dtype=complex)
    vals, outs = value_fn(rho)
    history = [[v] for v in vals.tolist()]
    n = len(rho)
    etas, eta = [None] * n, [_STEP] * n  # etas[s]: seed s's line search, None between steps
    log_rho, grad = np.zeros_like(rho), np.zeros_like(rho)  # zeros: a first step reads them unused

    def step(running):
        gains = {}
        if fresh := [s for s in running if etas[s] is None]:
            at = np.array(fresh)  # an index array indexes faster than a list
            held = signed(np.array([h[-1] for h in history]))
            flat = rho.reshape(n, -1)
            sq = (flat.conj() * flat).real.sum(1)
            # squared distances, clamped at 0 against rounding: a _COINCIDE of 0 retires no seed
            dist2 = np.maximum(sq[at, None] + sq - 2.0 * (flat[at].conj() @ flat.T).real, 0.0)
            near = dist2 < _COINCIDE**2
            ahead = (held > held[at, None]) | ((held == held[at, None]) & (np.arange(n) < at[:, None]))
            retired = (near & ahead).any(1)
            gains = dict.fromkeys(at[retired].tolist(), _RETIRED)
            fresh, at = at[~retired].tolist(), at[~retired]
        if fresh:
            new_log, w, v = _log_eigen(rho[at])
            g = signed(grad_fn(tuple(o[at] for o in outs), new_log))
            moved = new_log - log_rho[at]
            ss, sy = (_traceless_inner(moved, x).tolist() for x in (moved, g - grad[at]))
            log_rho[at], grad[at] = new_log, g
            for s, slope, a, b in zip(fresh, _mirror_slope(w, v, g).tolist(), ss, sy):
                if len(history[s]) > 1 and b < 0.0:  # a step started before, and the value curved down since
                    eta[s] = min(a / -b, 4.0)
                etas[s] = _halvings(eta[s], 50, slope)
        idx, steps = [], []
        for s in running:
            if s in gains:
                continue
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


def project_ppt(
    mat: np.ndarray, dims: tuple[int, int], sweeps: int = _DYKSTRA_MAX_ITERS
) -> tuple[np.ndarray, bool]:
    """(nearest PPT density matrix in Frobenius norm, converged), via Dykstra alternation.

    The input is checked once (its split, finite entries small enough to
    symmetrize) and hermitized. A sweep, two bare eigendecompositions of
    hermitized iterates, projects exactly onto the density matrices
    (``_project_density``, once per sweep, so its calls count sweeps), then
    onto the cone with positive partial transpose; Dykstra's
    corrections p, q make the limit the projection onto the intersection. It stops
    once the two iterates lie within 1e-10 in Frobenius norm, or after ``sweeps``
    sweeps (200 by default), and returns the hermitized density-side iterate,
    always a valid state, with whether the stop test fired. Only then is the
    iterate the projection, the same bits under any larger budget.
    The written-out norm is ``np.linalg.norm`` bit for bit, with less overhead.
    """
    a = np.asarray(mat, dtype=complex)
    perm = _pt_index(a, dims)
    _check_symmetrizable(a)
    x = y = hermitize(a)
    p = q = np.zeros_like(x)
    for _ in range(sweeps):
        s = x + p
        y = _project_density(s)
        p = s - y
        s = y + q
        w, u = _eigh(hermitize(s.take(perm)))
        x = ((u * np.maximum(w, 0.0)) @ u.conj().T).take(perm)
        q = s - x
        d = (y - x).ravel()
        if math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag)) < _DYKSTRA_TOL:
            return hermitize(y), True
    return hermitize(y), False


# ----- the log-barrier engine -----


def _hermitian_basis(n: int) -> np.ndarray:
    """(n * n, n * n): column j the row-major vec of member j of an orthonormal basis of the
    Hermitian n x n matrices (inner product Re tr(A^dag B)): the traceless diagonal (Helmert)
    matrices, then I / sqrt(n) at column n - 1, then the off-diagonal pairs."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    for k in range(1, n):
        basis[k - 1, range(k), range(k)] = 1.0 / math.sqrt(k * (k + 1))
        basis[k - 1, k, k] = -k / math.sqrt(k * (k + 1))
    basis[n - 1] = np.eye(n) / math.sqrt(n)
    a, b = np.triu_indices(n, 1)
    j = np.arange(n, n + len(a))
    basis[j, a, b] = basis[j, b, a] = 1.0 / math.sqrt(2.0)
    basis[j + len(a), a, b] = 1j / math.sqrt(2.0)
    basis[j + len(a), b, a] = -1j / math.sqrt(2.0)
    return basis.reshape(n * n, n * n).T


def _newton_barrier(lift, nu, objective, blocks, z, t, max_iters, visit):
    """(z, Newton steps, converged) of a primal log-barrier solve from the strictly feasible ``z``.

    It minimises f over real coordinates z. ``objective(x)`` returns f's value at the blocks
    ``x = blocks(z)``, a (k, n, n) stack that must stay positive definite, and a callable giving
    its gradient and Hessian there, called for the points the solve moves to; ``lift``
    (k, n * n, m) holds d vec(block) / dz. A Hessian of None marks a linear f: its value goes
    unread, and a step's change of f is e * (gradient . dz). Each centering takes Newton steps
    on t f - sum of the blocks' log determinants; the barrier's Hessian sums Re tr(Y E_i Y E_j)
    over the blocks (Y a block's inverse, from ``_eigh``). The system is solved Jacobi-scaled, and
    a backtracking line search of up to 12 halvings keeps every block positive definite and asks
    for a quarter of the first-order decrease. A centering ends when the squared Newton decrement
    is at most ``_CENTER_TOL``, when it has stopped falling (no new low of the centering for
    ``_STALL_LIMIT`` steps in a row), or, at the working precision, when 12 halvings cannot lower
    the objective; then t grows 8x, until ``nu`` / t <= ``_GAP_TOL``. ``converged`` says that the
    solve got there with its last centering ended by one of those tests, not by the ``max_iters``
    cap on Newton steps. ``visit(x, f)`` sees the blocks and f's value (None if linear) after every
    accepted step.
    """
    k, nn, m = lift.shape
    x = blocks(z)
    f, derivatives = objective(x)
    f_grad, f_hess = derivatives()
    steps = 0
    while True:
        low, stuck = math.inf, 0  # the centering's lowest squared decrement, and the steps since
        while steps < max_iters:
            w, u = _eigh(x)
            r = (u * w[:, None, :] ** -0.5) @ u.conj().swapaxes(1, 2)  # Y^(1/2) of each block
            g = (np.einsum("kac,kdb->kabcd", r, r).reshape(k, nn, nn) @ lift).reshape(-1, m)
            hess = g.real.T @ g.real + g.imag.T @ g.imag
            if f_hess is not None:
                hess += t * f_hess
            grad = t * f_grad - np.einsum("kij,ki->j", lift.conj(), (r @ r).reshape(k, nn)).real
            scale = 1.0 / np.sqrt(np.diag(hess))
            dz = np.linalg.solve(hess * scale[:, None] * scale, -grad * scale) * scale
            decrement = float(-grad @ dz)
            low, stuck = (decrement, 0) if decrement < low else (low, stuck + 1)
            if decrement <= _CENTER_TOL or stuck == _STALL_LIMIT:
                break
            for e in _halvings(1.0, 12):
                w_new = _eigvalsh(x_new := blocks(z + e * dz))
                if not (w_new[:, 0] > 0.0).all():
                    continue
                if f_hess is None:
                    change = t * e * float(f_grad @ dz)
                else:
                    f_new, derivatives = objective(x_new)
                    change = t * (f_new - f)
                # the change of the barrier objective, summed from differences
                if change - float(np.log(w_new / w).sum()) <= -0.25 * e * decrement:
                    break
            else:
                break  # backtracking cannot lower the barrier objective
            z, x = z + e * dz, x_new
            if f_hess is not None:
                f, (f_grad, f_hess) = f_new, derivatives()
            steps += 1
            visit(x, f)
        else:
            return z, steps, False  # the step cap cut the last centering short
        if nu / t <= _GAP_TOL:
            return z, steps, True
        t *= 8.0


# ----- relative entropy of entanglement, certified from below -----


def _ree_objective(rho_t: np.ndarray, tr_rho_log_rho: float, sigma: np.ndarray, lb):
    """The objective f, ``_ree_point`` at the floored sig (see ``_ree_terms``) with its spectrum
    floored at ``_LOG_FLOOR``, and the (sig, ws, us, rho_e) it reads."""
    n = sigma.shape[0]
    sig = (1.0 - _SIGMA_FLOOR) * hermitize(sigma) + _SIGMA_FLOOR * np.eye(n) / n
    ws, us = _eigh(sig)  # bare: hermitize(.) times a real scalar plus a real diagonal is exactly Hermitian
    f, point = _ree_point(rho_t, tr_rho_log_rho, np.maximum(ws, _LOG_FLOOR), us, lb)
    return f, (sig, *point)


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


def _log_first(w: np.ndarray) -> np.ndarray:
    """log[w_i, w_j], the first divided differences of log at the positive spectrum w, accurate
    near ties: log1p((hi - lo) / lo) / (hi - lo) of the pair's values, and 1 / w_i at a tie."""
    lo, hi = np.minimum.outer(w, w), np.maximum.outer(w, w)
    gap = hi - lo
    return np.divide(np.log1p(gap / lo), gap, out=1.0 / lo, where=gap > 0.0)


def _log_second(w: np.ndarray, first: np.ndarray) -> np.ndarray:
    """log[w_i, w_k, w_j] at (i, k, j) for the ascending positive spectrum w and its ``_log_first``:
    (log[hi, mid] - log[mid, lo]) / (hi - lo) over the triple's sorted values, and -1 / (2 hi lo)
    where hi - lo <= 1e-8 hi."""
    a, b, c = np.sort(np.indices((len(w),) * 3), axis=0)  # index order is value order
    spread = w[c] - w[a]
    wide = spread > 1e-8 * w[c]
    return np.where(wide, (first[c, b] - first[b, a]) / np.where(wide, spread, 1.0), -0.5 / (w[a] * w[c]))


def _ree_point(rho_t, tr_log, w, u, lb):
    """D(rho_t || sigma) in units of log(base) at the positive definite sigma = u diag(w) u^dag,
    and the (w, u, rho_e) it reads, rho_e = u^dag rho_t u."""
    rho_e = u.conj().T @ rho_t @ u
    return (tr_log - float(np.log(w) @ np.diag(rho_e).real)) / lb, (w, u, rho_e)


def _ree_gradient(point, lb) -> tuple[np.ndarray, np.ndarray]:
    """The gradient matrix G of D(rho_t || .) at a ``_ree_point``'s sigma, and the ``_log_first`` it reads."""
    w, u, rho_e = point
    first = _log_first(w)
    return hermitize(u @ (-first * rho_e) @ u.conj().T) / lb, first


def _interior_split(rho_t, tr_log, sigma, dims, lb) -> float:
    """The tangent-plane bound at sigma split into the interior: -inf unless sigma and sigma^Gamma
    are positive definite, else f - tr(G sigma) + the largest lambda_min(G - s C) found over s >= 0,
    f = D(rho_t || sigma), G its gradient and C = sigma^-1 + ((sigma^Gamma)^-1)^Gamma.

    lambda_min(G - s C) is concave in s and, as tr(C sigma) = 2n, below lambda_min(G) past
    s_hi = (tr(G sigma) - lambda_min(G)) / 2n. The search takes s = 0 and ``_SPLIT_HALVINGS``
    bisection points of log2(s / s_hi) over [-64, 0], each step going the way the
    supergradient -v^dag C v (v a lowest eigenvector) points."""
    perm = _pt_index(sigma, dims)
    (w, wp), (u, up) = _eigh(np.stack([sigma, sigma.take(perm)]))
    if not (w[0] > 0.0 and wp[0] > 0.0):
        return -math.inf
    f, point = _ree_point(rho_t, tr_log, w, u, lb)
    grad, _ = _ree_gradient(point, lb)
    c = hermitize((u / w) @ u.conj().T + ((up / wp) @ up.conj().T).take(perm))
    slope = float(np.real(np.trace(grad @ sigma)))
    best = float(_eigvalsh(grad)[0])
    s_hi = (slope - best) / (2 * len(sigma))
    lo, hi = -64.0, 0.0
    for _ in range(_SPLIT_HALVINGS if s_hi > 0.0 else 0):
        mid = 0.5 * (lo + hi)
        ws, vs = _eigh(grad - s_hi * 2.0**mid * c)
        best = max(best, float(ws[0]))
        v = vs[:, 0]
        lo, hi = (mid, hi) if float(np.real(v.conj() @ c @ v)) < 0.0 else (lo, mid)
    return f - slope + best


def _ree_certificate(rho_t, tr_log, sigma, dims, lb) -> float:
    """The larger of the corner split at the floored sigma (``_ree_terms``) and the interior split."""
    corner = _ree_terms(_ree_objective(rho_t, tr_log, sigma, lb), dims, lb)[2]
    return max(corner, _interior_split(rho_t, tr_log, sigma, dims, lb))


def ree_dual_certificate(rho: DensityMatrix, sigma: DensityMatrix, base: float = 2.0) -> float:
    """Re-evaluate the certified lower bound at a stored witness sigma.

    sigma -> D(rho_t || sigma) is convex, rho_t being rho mixed with weight
    1e-9 of I/n, so its tangent plane at a positive definite point minorizes
    it: every PPT tau has D(rho_t || tau) >= f - tr(G s0) + tr(G tau), f and
    G the value and gradient at the point s0. The value is the larger of two
    lower bounds on min tr(G tau) over PPT density matrices tau:

    * the corner split at s0 = sigma mixed with weight 1e-4 of I/n
      (``_ree_terms``): tr(G tau) >= max(lambda_min G, lambda_min G^Gamma);
    * the interior split at s0 = sigma itself, when sigma and sigma^Gamma
      are positive definite (``_interior_split``): tr(G tau) >=
      lambda_min(G - s C) with C = sigma^-1 + ((sigma^Gamma)^-1)^Gamma, for
      every s >= 0, since tr(sigma^-1 tau) >= 0 and
      tr(((sigma^Gamma)^-1)^Gamma tau) = tr((sigma^Gamma)^-1 tau^Gamma) >= 0;
      s comes from a deterministic bisection of fixed length. At a central
      point of ``ree_ppt_lower``'s barrier, s = 1 / t leaves a gap of 2n / t.

    A Dykstra projection is PPT only to its stop test, so the interior split
    does not apply at the descent's witnesses. Both engines of
    ``ree_ppt_lower`` report this value at their witness, from the same code.
    """
    lb = math.log(_check_base(base))
    rho_t, tr_log, dims = _regularized(rho)
    return _ree_certificate(rho_t, tr_log, sigma.mat, dims, lb)


def _ree_barrier(rho_t, tr_log, dims, lb, max_iters: int) -> Certificate:
    """``ree_ppt_lower`` on ``_newton_barrier``: minimise t D(rho_t || sigma) - log det sigma -
    log det sigma^Gamma over trace-one sigma = I/n + the traceless basis times z, from z = 0 and
    t = 2n / max(D(rho_t || I/n), 1)."""
    n = len(rho_t)
    perm = _pt_index(rho_t, dims)
    traceless = np.delete(_hermitian_basis(n), n - 1, axis=1)
    lift = np.stack([traceless, traceless[perm.ravel()]])
    members = traceless.T.reshape(-1, n, n)  # the basis matrices E_c
    eye = np.eye(n)

    def blocks(z):
        sigma = hermitize(eye / n + (traceless @ z).reshape(n, n))
        return np.stack([sigma, sigma.take(perm)])

    def objective(x):
        f, point = _ree_point(rho_t, tr_log, *_eigh(x[0]), lb)

        def derivatives():
            # in sigma's eigenbasis, e[k, i, c] = (u^dag E_c u)_ki and
            # a[k, i, j] = log[w_i, w_k, w_j] (rho_e)_ji; the Hessian entry (c, d) is
            # -tr rho_t D^2 log(sigma)[E_c, E_d] = -2 Re sum_k (e[k]^dag a[k] e[k])_cd
            grad, first = _ree_gradient(point, lb)
            w, u, rho_e = point
            e = (u.conj().T @ members @ u).transpose(1, 2, 0)
            a = _log_second(w, first).transpose(1, 0, 2) * rho_e.T
            hess = (-2.0 / lb) * (e.reshape(n * n, -1).conj().T @ (a @ e).reshape(n * n, -1)).real
            return (traceless.conj().T @ grad.ravel()).real, hess

        return f, derivatives

    z = np.zeros(n * n - 1)
    history = [objective(blocks(z))[0]]
    nu = 2.0 * n
    t = nu / max(history[0], 1.0)
    z, steps, converged = _newton_barrier(
        lift, nu, objective, blocks, z, t, max_iters, lambda x, f: history.append(f)
    )
    witness = DensityMatrix(blocks(z)[0], dims)
    value = _ree_certificate(rho_t, tr_log, witness.mat, dims, lb)
    return Certificate(
        "ER_lower", value, witness, converged, steps, objective=history[-1], history=tuple(history)
    )


def _ree_descent(rho_t, tr_log, dims, lb, max_iters: int) -> Certificate:
    """``ree_ppt_lower`` by projected gradient descent from the PPT projection of rho_t."""
    best_sigma, start_converged = project_ppt(rho_t, dims)
    f, grad, cert, sig = _ree_terms(_ree_objective(rho_t, tr_log, best_sigma, lb), dims, lb)
    best_cert = cert
    history = [cert]
    eta = _STEP

    def step(_):
        nonlocal f, grad, sig, best_cert, best_sigma, eta
        for e in _halvings(eta, 40):
            trial, ok = project_ppt(sig - e * grad, dims, _TRIAL_SWEEPS)
            if not ok:
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

    [(converged, it)] = _drive(step, 1, max_iters)
    witness = DensityMatrix(best_sigma, dims)
    value = _ree_certificate(rho_t, tr_log, witness.mat, dims, lb)
    objective = f if start_converged or len(history) > 1 else None
    return Certificate("ER_lower", value, witness, converged, it, objective=objective, history=tuple(history))


def ree_ppt_lower(
    rho: DensityMatrix, cfg: OptimizerConfig | None = None, base: float = 2.0
) -> Certificate:
    """Certified lower bound on the relative entropy of entanglement.

    Minimises H(rho_t||sigma) over PPT states sigma, rho_t being the input
    mixed with weight 1e-9 of the maximally mixed state: the search and its
    certificate are for rho_t, not for the input itself. ``value`` is
    ``ree_dual_certificate`` at the witness, valid regardless of convergence.
    Of ``cfg`` only ``max_iters`` is read; each engine makes one run from one
    deterministic start.

    At d_A * d_B from 7 to 9 it runs on the log-barrier engine: Newton steps
    on t H(rho_t||sigma) - log det sigma - log det sigma^Gamma over trace-one
    sigma from I/n, t growing 8x per centering until 2n / t <= 1e-9, the
    Hessian of -tr rho_t log sigma read from the second divided differences
    of log in sigma's eigenbasis. ``max_iters`` caps the Newton steps, the
    witness is the last iterate (sigma and sigma^Gamma positive definite, so
    the interior split applies), ``objective`` the relative entropy there
    and ``history`` the relative entropy at the start and after each step.
    A dense Newton step costs O(n^6), so above n = 9 the descent is faster.

    At every other size it runs projected gradient descent and keeps the
    candidate with the best corner split (``_ree_terms``) seen at any
    iterate as the witness. ``objective`` is the relative entropy at the
    last accepted, converged projection, or at the start projection when no
    step was accepted. The start is the PPT projection of rho_t capped at
    200 Dykstra sweeps; if it has not converged by then and no step is
    accepted, ``objective`` is None, as the start need not be PPT. A
    line-search trial whose projection has not converged within 100 Dykstra
    sweeps (``_TRIAL_SWEEPS``) is rejected like one that does not lower the
    objective, so every accepted trial is a converged projection.
    ``history`` holds the corner split at the start and at each accepted
    step (not the running best).
    """
    cfg = cfg or OptimizerConfig()
    lb = math.log(_check_base(base))
    rho_t, tr_log, dims = _regularized(rho)
    search = _ree_barrier if rho.dim in _BARRIER_DIMS else _ree_descent
    return search(rho_t, tr_log, dims, lb, cfg.max_iters)


# ----- trace distance to the PPT set (search estimate) -----


def trace_dist_to_ppt(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> Certificate:
    """Search estimate of min over PPT states of ||rho - sigma||_1.

    A primal log-barrier solve of the SDP: minimise tr P + tr N, N = P - rho
    + sigma, over sigma, sigma^Gamma, P, N > 0 with tr sigma = 1 (barrier
    parameter nu = 4n, n = d_A * d_B). The coordinates are real ones of P
    and of sigma = I/n + a traceless part, so tr sigma is 1 by construction.
    ``_newton_barrier`` runs the solve on the linear objective tr P + tr N
    from t = nu / (tr P + tr N) at the start, which is rho mixed with I/n
    just past the PPT boundary.

    Every iterate's sigma and sigma^Gamma have positive eigenvalues, so the
    witness (the lowest-valued iterate) is PPT and ``value``, its trace
    distance to rho, is an upper value for the PPT distance, never a lower
    bound. A Newton step costs O(n^6): the design point is n <= 6, where PPT
    and separable states coincide and the value estimates the distance to
    the separable set. Of ``cfg`` only ``max_iters`` is read, as the cap on
    Newton steps.
    """
    cfg = cfg or OptimizerConfig()
    dims = _require_dims(rho)
    n, nn = rho.dim, rho.dim**2
    perm = _pt_index(rho.mat, dims)
    basis = _hermitian_basis(n)
    traceless = np.delete(basis, n - 1, axis=1)
    m = 2 * nn - 1  # coordinates: sigma's traceless part, then P
    lift = np.zeros((4, nn, m), dtype=complex)  # d vec(block) / d coordinates
    lift[0, :, : nn - 1] = traceless
    lift[1, :, : nn - 1] = traceless[perm.ravel()]
    lift[2, :, nn - 1 :] = lift[3, :, nn - 1 :] = basis
    lift[3, :, : nn - 1] = traceless
    cost = np.zeros(m)
    cost[nn - 1 + n - 1] = 2.0 * math.sqrt(n)  # tr P + tr N = 2 tr P, as tr sigma = tr rho
    eye = np.eye(n)

    def blocks(z):
        sigma = hermitize(eye / n + (traceless @ z[: nn - 1]).reshape(n, n))
        p = hermitize((basis @ z[nn - 1 :]).reshape(n, n))
        return np.stack([sigma, sigma.take(perm), p, p - rho.mat + sigma])

    low = min(float(_eigvalsh(rho.mat)[0]), float(_eigvalsh(rho.mat.take(perm))[0]))
    # (1 - mix) * low + mix / n = 0 at the boundary mix; the start sits just past it
    mix = 0.0 if low > 0.0 else min(1.0, -n * low / (1.0 - n * low) * (1.0 + 1e-3) + 1e-9)
    sigma = (1.0 - mix) * rho.mat + mix * eye / n
    w, u = _eigh(hermitize(rho.mat - sigma))
    # P and N: the positive and negative parts of rho - sigma, each plus the same multiple of I
    p = (u * (np.maximum(w, 0.0) + max(float(np.abs(w).sum()) / (2 * n), 1e-12))) @ u.conj().T
    z = np.concatenate([(traceless.conj().T @ sigma.ravel()).real, (basis.conj().T @ p.ravel()).real])
    x = blocks(z)
    best = x[0]
    history = [trace_norm(rho.mat - best)]

    def visit(x, _):
        nonlocal best
        if (val := trace_norm(rho.mat - x[0])) < min(history):
            best = x[0]
        history.append(val)

    def linear(_):  # tr P + tr N: its gradient is cost, its Hessian zero
        return None, lambda: (cost, None)

    nu = 4.0 * n
    _, steps, converged = _newton_barrier(lift, nu, linear, blocks, z, nu / float(cost @ z), cfg.max_iters, visit)
    witness = DensityMatrix(best, dims)
    return Certificate("Ds_oracle", min(history), witness, converged, steps, history=tuple(history))
