"""A tour of the four search engines behind the certificates.

Every search in this package returns a Certificate whose value can be
reproduced from its witness alone, independent of the search that found
it. This script shows each engine at work on a problem with a known
answer.
"""

import numpy as np

from distcert import (
    OptimizerConfig,
    channel_coherent_information,
    erasure,
    maximally_entangled,
    maximize_coherent_information,
    random_channel,
    ree_dual_certificate,
    ree_ppt_lower,
    seesaw_diamond_lower,
    seesaw_objective,
    trace_dist_to_ppt,
)


def main():
    cfg = OptimizerConfig(restarts=2, max_iters=200, seed=0)

    print("=== mirror ascent on the coherent information")
    phi = random_channel(3, 3, 2, np.random.default_rng(1))
    cert = maximize_coherent_information(phi, cfg)
    hist = np.asarray(cert.history)
    print(f"random 3->3 channel: best I_c = {cert.value:+.8f} bits "
          f"after {cert.iterations} iterations (converged={cert.converged})")
    print(f"first few history values: {np.round(hist[:5], 6)}")
    print(f"history is nondecreasing: {bool(np.all(np.diff(hist) >= -1e-12))}")
    re_eval = channel_coherent_information(phi, cert.witness)
    print(f"re-evaluating the witness reproduces the value: "
          f"{abs(re_eval - cert.value):.2e} difference")
    print()

    print("=== see-saw on the diamond-norm lower bound")
    p, q = 0.15, 0.65
    cert = seesaw_diamond_lower(erasure(2, p), erasure(2, q), cfg)
    print(f"erasure({p}) vs erasure({q}): see-saw value {cert.value:.8f}, "
          f"exact diamond distance 2|p-q| = {2 * abs(p - q):.2f}")
    val = seesaw_objective(erasure(2, p), erasure(2, q), cert.witness.vec)
    print(f"witness re-evaluation differs by {abs(val - cert.value):.2e}")
    print()

    print("=== projected descent with a dual certificate (E_R lower bound)")
    bell = maximally_entangled(2).to_density()
    cert = ree_ppt_lower(bell, cfg)
    print(f"Bell state: certified E_R >= {cert.value:.8f} bits (exact: 1)")
    print(f"achieved objective (upper estimate): {cert.objective:.8f} bits")
    redo = ree_dual_certificate(bell, cert.witness)
    print(f"dual certificate recomputed at the witness: {redo:.8f}")
    print("The certificate is valid at any feasible point, converged or not;")
    print("descent only sharpens it.")
    print()

    print("=== log-barrier solve for the trace distance to PPT")
    cert = trace_dist_to_ppt(bell, cfg)
    print(f"Bell state: search estimate {cert.value:.8f} (exact distance: 1)")
    print("This one is an estimate used as a sanity oracle, not a certificate:")
    print("it upper-bounds how much any separability bound could still gain.")


if __name__ == "__main__":
    main()
