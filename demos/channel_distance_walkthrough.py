"""How far is a channel from the degradable, antidegradable, and
entanglement-breaking sets?

The erasure channel with a small erasure probability is the cleanest
showcase: its coherent information is strictly positive, which already
rules out antidegradability and entanglement breaking, and the certified
distances quantify by how much.
"""

from distcert import (
    OptimizerConfig,
    assemble_report,
    choi,
    erasure,
    maximize_coherent_information,
    maximize_reverse_coherent_information,
    minimize_coherent_information,
    ree_ppt_lower,
)


def main():
    phi = erasure(4, 0.1)
    cfg = OptimizerConfig(restarts=2, max_iters=200, seed=0)
    print(f"channel: erasure(d=4, p=0.1), d_in={phi.d_in}, d_out={phi.d_out}")
    print()

    ic = maximize_coherent_information(phi, cfg)
    min_ic = minimize_coherent_information(phi, cfg)
    rci = maximize_reverse_coherent_information(phi, cfg)
    print(f"max  I_c = {ic.value:+.6f} bits   (closed form: 0.8*log2(4) = 1.6)")
    print(f"min  I_c = {min_ic.value:+.6f} bits   (0 for every erasure below p=1/2)")
    print(f"max  L   = {rci.value:+.6f} bits   (closed form: 1.8 - h2(0.1))")
    print()

    # The relative entropy of entanglement of the normalized Choi state
    # lower-bounds the channel's distance from entanglement breaking.
    er = ree_ppt_lower(choi(phi), cfg)
    print(f"certified E_R of the Choi state: {er.value:.6f} bits "
          f"(exact value: (1-p)*log2(d) = 1.8)")
    print()

    report = assemble_report(
        "erasure(4, 0.1)",
        d=phi.d_in,
        ic=ic.value,
        min_ic=min_ic.value,
        rci=rci.value,
        er_lower=er.value,
        seed=0,
    )
    print("certified diamond-distance lower bounds:")
    for entry in report.entries:
        print(f"  {entry.formula.value:>5} -> {entry.target:<22} "
              f">= {entry.value:.6f} (raw {entry.raw:+.6f})")
    for note in report.notes:
        print(f"  note: {note}")
    print()
    print("A raw value below zero means that certificate is too weak at this")
    print("dimension; the clamp records the bound as trivial rather than wrong.")
    print("The same analysis is available from the command line:")
    print("  distcert zoo erasure 4 0.1 --out era.json")
    print("  distcert analyze-channel era.json --ree")


if __name__ == "__main__":
    main()
