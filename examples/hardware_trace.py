"""A cycle-level walk through Figures 2 and 3.

Scores four senones on the OP unit in its bit-faithful serial mode and
runs one Viterbi column, printing:

* the pipeline trace (start and retire cycle of each senone),
* the logadd SRAM statistics,
* the resulting score against the double-precision reference.

Run:  python examples/hardware_trace.py
"""

import numpy as np

from repro.core.opunit import OpUnit, OpUnitSpec
from repro.core.pipeline import PipelineTrace
from repro.core.viterbi_unit import ViterbiUnit
from repro.hmm.senone import SenonePool
from repro.hmm.topology import HmmTopology


def main() -> None:
    rng = np.random.default_rng(42)
    pool = SenonePool.random(4, num_components=8, dim=39, rng=rng)
    table = pool.gaussian_table()
    obs = rng.normal(size=39)

    print("=== OP unit serial trace (Figure 2 datapath) ===")
    trace = PipelineTrace()
    unit = OpUnit(OpUnitSpec(), trace=trace)
    unit.load_feature(obs)
    for senone in range(pool.num_senones):
        hw_score = unit.score_senone(table, senone)
        ref_score = float(pool.score_frame(obs)[senone])
        print(f"  senone[{senone}]  hw {hw_score:10.4f}   "
              f"reference {ref_score:10.4f}   |err| {abs(hw_score - ref_score):.4f}")
    print()
    print(trace.format())
    print(f"\n  logadd SRAM: {unit.logadd.sram_bytes} bytes, "
          f"{unit.logadd.reads} reads, "
          f"max table error {unit.logadd.max_error():.5f}")
    print(f"  ops: {unit.fpu.counts}")
    print(f"  Max '-ve' register (best score seen): {unit.running_max:.4f}")

    print("\n=== Viterbi unit (Figure 3, add & compare) ===")
    viterbi = ViterbiUnit()
    topo = HmmTopology(num_states=3)
    trans = topo.log_transition_matrix()[:3, :3]
    delta = np.array([-5.0, -9.0, -14.0], dtype=np.float32)
    obs_scores = np.array([-2.0, -1.5, -2.5], dtype=np.float32)
    new_delta, backptr, cycles = viterbi.step_column(
        delta, trans.astype(np.float32), obs_scores
    )
    print(f"  delta(t-1) = {delta}")
    print(f"  delta(t)   = {np.round(new_delta, 3)}")
    print(f"  backptr    = {backptr}   ({cycles} cycles, "
          f"{viterbi.transitions_processed} add&compare ops at 2 cycles each)")


if __name__ == "__main__":
    main()
