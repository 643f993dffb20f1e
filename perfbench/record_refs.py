"""Record the reference outputs the benchmark's correctness checks compare to.

Run from the root of a source checkout, only when a change is meant to
alter those outputs:

    python3 perfbench/record_refs.py

It writes refs/desk_curve.csv and refs/narrowband_point.csv from the
fixed reference seed at the benchmark's own trial budgets.
"""

import os

import run  # caps BLAS threads and puts src/ on the path first
import workloads


def main() -> None:
    work_dir = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    for cls in (workloads.DeskCurve, workloads.NarrowbandPoint):
        workload = cls(0, False, work_dir)
        workload.make_scenario()
        with open(os.path.join(workloads.REF_DIR, cls.ref_name), "wb") as fh:
            fh.write(workload.reference_output())
        print("recorded", cls.ref_name)


if __name__ == "__main__":
    main()
