"""Records golden.json: output digests and exact ledgers per workload and seed.

    python3 perfbench/record_golden.py [--seeds 0-9]

Run it only when a change is meant to alter model, report or prediction
bytes or a counted ledger; otherwise run.py's checks against the existing
file are the point.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, as in 0-9")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    run.import_program()

    golden = {}
    for workload in run.WORKLOADS.values():
        golden[workload.name] = {}
        for seed in seeds:
            workdir = run.HERE / ".work" / ("golden-%s-s%d" % (workload.name, seed))
            bench = run.Bench(workload, seed, 1.0, workdir)
            bench.reference = None
            try:
                bench.setup()
                hooks = run.Tracer(spans=False)
                with hooks:
                    sample = bench.rep(hooks)
                fp = bench.check(sample)
            finally:
                run.shutil.rmtree(workdir, ignore_errors=True)
            if fp is None or bench.checks.failed:
                print("%s seed %d failed its checks" % (workload.name, seed), file=sys.stderr)
                return 1
            golden[workload.name][str(seed)] = fp
            print(workload.name, seed, fp["model"][:12], fp["evals"], fp["counter_ops"])
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
