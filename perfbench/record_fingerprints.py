"""Record fingerprints.json: the outputs of every workload's run and direct
operations on the fixed check seeds.

Run from the root of a checkout, only when a change to frecas is meant to
change its outputs:

    python3 perfbench/record_fingerprints.py
"""

import json
from pathlib import Path

from run import WORK, import_frecas


def main():
    _, error = import_frecas()
    if error is not None:
        raise SystemExit(error)
    import workloads as wl

    out = WORK / "op-out"
    out.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for name, workload in wl.WORKLOADS.items():
        setup = wl.set_up(workload)
        for kind, op in (("run", workload.run), ("direct", wl.DIRECT)):
            for seed in wl.CHECK_SEEDS:
                output = op.check(setup, op.call(setup, seed, str(out)), str(out))
                recorded.setdefault(name, {}).setdefault(kind, {})[str(seed)] = {
                    k: v.tolist() for k, v in output.fingerprint.items()
                }
    path = Path(__file__).with_name("fingerprints.json")
    path.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
