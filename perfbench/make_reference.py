#!/usr/bin/env python3
"""Write the benchmark's reference outputs: one pass of every workload at
seed 0, each op's canonical output keyed by op label.

    python3 perfbench/make_reference.py            # all workloads
    python3 perfbench/make_reference.py large      # some of them

Run it only on a commit whose outputs are known to be right: the
benchmark fails any later run whose outputs differ from these.  Each op
must also pass its own check (reports without failing checks, rejections
with confirmed witnesses) before its output is written.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, build_ops


def main(argv: list[str]) -> int:
    os.environ.pop("GRP_MAX_TUPLE_CARRIER", None)  # the cap shows in Cauchy's trace
    run.import_library()
    names = argv or list(WORKLOADS)
    for name in names:
        reference: dict[str, str] = {}
        run.OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.OUT))
        try:
            for op in build_ops(name, 0, reference, workdir):
                out = err = None
                try:
                    out = op.run()
                except Exception as e:  # rejection ops are meant to raise
                    err = e
                reference[op.label] = op.digest(out, err)
                why = op.check(out, err)
                if why is not None:
                    print(f"{name}: {op.label}: {why}", file=sys.stderr)
                    return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"{name}: {len(reference)} outputs -> {path.relative_to(run.HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
