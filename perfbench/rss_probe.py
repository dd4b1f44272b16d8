"""Peak-memory probe: one checked pass of a workload in a fresh interpreter.

    python3 rss_probe.py <workload> <config dir> <out dir> <seed>

A process that has run many passes keeps whatever its allocator has not
returned, so its peak depends on the history; a fresh process that runs
one pass reads the same to within a fraction of a percent.  Prints one JSON
object: the process's ``ru_maxrss`` in MB and the pass's verdict counts.
"""

import json
import resource
import sys
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported
from workloads import WORKLOADS


def main(name: str, config_dir: Path, out_dir: Path, seed: int) -> None:
    cli = run.import_cli()
    from rdlab.config import parse_config

    workload = WORKLOADS[name]
    configs = {config: parse_config((config_dir / config).read_text())
               for config in workload.configs}
    done = run.run_pass(cli, workload, configs, config_dir, out_dir, seed)
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "attempted": done.attempted, "failed": done.failed,
        "problems": done.problems,
    }))


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4]))
