"""Child processes of the gte benchmark; ``run.py`` starts them.

    python3 perfbench/child.py setup <workload> <seed> <workdir>
        A fresh interpreter: import gte, then make the first call at each of
        the workload's configurations.  ``setup_s`` is its wall time.

    python3 perfbench/child.py gte <spans.json> <gte arguments...>
        One ``gte`` command with per-layer spans on; the span totals are
        written to ``spans.json`` and the command's exit code is returned.

Both expect ``src`` of the checkout on ``PYTHONPATH``, as ``run.py`` sets it.
"""

import json
import sys
from pathlib import Path


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        workload, seed, work = argv[1], int(argv[2]), Path(argv[3])
        if workload == "cli":
            import gte.cli
            from workloads import cli_commands
            work.mkdir(parents=True, exist_ok=True)
            codes = [gte.cli.main(args) for _, args in cli_commands(seed, work, count=1)]
            return max(codes)
        from workloads import WORKLOADS
        WORKLOADS[workload](seed, work).warm()
        return 0
    if mode == "gte":
        import gte.cli
        from layers import TARGETS
        from spans import Tracer
        with Tracer(TARGETS) as tracer:
            code = gte.cli.main(argv[2:])
        Path(argv[1]).write_text(json.dumps(tracer.dump()))
        return code
    print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
