"""Fresh-interpreter helpers started by run.py.

    python3 bench/child.py setup <workload> <seed> <trace 0|1>
        Imports biphoton, builds the workload's inputs and prints one JSON
        line: {"ready": perf_counter once the inputs exist, "spans": [...]}.  The
        parent takes setup time as "ready" minus its own clock just before
        it started this process.

    python3 bench/child.py cli <spans.json> <subcommand> [args...]
        Runs one CLI subcommand as `python -m biphoton.cli` would, with
        spans around the imports, around main() and around each layer
        function the CLI module calls; writes the spans to spans.json and
        exits with main()'s code.  Used only by traced cli_cold runs.

Only the standard library is imported before `import biphoton`, so the
import span covers numpy and scipy as a user's first import does.
"""

import json
import os
import sys
import time

from spans import Tracer  # standard library only


def main(argv: list[str]) -> int:
    mode = argv[0]
    tracer = Tracer(True)
    with tracer.span("import.biphoton") as counts:
        import biphoton  # noqa: F401
        counts["modules"] = len(sys.modules)
    if mode == "setup":
        name, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
        import workloads
        tracer.enabled = trace
        work = workloads.WORKLOADS[name]
        work.teardown(work.setup(tracer, seed, os.getcwd()))
        tracer.enabled = True
        print(json.dumps({"ready": time.perf_counter(), "spans": tracer.spans}))
        return 0
    spans_path, sub = argv[1], argv[2]
    with tracer.span("import.cli"):
        import biphoton.cli
    tracer.instrument(biphoton.cli)
    with tracer.span(f"cli.{sub}"):
        code = biphoton.cli.main(argv[2:])
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
