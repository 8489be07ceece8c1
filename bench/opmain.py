"""One op process: import the parkdyn CLI, optionally install the tracer,
run one command through ``parkdyn.cli.main``, and write a result file.

    python3 bench/opmain.py RESULT.json [--trace OP_ID] [-- CLI ARGS...]

With no CLI arguments the process only imports the CLI, which is how the
runner samples set-up time. RESULT.json holds the monotonic time at which
the import finished, the return code or error, the peak RSS and, when
traced, the spans.
"""

import time

import parkdyn.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    argv = sys.argv[1:]
    result_path, rest = argv[0], argv[1:]
    cli_args = rest[rest.index("--") + 1 :] if "--" in rest else []
    tracer = None
    if rest[:1] == ["--trace"]:
        from tracing import Tracer

        tracer = Tracer(op=rest[1])
        tracer.install()
    rc, error = 0, None
    if cli_args:
        try:
            rc = parkdyn.cli.main(cli_args)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            rc, error = 1, traceback.format_exc()
    result = {
        "imported_at": IMPORTED_AT,
        "rc": rc,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
        "sims": tracer.sims if tracer else [],
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
