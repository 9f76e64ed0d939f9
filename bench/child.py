"""Fresh-interpreter probes, started by run.py with phasebal's src on PYTHONPATH.

    python child.py import <module>      seconds to import <module>
    python child.py setup                seconds to import phasebal and build the default controller
    python child.py peak <csv> <report>  tracemalloc peak (MiB) of a whole ``phasebal balance`` call
    python child.py trace <csv> <report> <spans.json>
                                         ``phasebal balance`` with the layer wrappers installed

Each mode prints one number or writes one file and nothing else.
"""

import sys
import time


def _balance_argv(csv_path: str, report_path: str) -> list[str]:
    return ["balance", "--input", csv_path, "--report", report_path]


def _quiet_main(main, argv: list[str]) -> int:
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        start = time.perf_counter()
        __import__(argv[1])
        print(repr(time.perf_counter() - start))
        return 0
    if mode == "setup":
        start = time.perf_counter()
        import phasebal
        from phasebal.fuzzy import default_controller

        default_controller()
        print(repr(time.perf_counter() - start))
        return 0
    if mode == "peak":
        import tracemalloc

        tracemalloc.start()
        import phasebal.cli

        code = _quiet_main(phasebal.cli.main, _balance_argv(argv[1], argv[2]))
        print(repr(tracemalloc.get_traced_memory()[1] / 2**20))
        return code
    if mode == "trace":
        import json

        import phasebal.cli
        import tracing

        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
        try:
            code = _quiet_main(phasebal.cli.main, _balance_argv(argv[1], argv[2]))
        finally:
            tracing.uninstall(saved)
        tracer.count_kept_calls()
        with open(argv[3], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
