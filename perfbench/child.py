"""One repetition of `pfaffian-nets pipeline`, in a fresh interpreter.

    python3 perfbench/child.py setup    FIXTURE STAMPS SEED
    python3 perfbench/child.py pipeline FIXTURE STAMPS SEED REPORT
    python3 perfbench/child.py trace    FIXTURE STAMPS SEED REPORT SPANS

`pfaffian_nets` comes from PYTHONPATH, which run.py points at the checkout's
`src/`.  The pipeline itself runs as `pfaffian-nets pipeline FIXTURE -o
REPORT --seed SEED` with every other option at its default.  STAMPS receives
a JSON object: `build` is the CLOCK_MONOTONIC time at which `build_report`
was entered (the parsed fixture reaches the first stage), `done` the time
at which the report was written, and `cpu_s`/`rss_kb` this process's
resource usage at that point.  `setup` stops at `build` without running any
stage.  `trace` wraps the layers listed in layers.py and writes the spans
to SPANS.
"""

import json
import os
import resource
import sys
import time


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv):
    mode, fixture, stamps, seed = argv[:4]
    from pfaffian_nets import cli

    stamp = {}
    build_report = cli.build_report

    def stamped_build_report(doc, opts):
        stamp["build"] = time.monotonic()
        if mode == "setup":
            _write(stamps, stamp)
            os._exit(0)
        return build_report(doc, opts)

    cli.build_report = stamped_build_report
    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layers
        import tracer as tracing
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "pfaffian_nets"
                   or name.startswith("pfaffian_nets.")}
        tracer = tracing.Tracer()
        _, missing = tracing.install(tracer, layers.TARGETS, modules)
        stamp["missing"] = missing
    report = argv[4] if len(argv) > 4 else os.devnull
    code = cli.main(["pipeline", fixture, "-o", report, "--seed", seed])
    stamp["done"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stamp["cpu_s"] = usage.ru_utime + usage.ru_stime
    stamp["rss_kb"] = usage.ru_maxrss
    if tracer is not None:
        tracer.dump(argv[5])
    _write(stamps, stamp)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
