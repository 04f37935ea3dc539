"""Run one benchmark command or microbenchmark in this fresh process.

    python3 benchmarks/worker.py '<spec>'

`spec` is a JSON object: {"argv": [...]} runs ``gilbreath.cli.main(argv)``,
{"micro": name} runs one op of micro.py, {} only imports.  With
"trace": path, the tracer wraps the program's layers and writes its spans
to that path.  The worker times the import of ``gilbreath.cli`` first, then
the job, and prints one JSON line of measurements as its last output.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import gilbreath.cli

    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import os
    import resource

    def cpu() -> float:
        ru = [resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        return sum(r.ru_utime + r.ru_stime for r in ru)

    spec = json.loads(sys.argv[1])
    report = {"setup_s": setup_s}
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer(spec.get("job", 0))
        tracer.install()
    captured = io.StringIO()
    cpu0 = cpu()
    t1 = time.perf_counter()
    if "argv" in spec:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            report["rc"] = gilbreath.cli.main(spec["argv"])
    elif "micro" in spec:
        import micro

        report.update(micro.OPS[spec["micro"]]())
        report["rc"] = 0
    report["job_s"] = time.perf_counter() - t1
    report["cpu_s"] = cpu() - cpu0
    # VmHWM, not ru_maxrss: Linux carries the parent's peak RSS over fork and
    # exec into ru_maxrss, so it would report the benchmark's own memory.
    with open("/proc/self/status") as fh:
        status = dict(line.split(":", 1) for line in fh)
    report["peak_rss_mb"] = int(status["VmHWM"].split()[0]) / 1024
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    report["rss_now_mb"] = resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    report["output_tail"] = captured.getvalue()[-2000:]
    if tracer is not None:
        tracer.save(spec["trace"])
        report["counters"] = tracer.counters
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
