"""List the lines of src/clonal that no caller runs: python3 tools/unexecuted_lines.py

Traces, in-process, tier-1 without acceptance criteria 1, 2, 4 and 7 (the
slowest; traced, criterion 2 exceeds its budget), the demos and ``bench/run.py
--seconds 4 --trace 0`` per workload, then prints by module each line that
carries bytecode and never ran.  Writes nothing but stdout; takes minutes.
"""

import contextlib
import io
import os
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "clonal") + os.sep
CRITERIA = ("1_clone_laws", "2_context_extension_hom", "4_set_model_algebra", "7_adequacy")
hits: set = set()


def _local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(SRC) else None


class _Retrace:
    """Hypothesis replaces the tracer: install it again before each test."""

    def pytest_configure(self, config):
        from hypothesis import settings  # traced tests are slow; keep examples off disk

        settings.register_profile("unexecuted-lines", deadline=None, database=None)
        settings.load_profile("unexecuted-lines")

    def pytest_runtest_setup(self, item):
        sys.settrace(_global)


def executable_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}
    return lines.union(*(executable_lines(c) for c in code.co_consts if hasattr(c, "co_lines")))


def main() -> None:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # for the benchmark's set-up probes
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    os.chdir(ROOT)
    import pytest

    deselect = [f"--deselect=tests/test_acceptance.py::test_criterion_{c}" for c in CRITERIA]
    sys.settrace(_global)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        pytest.main(["-q", "-p", "no:cacheprovider", *deselect, "tests"], plugins=[_Retrace()])
        sys.settrace(_global)
        for name in sorted(os.listdir("demos")):
            runpy.run_path(os.path.join("demos", name), run_name="__main__")
        import run

        for workload in sorted(run.ROUND_SECONDS):
            run.main(["--workload", workload, "--seed", "1", "--seconds", "4", "--trace", "0"])
    sys.settrace(None)
    total = 0
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        with open(SRC + name) as handle:
            lines = executable_lines(compile(handle.read(), SRC + name, "exec"))
        missed = sorted(n for n in lines if (SRC + name, n) not in hits)
        total += len(missed)
        print(f"{name}: {len(missed)} of {len(lines)} never ran:", *missed)
    print(f"total: {total} lines never ran")


if __name__ == "__main__":
    main()
