"""Every statement of ``src/lproth`` runs in some run of the program.

A child interpreter installs ``sys.settrace`` and ``threading.settrace``
before it imports ``lproth``, then runs the program as users and the
benchmark do: ``python -m lproth.cli``, the three scripts at the arguments
of ``test_scripts.py``, the ``verify-all`` and ``counting-forms`` benchmark
workloads, CLI runs of other suites, formats and dimensions, a ``--config``
run, one bad argv per rule of ``ExperimentConfig.validate`` and
``parse_config``, and a run that exits 3.  ``verify-all`` runs its suites in
forked pool workers, which inherit the trace; each worker writes what it
traced to the scratch directory as it exits, and the child merges those
files with its own.  It counts by ``ast`` statement: a statement ran if any
of its own lines (those of no nested statement) ran.

The guard fails on each statement that did not run, except

* ``raise`` statements, and the statements of an ``except`` handler whose
  body only raises;
* the bodies of the test oracles in ``TEST_ORACLES``;
* the statements in ``ALLOWED``, and those nested in them, each with its
  reason.  A key that names no statement, more than one, or one under which
  everything ran fails too.

So a branch, function or method that only the tests reach fails the guard:
the program never runs its body.  Run the child by hand to print the counts
per module and the statements that did not run:

    python tests/test_program_trace.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import multiprocessing.util
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lproth"

# reference implementations that only the tests evaluate, against the paths the program runs
TEST_ORACLES = {"i_of_t_lattice", "kernel_mass_mc", "shell_mc_quadrature", "sigma_total_mass",
                "unit_ball_volume_mc"}

# (module, first line of one statement) -> why the runs may leave it, and what it holds, unrun
ALLOWED = {
    ("cli", "def _json_default(o):"):
        "json.dump's fallback for numpy values: every record holds plain Python values "
        "today, so a run reaches it only once a claim stops converting one",
    ("cli", "if os.path.exists(tmp):"):
        "cleanup after a failed report write (a full disk or a read-only directory)",
    ("util", "return os.cpu_count() or 1"):
        "platform fallback where os.sched_getaffinity is missing (macOS, Windows)",
    ("forms", "return _Box(data := np.moveaxis(sliding_window_view(np.pad(v, 1), 2, "
              "axis=-1), -1, 0), 1,"):
        "real-valued boxes, which BoxFunction admits: acceptance criterion 9 runs the "
        "decomposition identity on them; the program's boxes are 0/1.  The statement "
        "holds all that is theirs alone: their float64 phases and products, the sums "
        "that need no count, and the screen that returns f(x) itself and skips no block",
    ("forms", "if any(b <= a for a, b in zip(lo, hi)):"):
        "valid-input branch: a sharp-form gap above N/2 leaves no overlap window; the "
        "program's gaps are at most N/4",
    ("forms", "if blocks is None:"):
        "valid-input branch: the empty overlap window of the entry above",
    ("gowers", "if not F.values.any():"):
        "valid-input branch: U^3 of the zero grid, such as the kernel distance at "
        "identical widths; the gowers suite's widths differ",
    ("oscillatory", "if hi <= lo:"):
        "valid-input branch: a shift pair with no admissible window; the program's "
        "I_{k,l} calls use pairs that have one",
    ("sets", "self.max_half_integer_deviation = 0.0"):
        "valid-input branch: a gap spectrum with no hit; the program's samples find hits",
    ("claims", "if not rep.witnesses:"):
        "valid-input branch: the search suite's positive control found no witness",
}

# argv that each exit 1 on one rule of ExperimentConfig.validate or parse_config
_BAD_ARGV = [
    ["run", "--suite", "nope"],
    ["run", "--suite", "kernels", "--trials", "0"],
    ["run", "--suite", "kernels", "--p", "0.5"],
    ["run", "--suite", "search", "--p", "2"],
    ["run", "--suite", "kernels", "--d", "3"],
    ["run", "--suite", "kernels", "--seed", "-1"],
    ["run", "--suite", "gowers", "--p", "1e306"],
    ["run", "--suite", "gowers", "--grid-m", "1"],
    ["run", "--suite", "forms", "--p", "1e306"],
    ["run", "--suite", "kernels", "--epsilon", "2"],
    ["run", "--suite", "oscillatory", "--epsilon", "1"],
    ["run", "--suite", "kernels", "--format", "xml"],
    ["run", "--suite", "kernels", "--out", __file__],
    ["run"],
    ["bogus"],
]


def _trace(files: set) -> tuple[dict, dict]:
    """Start recording, per file of files, the lines run and the first lines of the code
    objects called, in this thread and every new one."""
    lines, calls = {f: set() for f in files}, {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def entry(frame, event, arg):
        if frame.f_code.co_filename not in lines:
            return None
        calls[frame.f_code.co_filename].add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(entry)
    sys.settrace(entry)
    return lines, calls


def _dump_at_worker_exit(lines: dict, calls: dict, scratch: str):
    """Have each multiprocessing child write lines and calls to scratch as it exits.

    ``os.register_at_fork`` is no use here: a child's ``Process._bootstrap``
    clears the finalizers registered before it runs the after-fork hooks."""
    def dump():
        with open(os.path.join(scratch, f"worker-{os.getpid()}.json"), "w") as fh:
            json.dump({f: [sorted(lines[f]), sorted(calls[f])] for f in lines}, fh)

    # the registry holds dump weakly; the hook's closure keeps it alive
    multiprocessing.util.register_after_fork(
        dump, lambda _: multiprocessing.util.Finalize(None, dump, exitpriority=0))


def _merge_worker_dumps(lines: dict, calls: dict, scratch: str) -> int:
    """Add the workers' lines and calls to the child's own; returns the number of workers."""
    dumps = sorted(Path(scratch).glob("worker-*.json"))
    for path in dumps:
        for f, (worker_lines, worker_calls) in json.loads(path.read_text()).items():
            lines[f].update(worker_lines)
            calls[f].update(worker_calls)
    return len(dumps)


def _run_program(scratch: str) -> None:
    """The runs of the module docstring, each asserted to exit as it should."""
    out = lambda name: os.path.join(scratch, name)
    argv = sys.argv
    try:  # python -m lproth.cli first, before anything imports lproth.cli
        for script, *args in [
                ("-m lproth.cli", "list"),
                ("decay_curves.py", "--p", "2", "1.5", "--kl-nodes", "4", "--out", out("curves")),
                ("gap_spectrum.py", "--hits", "200", "--out", out("spectra")),
                ("theorem_control.py", "--seeds", "1", "--J", "2")]:
            sys.argv = [script, *args]
            with contextlib.redirect_stdout(io.StringIO()):
                if script.startswith("-m "):
                    with contextlib.suppress(SystemExit):
                        runpy.run_module(script[3:], run_name="__main__", alter_sys=True)
                else:
                    runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    finally:
        sys.argv = argv

    from lproth import cli, util

    # verify-all pools its suites only where two CPUs are usable; a one-CPU host
    # lists two, so that the pool's statements run on any host
    if util.usable_cpus() < 2:
        util.usable_cpus = lambda: 2

    def main(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(argv))

    spec = importlib.util.spec_from_file_location("lproth_bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in ("verify-all", "counting-forms"):  # verify-all runs the CLI at seed 7
        work = workloads.WORKLOADS[name]
        inputs = work.setup(7, scratch)
        checks, _ = work.gate(inputs, work.run(inputs))
        assert all(ok for _, ok in checks), (name, checks)
    assert main("run", "--suite", "oscillatory", "--p", "2", "--out", out("p2")) == 0
    assert main("run", "--suite", "kernels", "--d", "2", "--out", out("d2")) == 0
    # the main-term trials' grid has 167 cells, odd, so a structured draw tops its stripes up
    assert main("run", "--suite", "forms", "--p", "1.3", "--out", out("p1.3")) == 0
    assert main("run", "--suite", "kernels", "--format", "csv", "--out", out("csv")) == 0
    assert main("list") == 0 and main("schema") == 0
    config = out("lproth.conf")
    with open(config, "w") as fh:
        fh.write("# a comment line, then a blank one\n\nsuite = kernels\np = 3  # inline\n")
    assert main("run", "--config", config, "--d", "2", "--out", out("config")) == 0
    for bad in _BAD_ARGV:
        assert main(*bad) == 1, bad
    # the I(t) budget refuses p = 64 before any integration; p = 6 exits 3 at decay_fit's
    # first I(t) call, the largest t
    assert main("run", "--suite", "oscillatory", "--p", "64", "--out", out("p64")) == 3


def _code_lines(code) -> set:
    """The lines that carry bytecode in code and in the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _first_line(node: ast.stmt) -> int:
    """The line of node's first decorator, else of node: a function's co_firstlineno."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _own_lines(node: ast.stmt) -> set:
    """node's lines, decorators included, less those of the statements nested in it."""
    lines = set(range(_first_line(node), node.end_lineno + 1))
    for sub in ast.walk(node):
        if isinstance(sub, ast.stmt) and sub is not node:
            lines -= set(range(_first_line(sub), sub.end_lineno + 1))
    return lines


def _exempt(tree: ast.Module) -> set:
    """Raises, the statements of raise-only handlers and the bodies of the test oracles."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            out.add(node)
        elif isinstance(node, ast.ExceptHandler) and all(isinstance(s, ast.Raise) for s in node.body):
            out.update(node.body)
        elif isinstance(node, ast.FunctionDef) and node.name in TEST_ORACLES:
            out.update(s for s in ast.walk(node) if isinstance(s, ast.stmt))
    return out


def _audit(hits: dict, calls: dict) -> tuple[list, list, list]:
    """(name, ran, executable) per module, the unrun statements, and the bad ALLOWED keys.

    A function definition runs when the function is called, not when it is defined, so
    a function whose body only raises counts too.
    """
    counts, unrun, matched, used = [], [], {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        src = path.read_text()
        tree = ast.parse(src)
        lines = _code_lines(compile(src, str(path), "exec"))
        ran_lines, called = hits.get(str(path), set()), calls.get(str(path), set())
        exempt = _exempt(tree)
        stmts = [node for node in ast.walk(tree) if isinstance(node, ast.stmt)]
        src_lines = src.splitlines()
        first_line = {node: src_lines[node.lineno - 1].strip() for node in stmts}
        allowed = {}  # statement -> the ALLOWED key of the statement it is nested in
        for node in stmts:
            key = (path.stem, first_line[node])
            if key in ALLOWED:
                matched[key] = matched.get(key, 0) + 1
                allowed.update((s, key) for s in ast.walk(node) if isinstance(s, ast.stmt))
        executable = ran = 0
        for node in stmts:
            own = _own_lines(node)
            if not own & lines:  # a docstring, or a line the compiler drops
                continue
            executable += 1
            if (_first_line(node) in called if isinstance(node, ast.FunctionDef)
                    else own & ran_lines):
                ran += 1
            elif node in allowed:
                used.add(allowed[node])
            elif node not in exempt:
                unrun.append((path.stem, node.lineno, first_line[node]))
        counts.append((path.stem, ran, executable))
    bad = sorted(key for key in ALLOWED if matched.get(key) != 1 or key not in used)
    return counts, unrun, bad


def _child() -> int:
    hits, calls = _trace({str(p) for p in PACKAGE.glob("*.py")})
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        _dump_at_worker_exit(hits, calls, scratch)
        _run_program(scratch)
        workers = _merge_worker_dumps(hits, calls, scratch)
    sys.settrace(None)
    threading.settrace(None)
    import lproth
    assert Path(lproth.__file__).parent == PACKAGE, f"traced {PACKAGE}, ran {lproth.__file__}"
    counts, unrun, bad = _audit(hits, calls)
    for name, ran, executable in counts:
        print(f"{name:12s} {ran:5d} of {executable:5d} statements ran")
    print(f"{'total':12s} {sum(c[1] for c in counts):5d} of {sum(c[2] for c in counts):5d}"
          f" ({workers} pool workers merged)")
    for module, line, text in unrun:
        print(f"not run: src/lproth/{module}.py:{line}: {text}")
    for module, text in bad:
        print(f"ALLOWED key names no single statement, or one that ran: {module}: {text}")
    return 1 if unrun or bad else 0


def test_program_runs_every_statement(tmp_path):
    done = subprocess.run([sys.executable, __file__], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    sys.exit(_child())
