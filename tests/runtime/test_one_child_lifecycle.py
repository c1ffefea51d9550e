"""Keep every forked child's life in one module (``repro.runtime.cpus``).

Forking a process, constructing a ``multiprocessing`` process, waiting
for or signalling a pid, or killing / terminating a child anywhere else
in ``src/repro`` is a second lifecycle growing back — with its own grace,
its own way of naming a death and its own orphans. So is importing a
``_``-prefixed name from another module, which is how the old copies
shared their exit-naming helper. Sharing memory with a child
(``multiprocessing.shared_memory``, ``mmap.mmap``) or hearing it through
a ``multiprocessing`` queue anywhere else is a second way to share: a
named segment needs a resource tracker and can leak, a queue is a second
answer protocol beside the one-answer pipe. ``ctypes`` is imported there
alone too: the process-level calls it reaches (``prctl``,
``malloc_trim``, the BLAS pool size) have one owner.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
HOME = "runtime/cpus.py"
#: Calls that fork, wait for or signal a process by pid.
PID_CALLS = {"os.fork", "os.forkpty", "os.waitpid", "os.wait", "os.waitid", "os.kill", "os.killpg"}
#: Methods that end a child.
ENDINGS = {"kill", "terminate"}
#: ``multiprocessing`` queues (``serve.queue.JobQueue`` is not one).
QUEUES = {"Queue", "SimpleQueue", "JoinableQueue"}


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "multiprocessing.shared_memory":
                    yield node.lineno, "imports multiprocessing.shared_memory"
                elif alias.name.split(".")[0] == "ctypes":
                    yield node.lineno, "imports ctypes"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if (node.module or "").split(".")[0] == "ctypes":
                    yield node.lineno, "imports ctypes"
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield node.lineno, f"imports private {name}"
                elif name.startswith("multiprocessing.shared_memory"):
                    yield node.lineno, "imports multiprocessing.shared_memory"
                elif node.module == "multiprocessing" and alias.name in QUEUES:
                    yield node.lineno, "imports a multiprocessing queue"
        elif isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if func in PID_CALLS:
                yield node.lineno, f"calls {func}"
            elif func.split(".")[-1].endswith("Process"):
                yield node.lineno, "constructs a Process"
            elif isinstance(node.func, ast.Attribute) and node.func.attr in ENDINGS:
                yield node.lineno, f"calls .{node.func.attr}()"
            elif func in ("mmap.mmap", "mmap"):
                yield node.lineno, "calls mmap.mmap"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in QUEUES
                and func != f"queue.{node.func.attr}"  # a thread queue
            ):
                yield node.lineno, "builds a multiprocessing queue"


def test_one_child_lifecycle():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == HOME:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{rel}:{line}: {what}" for line, what in _offences(tree)]
    assert not found, "\n".join(found)


def test_guard_sees_every_way_back():
    snippets = {
        "pid = os.fork()": "calls os.fork",
        "os.waitpid(pid, 0)": "calls os.waitpid",
        "os.kill(pid, signal.SIGKILL)": "calls os.kill",
        "ctx.Process(target=body)": "constructs a Process",
        "multiprocessing.Process(target=body)": "constructs a Process",
        "child.kill()": "calls .kill()",
        "proc.terminate()": "calls .terminate()",
        "from repro.engine.mp import _describe_exit": (
            "imports private repro.engine.mp._describe_exit"
        ),
        "from multiprocessing import shared_memory": "imports multiprocessing.shared_memory",
        "from multiprocessing.shared_memory import SharedMemory": (
            "imports multiprocessing.shared_memory"
        ),
        "import multiprocessing.shared_memory": "imports multiprocessing.shared_memory",
        "buf = mmap.mmap(-1, 4096)": "calls mmap.mmap",
        "queue = ctx.Queue()": "builds a multiprocessing queue",
        "queue = multiprocessing.SimpleQueue()": "builds a multiprocessing queue",
        "from multiprocessing import Queue": "imports a multiprocessing queue",
        "import ctypes": "imports ctypes",
        "import ctypes.util": "imports ctypes",
        "from ctypes import CDLL": "imports ctypes",
    }
    for source, want in snippets.items():
        assert [what for _, what in _offences(ast.parse(source))] == [want], source
    harmless = "jobs = JobQueue(8)\nwork = queue.Queue()\nreply, send = ctx.Pipe(duplex=False)"
    assert list(_offences(ast.parse(harmless))) == []


def test_the_home_holds_what_it_guards():
    home = ast.parse((SRC / HOME).read_text(encoding="utf-8"))
    kinds = {what for _, what in _offences(home)}
    assert kinds == {"calls os.kill", "calls .kill()", "calls mmap.mmap", "imports ctypes"}
