"""Record which functions of ``repro`` this interpreter calls.

``tools/reach.py run`` puts this directory first on ``PYTHONPATH`` and
names an output directory in ``REPRO_REACH_DIR``; every interpreter it
starts (and every process those fork) then writes one JSON file there
at exit: ``[[filename, first line, qualified name], ...]`` for each
``repro`` code object that received a ``call`` event.  Without
``REPRO_REACH_DIR`` this module does nothing.

The hook is ``sys.settrace`` returning ``None``, so no line events are
traced and ``cProfile`` (which uses ``sys.setprofile``) still works.
"""

import os

_OUT = os.environ.get("REPRO_REACH_DIR")

if _OUT:
    import atexit
    import json
    import multiprocessing.util
    import sys
    import threading

    _MARKER = os.sep + "repro" + os.sep
    _seen = set()
    _add = _seen.add

    def _hook(frame, event, arg):
        _add(frame.f_code)

    def _dump():
        records = sorted({
            (code.co_filename, code.co_firstlineno, getattr(code, "co_qualname", code.co_name))
            for code in list(_seen)
            if _MARKER in code.co_filename
        })
        path = os.path.join(_OUT, f"{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(records, handle)

    class _ForkToken:
        """A weak-referenceable key for ``register_after_fork``."""

    def _after_fork(_token):
        # multiprocessing clears inherited finalizers in a forked child
        # and leaves it with os._exit, so atexit never runs there.
        multiprocessing.util.Finalize(None, _dump, exitpriority=0)

    _token = _ForkToken()
    multiprocessing.util.register_after_fork(_token, _after_fork)
    atexit.register(_dump)
    sys.settrace(_hook)
    threading.settrace(_hook)
