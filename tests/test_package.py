"""What `import clutterkit` binds and runs: every public name on the
package is its defining module's object, and the submodules the import
only registers run safely at first use, from several threads at once or
from a pickle."""
import ast
import importlib
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import clutterkit
from clutterkit import CnfFormula, SemiMatching


def _defined_names(path):
    """The names that a module's own top level defines, not imports."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_each_public_name_is_its_defining_modules_object():
    homes = {}
    for path in sorted(Path(clutterkit.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"clutterkit.{path.stem}")
        for name in _defined_names(path) & set(clutterkit.__all__):
            homes.setdefault(name, []).append(module)
    assert sorted(homes) == clutterkit.__all__
    for name, modules in homes.items():
        assert len(modules) == 1, name
        assert getattr(clutterkit, name) is getattr(modules[0], name), name
    # the attribute is the function, not the submodule of the same name
    assert isinstance(clutterkit.blocker, types.FunctionType)
    star = {}
    exec("from clutterkit import *", star)
    assert set(clutterkit.__all__) <= set(dir(clutterkit)) & star.keys()


def _fresh(code, stdin=b""):
    """Run code in a fresh Python; its stdout, after checking that it
    exited 0 and wrote nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(clutterkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr.decode()
    return proc.stdout.decode()


# the registered submodules of `names` that have not run yet
NOT_RUN = "[n for n in {names} if type(sys.modules['clutterkit.' + n]) is not types.ModuleType]"


def test_values_unpickle_where_their_modules_have_not_run():
    values = [SemiMatching([((1, 2), (1, 2, 3)), ((4, 5), (4, 5))]), CnfFormula(2, ((1, -2),))]
    code = ("import pickle, sys, types, clutterkit\n"
            f"print({NOT_RUN.format(names=('matching', 'reductions'))})\n"
            "print(repr(pickle.loads(sys.stdin.buffer.read())))")
    out = _fresh(code, pickle.dumps(values))
    assert out.splitlines() == ["['matching', 'reductions']", repr(values)]


# four threads whose first calls into the package meet at a barrier, with
# the interpreter switching threads as often as it can
FIRST_USE = f"""
import sys, threading, types
import clutterkit

print({NOT_RUN.format(names=('generate', 'matching', 'reductions'))})
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4)
answers = []

def first_calls():
    barrier.wait()
    witness = clutterkit.find_kk2_minor(clutterkit.kk2(3), 2)
    assignment = clutterkit.solve_sat(clutterkit.CnfFormula(2, ((1, 2), (-1, -2))))
    answers.append((witness is not None, assignment.as_literals()))

threads = [threading.Thread(target=first_calls) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(30)
    assert not thread.is_alive()
print(answers)
"""


def test_first_use_from_four_threads_at_once():
    out = _fresh(FIRST_USE)
    assert out.splitlines() == ["['generate', 'matching', 'reductions']",
                                repr([(True, (1, -2))] * 4)]
