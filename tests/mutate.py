"""Mutation testing of one function at a time, on the stdlib alone.

    python tests/mutate.py sequences._normal_form sequences._Scan.anchor
    python tests/mutate.py --timeout 120 classify.apply_code

Each target is an epshift module and the qualified name of a function in
it.  A mutant changes one site of that function's source and nothing else
in the file: a `+` becomes `-` or back, one comparison is negated (`<` and
`>=`, `<=` and `>`, `==` and `!=`, `is` and `is not`, `in` and `not in`),
or an int constant grows by 1.  Each mutant runs `pytest -x` on the test
files that import the module, in a copy of the repository made in the
system's temporary directory (set TMPDIR to choose it), and is killed if a
test fails, survives if all pass, and times out if the run outlasts
`--timeout` seconds (by default three times the unmutated run, and at
least 30), when its whole process group is killed.  A survivor listed in
EQUIVALENT is reported as equivalent, so that a run shows only new
survivors.  The unmutated run must pass first.  Prints one line per mutant
and a count per target.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {ast.Add: "-", ast.Sub: "+"}
TOKENS = {ast.Add: "+", ast.Sub: "-", ast.Lt: "<", ast.GtE: ">=", ast.LtE: "<=", ast.Gt: ">",
          ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
          ast.NotIn: "not in"}
NEGATED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.Eq: ast.NotEq,
           ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
           ast.NotIn: ast.In}
# Mutants no test can kill, as (target, change, a fragment of the mutated
# line) -> why the program's behaviour does not change.
EQUIVALENT = {
    ("classify._build_block_map", "32 -> 33", "len(centres) > 32"):
        "32 only picks the faster of two routes that give the same table and clash",
    ("classify._build_block_map", "'>' -> '<='", "len(centres) > 32"):
        "the comparison only picks the faster of two routes that give the same table and clash",
    ("classify._witness_code", "4 -> 5", "cap = lu + lv + 4 * n"):
        "the least radius is at most |u| + |v| + 4N: a larger cap only lets a buffer grow more",
    ("classify.SlidingBlockCode.read", "'-' -> '+'", "map(slice, range(size - n + 1)"):
        "map stops at the shorter of its two ranges, the unchanged one",
    ("classify.SlidingBlockCode.read", "1 -> 2", "map(slice, range(size - n + 1)"):
        "map stops at the shorter of its two ranges, the unchanged one",
}


def find_function(tree, qualname):
    """The function node of `qualname` (Class.method or function) in tree."""
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def mutants(source, qualname):
    """(line, description, mutated source) for each site of the function, the
    source being UTF-8 bytes, whose offsets `ast` counts in."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(line, col):
        return starts[line - 1] + col

    def op_between(left, right, token):
        """The byte span of `token` between the end of node left and the start
        of node right, where only spaces, brackets and the operator lie."""
        lo, hi = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
        gap = source[lo:hi].decode()
        found = gap.find(token) if token[0] in "+-<>=!" else gap.find(f" {token} ") + 1
        assert gap[found:found + len(token)] == token, (gap, token)
        start = lo + len(gap[:found].encode())
        return start, start + len(token)

    def spliced(span, text):
        return source[:span[0]] + text.encode() + source[span[1]:]

    fn = find_function(ast.parse(source), qualname)
    for node in ast.walk(fn):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            left = node.left if isinstance(node, ast.BinOp) else node.target
            right = node.right if isinstance(node, ast.BinOp) else node.value
            token = TOKENS[type(node.op)] + ("=" if isinstance(node, ast.AugAssign) else "")
            swap = SWAPS[type(node.op)] + token[1:]
            yield node.lineno, f"{token!r} -> {swap!r}", spliced(op_between(left, right, token), swap)
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                token, flip = TOKENS[type(op)], TOKENS[NEGATED[type(op)]]
                yield node.lineno, f"{token!r} -> {flip!r}", spliced(op_between(left, right, token), flip)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            span = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            yield node.lineno, f"{node.value} -> {node.value + 1}", spliced(span, str(node.value + 1))


def imported(tree):
    """The modules a tree imports; `from a import b` counts both a and a.b."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def importing_tests(tests, module):
    """The test files of `tests` that import epshift.<module>."""
    return [f"tests/{p.name}" for p in sorted(tests.glob("test_*.py"))
            if f"epshift.{module}" in imported(ast.parse(p.read_bytes()))]


def run(copy, files, timeout):
    """'killed', 'survived' or 'timed out', from `pytest -x` on files."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *files], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out"
    if code not in (0, 1, 2):
        raise SystemExit(f"pytest exited with {code} on {files}")
    return "survived" if code == 0 else "killed"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    ap.add_argument("targets", nargs="+", help="module.qualname, e.g. sequences._Scan.anchor")
    ap.add_argument("--timeout", type=float, help="seconds per mutant")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        totals = []
        for target in args.targets:
            module, _, qualname = target.partition(".")
            path = copy / "src" / "epshift" / f"{module}.py"
            source = path.read_bytes()
            files = importing_tests(copy / "tests", module)
            began = time.perf_counter()
            if run(copy, files, None) != "survived":
                raise SystemExit(f"the tests of {module} fail unmutated")
            timeout = args.timeout or max(30.0, 3 * (time.perf_counter() - began))
            counts = {"killed": 0, "survived": 0, "timed out": 0, "equivalent": 0}
            lines = source.decode().splitlines()
            try:
                for line, change, mutated in mutants(source, qualname):
                    path.write_bytes(mutated)
                    outcome = run(copy, files, timeout)
                    why = next((why for (t, c, fragment), why in EQUIVALENT.items()
                                if (t, c) == (target, change) and fragment in lines[line - 1]), "")
                    if outcome == "survived" and why:
                        outcome = "equivalent"
                    counts[outcome] += 1
                    print(f"{outcome:10}  {target} line {line}: {change}"
                          + (f" ({why})" if outcome == "equivalent" else ""), flush=True)
            finally:
                path.write_bytes(source)
            totals.append((target, counts))
        for target, counts in totals:
            print(f"{target}: " + ", ".join(f"{n} {k}" for k, n in counts.items()))


if __name__ == "__main__":
    main()
