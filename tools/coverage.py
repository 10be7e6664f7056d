#!/usr/bin/env python3
"""Function coverage of src/: what the benches reach, what only tests do.

Builds the repo in a separate tree with gcov instrumentation, runs three
passes, and lists by source location every src/ function that no pass
reached (zero-hit) and every one that only the test suites reached
(test-only):

  1. benches:  tools/smoke.sh (every bench and example at smoke scale)
               and rfc_perf --quick on every BENCHMARK.json workload;
  2. tier 1:   ctest -L tier1;
  3. tier 2:   ctest -L tier2.

Every listed function that the "Untested by benches, and why" section of
DESIGN.md does not name is flagged.  The report never fails: the exit
status is nonzero only when the build or a run fails.  Compiles, ctest
and gcov run as many jobs as the host has CPUs.

    tools/coverage.py [--build-dir DIR]

Needs GCC and its gcov; standard library only otherwise.  A rerun reuses
the build tree, so only changed sources recompile.  On a 2-vCPU host a
cold run takes about 20 minutes: 5.5 to build, 8 for the bench pass,
5 for tier 1 (nearly all test_repr_equivalence) and under a minute for
tier 2 and gcov.

How functions are counted:
  - Template instantiations and a header function emitted in several
    objects count once, by (file, start line).  Lambdas count as part of
    the function that contains them; '= default' functions, which have
    no body, are left out.
  - A function is hit when gcov counts a call to it or any line of its
    body ran.  -fno-early-inlining keeps the counts of small inline
    functions exact: inlined before instrumentation, their lines would
    read 0 in every caller.  -fprofile-update=atomic keeps the thread
    pool's workers from racing on the counters.
  - gcov only sees functions the compiler emitted.  Sources under src/
    get -fkeep-inline-functions, through a compiler launcher this script
    writes into the build tree, so an inline header function nothing
    calls still shows up.  Only src/ gets it: on test objects the flag
    can pull in gtest printers the installed library lacks.
"""
import argparse
import concurrent.futures
import json
import os
import re
import stat
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESIGN_SECTION = "Untested by benches, and why"
JOBS = os.cpu_count() or 1

CXX_FLAGS = "--coverage -fprofile-update=atomic -fno-early-inlining"
OPT_FLAGS = "-O1 -DNDEBUG"

LAUNCHER = """#!/bin/sh
# Compiler launcher written by tools/coverage.py: keep uncalled inline
# functions of sources under src/ so gcov reports them.
case "$*" in
  *" -c {src}/"*) exec "$@" -fkeep-inline-functions ;;
esac
exec "$@"
"""


def log(msg):
    print(f"coverage: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    """Run cmd with stdout and stderr appended to log_path; exit on failure."""
    with open(log_path, "a") as out:
        out.write(f"$ {' '.join(cmd)}\n")
        out.flush()
        rc = subprocess.call(cmd, stdout=out, stderr=out)
    if rc != 0:
        with open(log_path) as f:
            tail = f.readlines()[-30:]
        sys.stderr.write("".join(tail))
        sys.exit(f"coverage: '{' '.join(cmd)}' exited {rc}; log: {log_path}")


def configure_and_build(build):
    os.makedirs(build, exist_ok=True)
    launcher = os.path.join(build, "keep_inline.sh")
    with open(launcher, "w") as f:
        f.write(LAUNCHER.format(src=os.path.join(REPO, "src")))
    os.chmod(launcher, os.stat(launcher).st_mode | stat.S_IXUSR)
    common = [
        "-DCMAKE_BUILD_TYPE=Release",
        f"-DCMAKE_CXX_FLAGS_RELEASE={OPT_FLAGS}",
        f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}",
        "-DCMAKE_EXE_LINKER_FLAGS=--coverage",
        f"-DCMAKE_CXX_COMPILER_LAUNCHER={launcher}",
    ]
    build_log = os.path.join(build, "coverage-build.log")
    perf = os.path.join(build, "perf")
    perf_src = os.path.join(REPO, "bench", "perf")
    for src, dst in ((REPO, build), (perf_src, perf)):
        run_logged(["cmake", "-S", src, "-B", dst] + common, build_log)
        run_logged(["cmake", "--build", dst, "-j", str(JOBS)], build_log)
    return os.path.join(perf, "rfc_perf")


def files_under(root, suffix):
    for d, _, names in os.walk(root):
        for n in names:
            if n.endswith(suffix):
                yield os.path.join(d, n)


def run_pass(name, build, rfc_perf):
    for path in files_under(build, ".gcda"):
        os.remove(path)
    pass_log = os.path.join(build, f"coverage-{name}.log")
    if os.path.exists(pass_log):
        os.remove(pass_log)
    start = time.monotonic()
    if name == "benches":
        run_logged([os.path.join(REPO, "tools", "smoke.sh"), build], pass_log)
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        for w in workloads:
            run_logged([rfc_perf, "--workload", w, "--seed", "1", "--quick"],
                       pass_log)
    else:
        run_logged(["ctest", "--test-dir", build, "-L", name,
                    "-j", str(JOBS), "--output-on-failure"], pass_log)
    log(f"pass {name}: {time.monotonic() - start:.0f} s")


def gcov_documents(paths):
    """gcov JSON documents for a batch of .gcno files (zeros if no .gcda)."""
    out = subprocess.run(
        ["gcov", "--json-format", "--demangled-names", "--stdout"] + paths,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def src_path(doc, name):
    """Repo-relative path of a gcov file entry if it lies under src/."""
    path = os.path.normpath(
        os.path.join(doc.get("current_working_directory", ""), name))
    rel = os.path.relpath(path, REPO)
    return rel if rel.startswith("src" + os.sep) else None


def collect(build):
    """One pass's src/ counts, merged over every object by (file, line).

    Returns ({(file, start): (name, end, called)}, {(file, line): count}).
    """
    gcnos = sorted(files_under(build, ".gcno"))
    batches = [gcnos[i:i + 8] for i in range(0, len(gcnos), 8)]
    functions, lines = {}, {}
    with concurrent.futures.ThreadPoolExecutor(JOBS) as ex:
        for docs in ex.map(gcov_documents, batches):
            for doc in docs:
                for entry in doc["files"]:
                    rel = src_path(doc, entry["file"])
                    if rel is None:
                        continue
                    for fn in entry["functions"]:
                        key = (rel, fn["start_line"])
                        name, end, called = functions.get(
                            key, (fn["demangled_name"], fn["end_line"], False))
                        functions[key] = (name, max(end, fn["end_line"]),
                                          called or fn["execution_count"] > 0)
                    for ln in entry["lines"]:
                        key = (rel, ln["line_number"])
                        lines[key] = lines.get(key, 0) + ln["count"]
    return functions, lines


def strip_nested(text, open_ch, close_ch):
    """Drop every balanced open_ch...close_ch group (outermost first)."""
    out, depth = [], 0
    for ch in text:
        if ch == open_ch:
            depth += 1
        elif ch == close_ch and depth:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def short_name(demangled):
    """'rfc::Foo::bar' from 'int rfc::Foo::bar<int>(int) const'."""
    s = demangled.replace("(anonymous namespace)::", "")
    s = re.sub(r"\[abi:\w+\]", "", s)
    # Protect operator tokens that contain brackets or parentheses.
    ops = {}

    def protect(m):
        key = f"@{len(ops)}@"
        ops[key] = m.group(0)
        return key

    s = re.sub(r"operator(\(\)|\[\]|<=>|<<=|>>=|<<|>>|<=|>=|->|<|>)",
               protect, s)
    s = strip_nested(s, "<", ">")
    s = strip_nested(s, "(", ")")
    s = re.sub(r"(\s*(const|volatile|&&|&|noexcept))+$", "", s.strip())
    # Drop the return type; a conversion operator keeps its type.
    m = re.search(r"\boperator\b", s)
    head, tail = (s[:m.start()], s[m.start():]) if m else (s, "")
    s = head.split(" ")[-1] + tail
    for key, op in ops.items():
        s = s.replace(key, op)
    return s[len("rfc::"):] if s.startswith("rfc::") else s


def defaulted(file, start, end, sources):
    """True for '= default' functions: no body to cover."""
    if file not in sources:
        with open(os.path.join(REPO, file)) as f:
            sources[file] = f.read().split("\n")
    return "= default" in " ".join(sources[file][start - 1:end])


def classify(passes):
    """Merge per-pass counts into one record per src/ function."""
    names, ends, hit, sources = {}, {}, {}, {}
    for pname, (functions, lines) in passes.items():
        for key, (name, end, called) in functions.items():
            short = short_name(name)
            # A lambda's own body, not a function instantiated with one.
            if "{lambda" in short or defaulted(*key, end, sources):
                continue
            names.setdefault(key, short)
            ends[key] = max(ends.get(key, end), end)
            file, start = key
            ran = called or any(lines.get((file, ln), 0) > 0
                                for ln in range(start, ends[key] + 1))
            hit.setdefault(key, set())
            if ran:
                hit[key].add(pname)
    all_lines = {k for _, lines in passes.values() for k in lines}
    ran_lines = {k for _, lines in passes.values()
                 for k, c in lines.items() if c > 0}
    return names, hit, len(all_lines - ran_lines)


def design_tokens():
    """Backticked names in DESIGN.md's "Untested by benches, and why"."""
    with open(os.path.join(REPO, "DESIGN.md")) as f:
        text = f.read()
    m = re.search(r"^(#+)\s.*" + re.escape(DESIGN_SECTION) + r".*$", text,
                  re.MULTILINE)
    if not m:
        return set()
    level = len(m.group(1))
    rest = text[m.end():]
    end = re.search(r"^#{1,%d}\s" % level, rest, re.MULTILINE)
    section = rest[:end.start()] if end else rest
    tokens = set()
    for tok in re.findall(r"`([^`]+)`", section):
        tok = tok.strip()
        if tok.endswith("()"):
            tok = tok[:-2]
        tokens.add(tok[len("rfc::"):] if tok.startswith("rfc::") else tok)
    return tokens


def name_matches(tok, name):
    """tok names the function itself, its class, or a prefix ending in '*'."""
    if tok.endswith("*"):
        return name.startswith(tok[:-1])
    return name == tok or name.startswith(tok + "::")


def listed(name, file, tokens):
    """Whether a DESIGN.md token covers the function name defined in file.

    'dir/' covers every file under it and a file path every function in
    that file.  'file:name' covers a function in that file only.  A
    qualified 'Class::member' (or 'Class::*') matches in any file.  A bare
    name covers only the members of a class of that name: a free function
    must come with its file, so one of the same name added elsewhere is
    still flagged.
    """
    for tok in tokens:
        if file == tok or (tok.endswith("/") and file.startswith(tok)):
            return True
        m = re.fullmatch(r"(src/[^:\s]+):(?!:)(.+)", tok)
        if m:
            if file == m.group(1) and name_matches(m.group(2), name):
                return True
        elif "::" in tok:
            if name_matches(tok, name):
                return True
        elif name.startswith(tok + "::"):
            return True
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir",
                    default=os.path.join(REPO, "build-coverage"),
                    help="instrumented build tree (default: build-coverage)")
    args = ap.parse_args()
    build = os.path.abspath(args.build_dir)

    start = time.monotonic()
    rfc_perf = configure_and_build(build)
    log(f"build: {time.monotonic() - start:.0f} s")

    passes = {}
    for name in ("benches", "tier1", "tier2"):
        run_pass(name, build, rfc_perf)
        passes[name] = collect(build)

    names, hit, never_ran = classify(passes)
    zero = sorted(k for k, h in hit.items() if not h)
    test_only = sorted(k for k, h in hit.items() if h and "benches" not in h)
    reached = len(hit) - len(zero) - len(test_only)
    print(f"src/ functions: {len(hit)}; reached by benches: {reached}; "
          f"only by tests: {len(test_only)}; by nothing: {len(zero)}; "
          f"src/ lines that never ran: {never_ran}")

    tokens = design_tokens()
    unlisted = []
    for title, keys in (("zero-hit", zero), ("test-only", test_only)):
        print(f"\n{title} ({len(keys)}):")
        for key in keys:
            file, line = key
            tiers = ",".join(sorted(hit[key]))
            suffix = f"  [{tiers}]" if tiers else ""
            print(f"  {file}:{line} {names[key]}{suffix}")
            if not listed(names[key], file, tokens):
                unlisted.append(key)
    print(f'\nnot listed in DESIGN.md "{DESIGN_SECTION}" ({len(unlisted)}):')
    for file, line in unlisted:
        print(f"  {file}:{line} {names[(file, line)]}")


if __name__ == "__main__":
    main()
