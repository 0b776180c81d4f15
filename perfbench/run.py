#!/usr/bin/env python3
"""Build and run the xoridx end-to-end benchmark (see METRICS.md).

    python3 perfbench/run.py --serve-rate R --workload table2|sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the `perfbench` program in Release mode under `.bench_build`
(or $CARGO_TARGET_DIR when set); later runs rebuild incrementally. Each
run writes its outputs under `.bench_out/` and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. The line before it records the run's provenance, which is also
kept with the result in `.bench_out/results/`. `--serve-rate` is the
arrival rate of the serve episode in the traced sweep run; BENCHMARK.json
fixes it. The exit code is nonzero when the build fails or is refused
(Debug or sanitizer), or when any output was wrong.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def cmake_cache(build_dir):
    cache = {}
    path = build_dir / "CMakeCache.txt"
    if not path.exists():
        return cache
    for line in path.read_text(errors="replace").splitlines():
        if line.startswith(("#", "//")) or "=" not in line or ":" not in line:
            continue
        key, value = line.split("=", 1)
        cache[key.split(":", 1)[0]] = value
    return cache


def build(build_dir):
    """Configure once, then build the program; returns its path and the
    CMake cache (read for provenance; the CMake package and the program
    refuse Debug and sanitizer builds)."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no xoridx sources next to {BENCH_DIR.name}/")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr,
        timeout=max(1, deadline - time.monotonic()))
    return build_dir / "perfbench", cmake_cache(build_dir)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def compiler(build_dir, cache):
    for path in sorted(build_dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        for line in path.read_text(errors="replace").splitlines():
            if line.startswith("set(CMAKE_CXX_COMPILER_VERSION"):
                version = line.split('"')[1]
                return f"{cache.get('CMAKE_CXX_COMPILER', 'c++')} {version}"
    return cache.get("CMAKE_CXX_COMPILER", "unknown")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--serve-rate", required=True, type=float)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_dir = ROOT / ".bench_out"
    try:
        binary, cache = build(build_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "nproc": os.cpu_count(),
        "compiler": compiler(build_dir, cache),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "xoridx_obs": cache.get("XORIDX_OBS", "ON"),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "serve_rate": args.serve_rate,
    }
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(out_dir),
               "--serve-rate", str(args.serve_rate)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        log(f"no result from perfbench (exit {run.returncode}): {e}")
        return run.returncode or 1

    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / (f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}.json")
    record.write_text(json.dumps({"provenance": provenance,
                                  "result": result}, indent=1) + "\n")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
