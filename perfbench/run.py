#!/usr/bin/env python3
"""Build and run the hmem benchmark.

    python3 perfbench/run.py --workload pipeline|sweep_rows|trace_advise \
        --seed N --seconds S --trace 0|1 [extra hmem_bench flags]

Builds perfbench/ (the hmem library from src/ plus the hmem_bench program)
in Release mode into $CARGO_TARGET_DIR (default .bench_build, relative to
the repository root), then runs one measurement. hmem_bench's stderr (build
log, op-mix report, self-time table) passes through; the last stdout line is
the JSON result. With --trace 1 the spans are written to
<build dir>/spans/<workload>-seed<N>.jsonl.

Exits non-zero without printing a result when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out: Path, env: dict) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(out), "--target", "hmem_bench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return out / "hmem_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    out = build_dir()
    # Compiler temporaries stay in the build directory. The run measures the
    # defaults a user gets: no kernel override, no fault injection inherited
    # from the environment.
    tmp = out / "tmp"
    env = {k: v for k, v in os.environ.items()
           if k not in ("HMEM_KERNEL", "HMEM_FAULTS")}
    env["TMPDIR"] = str(tmp)
    try:
        tmp.mkdir(parents=True, exist_ok=True)
        binary = build(out, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--configs", str(ROOT / "configs" / "apps")]
    if args.trace == "1":
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    cmd += extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hmem_bench did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"hmem_bench failed with exit code {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("hmem_bench printed a malformed result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
