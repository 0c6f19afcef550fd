#!/usr/bin/env bash
# Runs the CI workflow offline: every `run:` step of every job in
# .github/workflows/ci.yml, in file order, read from the workflow itself
# so the steps are never written out a second time. `uses:` steps
# (checkout, cache, artifact upload) and the network-only `Rust
# toolchain` step are skipped. Each step runs from the repository root
# under `bash -eo pipefail` with the workflow's and its job's `env`; the
# first failing step stops the run and is named.
#
# Usage: scripts/ci_local.sh   (takes no flags; needs python3 + PyYAML)
set -euo pipefail

if [ "$#" -ne 0 ]; then
    echo "usage: scripts/ci_local.sh (takes no flags)" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

exec python3 - .github/workflows/ci.yml <<'PY'
import os
import subprocess
import sys

import yaml


def strings(env):
    return {k: str(v) for k, v in (env or {}).items()}


with open(sys.argv[1]) as f:
    workflow = yaml.safe_load(f)
workflow_env = strings(workflow.get("env"))
for job_name, job in workflow["jobs"].items():
    env = {**os.environ, **workflow_env, **strings(job.get("env"))}
    for i, step in enumerate(job.get("steps", []), 1):
        name = f"{job_name} / {step.get('name') or step.get('uses') or f'step {i}'}"
        if "run" not in step or step.get("name") == "Rust toolchain":
            print(f"ci_local: skip {name}", flush=True)
            continue
        print(f"ci_local: run  {name}", flush=True)
        script = step["run"]
        done = subprocess.run(
            ["bash", "-eo", "pipefail", "-c", script], env=env, stdin=subprocess.DEVNULL
        )
        if done.returncode != 0:
            print(f"ci_local: FAILED {name} (exit {done.returncode})", file=sys.stderr)
            sys.exit(done.returncode)
print("ci_local: every run step passed")
PY
