#!/bin/sh
# Kills a checkpointing sweep mid-way, for the CI kill-and-resume jobs:
#
#   tools/kill_midway.sh <store> <command> [args...]
#
# Starts the command, waits until <store> holds at least five finished
# cells, then sends SIGKILL. Exits non-zero when the command finished
# before the kill landed, so the resume that follows is guaranteed both
# stored cells to load and cells left to compute.
set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <store> <command> [args...]" >&2
  exit 2
fi
store=$1
shift

# A finished but not yet reaped child is a zombie: kill -0 still succeeds.
running() {
  state=$(ps -o stat= -p "$1" 2>/dev/null) && [ "${state#Z}" = "$state" ]
}

"$@" &
pid=$!
while [ "$(cat "$store" 2>/dev/null | wc -l)" -lt 5 ]; do
  running "$pid" || break
  sleep 0.05
done
kill -KILL "$pid" 2>/dev/null
code=0
wait "$pid" || code=$?
if [ "$code" -ne 137 ]; then
  echo "kill_midway: the run exited with status $code before it was killed" >&2
  exit 1
fi
echo "kill_midway: killed after $(wc -l < "$store") stored cell(s)"
