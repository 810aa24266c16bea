#!/bin/sh
# Daemon descriptor-exhaustion smoke: run mmlptd under `ulimit -n 16`
# (set in a subshell, so only the daemon is limited), open more
# connections than it has descriptors for, close them all, then require
# a fresh client to be served (HelloAck + status) within 3 s. A daemon
# whose listener gives up on EMFILE never answers. Exits 77 (skipped)
# without python3, which holds the connections open.
#
# usage: smoke_daemon_fd_limit.sh MMLPTD MMLPT_CLIENT WORKDIR
set -eu

MMLPTD="$1"
CLIENT="$2"
WORK="$3"

if ! command -v python3 >/dev/null 2>&1; then
  echo "SKIP: smoke_daemon_fd_limit needs python3"
  exit 77
fi

rm -rf "$WORK"
mkdir -p "$WORK"
SOCK="$WORK/mmlptd.sock"

(ulimit -n 16 && exec "$MMLPTD" --socket "$SOCK") 2>"$WORK/daemon.log" &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2>/dev/null || true' EXIT

tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "FAIL: daemon socket never appeared" >&2
    cat "$WORK/daemon.log" >&2
    exit 1
  fi
  sleep 0.1
done

# 20 connections: the daemon can accept only the first few before
# accept() fails with EMFILE; the rest wait in the listen backlog.
python3 - "$SOCK" <<'PY'
import socket, sys, time
held = []
for _ in range(20):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sys.argv[1])
    held.append(s)
time.sleep(0.5)
for s in held:
    s.close()
PY

if ! timeout 3 "$CLIENT" --socket "$SOCK" --status >"$WORK/status.json"; then
  echo "FAIL: no answer within 3 s after descriptor exhaustion" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
fi
grep -q '"daemon":"mmlptd"' "$WORK/status.json"

kill -TERM "$DAEMON_PID"
rc=0
wait "$DAEMON_PID" || rc=$?
trap - EXIT
if [ "$rc" -ne 0 ]; then
  echo "FAIL: daemon exited $rc after SIGTERM" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
fi
echo "PASS: daemon served a fresh client after running out of descriptors"
