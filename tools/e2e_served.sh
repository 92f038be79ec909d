#!/bin/sh
# Runs one of the end-to-end daemon gates (tools/CMakeLists.txt):
#   e2e_served.sh <work> <daemon command...> -- <client command...>
# Starts the daemon with "--port 0 --port-file <work>.port", runs the client
# with "--port-file <work>.port" once that file is written, then sends the
# daemon SIGTERM and exits 0 only if the client did and the daemon drained
# and exited 0.  The daemon writes to <work>.log, never to this script's
# output, and is killed and reaped on every other exit path.
set -u
work=$1
shift
rm -f "$work.port"
(
  # Keep the words before "--", the daemon command, in "$@".
  daemon=1
  for word do
    shift
    [ "$word" = -- ] && daemon=
    [ -n "$daemon" ] && set -- "$@" "$word"
  done
  exec "$@" --port 0 --port-file "$work.port"
) >"$work.log" 2>&1 &
pid=$!
trap 'kill -KILL "$pid" 2>/dev/null; wait "$pid" 2>/dev/null' EXIT
trap 'exit 1' HUP INT TERM

fail() {
  echo "e2e_served: $1; daemon log:"
  cat "$work.log"
  exit 1
}

while [ ! -s "$work.port" ]; do
  kill -0 "$pid" 2>/dev/null || fail "daemon exited before listening"
  sleep 0.1
done
while [ "$1" != -- ]; do shift; done
shift
"$@" --port-file "$work.port" || fail "client exited $?"
kill -TERM "$pid"
wait "$pid"
status=$?
trap - EXIT
[ "$status" -eq 0 ] || fail "daemon exited $status after SIGTERM"
