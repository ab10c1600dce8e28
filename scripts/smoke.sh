#!/bin/sh
# Serving-path smoke test: boot portald on an ephemeral port over a tiny
# synthetic crawl, drive a short open-loop burst through loadgen asserting
# every response is 2xx or a 429 shed, then SIGTERM the server and require
# a clean graceful exit (readiness flip + drain + exit 0).
#
# Second leg: durability. Start a tiered (-data-dir) crawl with WAL sync
# on, kill -9 the process mid-crawl once some documents are acknowledged
# durable, restart over the same data directory, and require that every
# acknowledged document survived the crash. Then open the recovered data
# directory with bingosearch -db (the load-a-data-dir path) and require it
# to see at least the recovered documents.
#
# Run via `make smoke`; CI runs it on every push.
set -eu

tmp="$(mktemp -d)"
pid=""
cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "smoke: building portald + loadgen + bingosearch"
go build -o "$tmp/portald" ./cmd/portald
go build -o "$tmp/loadgen" ./cmd/loadgen
go build -o "$tmp/bingosearch" ./cmd/bingosearch

echo "smoke: starting portald (tiny world crawl, ephemeral port)"
"$tmp/portald" -crawl -world tiny -listen 127.0.0.1:0 -port-file "$tmp/port" \
    >"$tmp/portald.log" 2>&1 &
pid=$!

# The port file appears only after the crawl finishes and the listener is
# bound with readiness announced; the tiny world takes seconds, budget more.
i=0
while [ ! -s "$tmp/port" ]; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: portald exited before serving; log follows" >&2
        cat "$tmp/portald.log" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 1200 ]; then
        echo "smoke: timed out waiting for portald to serve" >&2
        cat "$tmp/portald.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr="$(cat "$tmp/port")"
echo "smoke: portald serving on $addr"

echo "smoke: checking readiness"
"$tmp/loadgen" -target "http://$addr" -path /readyz -rate 5 -duration 1s -fail-on-errors

echo "smoke: 2s open-loop burst on /search (zero non-2xx/non-429 required)"
"$tmp/loadgen" -target "http://$addr" -rate 200 -duration 2s -fail-on-errors

echo "smoke: SIGTERM, expecting graceful drain and exit 0"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
    echo "smoke: portald exited $rc on SIGTERM (graceful shutdown broken); log follows" >&2
    cat "$tmp/portald.log" >&2
    exit 1
fi
if ! grep -q "shutdown complete" "$tmp/portald.log"; then
    echo "smoke: portald never logged 'shutdown complete'; log follows" >&2
    cat "$tmp/portald.log" >&2
    exit 1
fi

# --- Durability leg: SIGKILL a tiered crawl, recover from segments + WAL ---

echo "smoke: starting tiered crawl (-data-dir, WAL sync on)"
datadir="$tmp/data"
"$tmp/portald" -crawl -world tiny -data-dir "$datadir" -wal-sync \
    -listen 127.0.0.1:0 -port-file "$tmp/port2" \
    >"$tmp/tiered.log" 2>&1 &
pid=$!

# Wait until the crawl has acknowledged at least a few documents as
# durable (fsynced WAL), then pull the plug with SIGKILL — no drain, no
# manifest commit, the worst crash the recovery path must handle.
min_durable=5
i=0
durable=0
while :; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: tiered portald exited before reaching $min_durable durable docs; log follows" >&2
        cat "$tmp/tiered.log" >&2
        exit 1
    fi
    durable="$(sed -n 's/^crawl progress: \([0-9][0-9]*\) docs durable$/\1/p' "$tmp/tiered.log" | tail -1)"
    if [ -n "$durable" ] && [ "$durable" -ge "$min_durable" ]; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 1200 ]; then
        echo "smoke: timed out waiting for durable crawl progress; log follows" >&2
        cat "$tmp/tiered.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "smoke: $durable docs durable, sending SIGKILL mid-crawl"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "smoke: restarting over the crashed data directory"
"$tmp/portald" -data-dir "$datadir" -listen 127.0.0.1:0 -port-file "$tmp/port3" \
    >"$tmp/recover.log" 2>&1 &
pid=$!
i=0
while [ ! -s "$tmp/port3" ]; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: recovery portald exited before serving; log follows" >&2
        cat "$tmp/recover.log" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "smoke: timed out waiting for recovery portald" >&2
        cat "$tmp/recover.log" >&2
        exit 1
    fi
    sleep 0.1
done
recovered="$(sed -n 's/^serving portal over \([0-9][0-9]*\) documents.*/\1/p' "$tmp/recover.log" | tail -1)"
if [ -z "$recovered" ] || [ "$recovered" -lt "$durable" ]; then
    echo "smoke: WAL replay lost acknowledged documents: $durable were durable, recovered ${recovered:-0}; logs follow" >&2
    cat "$tmp/recover.log" >&2
    exit 1
fi
echo "smoke: recovered $recovered docs (>= $durable acknowledged durable before SIGKILL)"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
    echo "smoke: recovery portald exited $rc on SIGTERM; log follows" >&2
    cat "$tmp/recover.log" >&2
    exit 1
fi

echo "smoke: querying the recovered data directory with bingosearch -db"
if ! "$tmp/bingosearch" -db "$datadir" -n 3 database recovery >"$tmp/search.log" 2>&1; then
    echo "smoke: bingosearch -db failed on the data directory; output follows" >&2
    cat "$tmp/search.log" >&2
    exit 1
fi
found="$(sed -n 's/^database: \([0-9][0-9]*\) documents.*/\1/p' "$tmp/search.log" | head -1)"
if [ -z "$found" ] || [ "$found" -lt "$recovered" ]; then
    echo "smoke: bingosearch -db saw ${found:-0} documents, the recovery portald served $recovered; output follows" >&2
    cat "$tmp/search.log" >&2
    exit 1
fi
echo "smoke: bingosearch -db read $found docs from the data directory (>= $recovered recovered)"
echo "smoke: OK"
