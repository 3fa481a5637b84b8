#!/usr/bin/env bash
# Loopback smoke for the network stack (lib/net): a real daemon, real
# clients and the fault proxy on 127.0.0.1.
#
#   1. Full protocol-II session: 4 client processes through a proxy
#      injecting 10% drops / 5% duplicates, with a kill -9 of the
#      daemon mid-session and a restart from the same store — clients
#      must reconnect, the session must finish clean (exit 0). Every
#      process journals trace spans; the restarted daemon serves a
#      live admin endpoint that is scraped mid-session and checked
#      against its end-of-run metrics report.
#   2. trace-join over phase 1's journals: the joined timeline must
#      reconstruct every op as one complete span (exit 4 = orphans),
#      show all three process kinds, and be byte-identical when run
#      twice over the same files in a different order.
#   3. Figure 1 over TCP: a forking server plus a proxy partition of
#      the external broadcast channel — every client must raise a TRUE
#      ALARM (exit 3).
#   4. Sharded cluster: 2 shard daemons behind individual fault
#      proxies, a router composing their roots per round, and 2
#      lockstep clients running the full protocol through it. One
#      shard is kill -9'd mid-session and restarted from its store on
#      the same port; the clients must still finish clean. trace-join
#      over every journal (clients, router, proxies, shards) must show
#      client -> router -> shard spans in one timeline.
#
# Usage: tools/net_smoke.sh   (from the repository root, after a build)

set -euo pipefail

CLI=${CLI:-_build/default/bin/tcvs_cli.exe}
SEED=net-smoke
WORK=$(mktemp -d "${TMPDIR:-/tmp}/tcvs-net-smoke.XXXXXX")
PIDS=()

cleanup() {
  for pid in ${PIDS[@]+"${PIDS[@]}"}; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

# wait_port FILE: poll for a --port-file and print the bound port.
wait_port() {
  for _ in $(seq 1 200); do
    if [ -s "$1" ]; then
      cat "$1"
      return 0
    fi
    sleep 0.05
  done
  echo "timed out waiting for port file $1" >&2
  return 1
}

echo "== 1. proxied session with drops, kill -9 and restart =="

"$CLI" serve --store "$WORK/store" --shards 4 --users 4 --seed "$SEED" \
  --listen 0 --port-file "$WORK/daemon.port" \
  --journal "$WORK/daemon1.jsonl" &
DAEMON=$!
PIDS+=("$DAEMON")
DPORT=$(wait_port "$WORK/daemon.port")

"$CLI" proxy --connect "127.0.0.1:$DPORT" --listen 0 \
  --port-file "$WORK/proxy.port" --drop 0.10 --duplicate 0.05 \
  --seed "$SEED" --journal "$WORK/proxy.jsonl" &
PROXY=$!
PIDS+=("$PROXY")
PPORT=$(wait_port "$WORK/proxy.port")

CLIENTS=()
for u in 0 1 2 3; do
  "$CLI" client --connect "127.0.0.1:$PPORT" --user "$u" --users 4 \
    --shards 4 --rounds 3000 --seed "$SEED" \
    --journal "$WORK/client$u.jsonl" &
  CLIENTS+=("$!")
  PIDS+=("$!")
done

sleep 2
echo "-- kill -9 the daemon mid-session --"
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true

# Restart on the same port, resuming the same store: clients observe a
# new boot id, revalidate the handshake and replay unacked frames. The
# restarted daemon also serves the live admin plane and writes its
# registry report on exit.
"$CLI" serve --store "$WORK/store" --shards 4 --users 4 --seed "$SEED" \
  --listen "$DPORT" --port-file "$WORK/daemon2.port" \
  --journal "$WORK/daemon2.jsonl" \
  --admin 0 --admin-port-file "$WORK/admin.port" \
  --metrics "$WORK/daemon2-metrics.json" &
DAEMON=$!
PIDS+=("$DAEMON")
wait_port "$WORK/daemon2.port" >/dev/null
APORT=$(wait_port "$WORK/admin.port")

# Mid-session admin scrape: the session is still running (the clients
# have ~3000 rounds of script), so the snapshot must show live,
# non-zero counters.
sleep 1
"$CLI" stats --connect "127.0.0.1:$APORT" > "$WORK/live-stats.json"
LIVE_EXEC=$(grep -o '"net.daemon.requests_executed": [0-9]*' "$WORK/live-stats.json" \
  | grep -o '[0-9]*$')
grep -q '"schema": "tcvs-admin/1"' "$WORK/live-stats.json"
if [ -z "$LIVE_EXEC" ] || [ "$LIVE_EXEC" -le 0 ]; then
  echo "mid-session admin scrape shows no executed requests" >&2
  exit 1
fi
echo "-- live admin scrape: $LIVE_EXEC requests executed mid-session --"

for pid in "${CLIENTS[@]}"; do
  wait "$pid" # set -e: any non-zero client verdict fails the smoke
done
wait "$DAEMON"
kill "$PROXY" 2>/dev/null || true
wait "$PROXY" 2>/dev/null || true

# The end-of-run report is the same registry the admin plane served:
# the counter can only have grown since the scrape.
FINAL_EXEC=$(grep -o '"net.daemon.requests_executed": [0-9]*' "$WORK/daemon2-metrics.json" \
  | grep -o '[0-9]*$')
if [ -z "$FINAL_EXEC" ] || [ "$FINAL_EXEC" -lt "$LIVE_EXEC" ]; then
  echo "end-of-run report ($FINAL_EXEC) inconsistent with live scrape ($LIVE_EXEC)" >&2
  exit 1
fi
echo "-- all 4 clients finished clean across the restart ($FINAL_EXEC requests) --"

echo "== 2. trace-join: one deterministic timeline from 7 journals =="

JOURNALS=("$WORK/daemon1.jsonl" "$WORK/daemon2.jsonl" "$WORK/proxy.jsonl" \
  "$WORK/client0.jsonl" "$WORK/client1.jsonl" "$WORK/client2.jsonl" \
  "$WORK/client3.jsonl")

# Exit 4 would mean orphaned spans: an op that never found its reply
# even though every client finished clean.
"$CLI" trace-join "${JOURNALS[@]}" > "$WORK/trace1.txt"

# One complete round, reconstructed across all three process kinds.
grep -q 'client.send' "$WORK/trace1.txt"
grep -q 'proxy.to_server' "$WORK/trace1.txt"
grep -q 'daemon.dispatch' "$WORK/trace1.txt"
grep -q 'daemon.flush' "$WORK/trace1.txt"
grep -q 'span u[0-9]*#[0-9]* complete' "$WORK/trace1.txt"

# Determinism: same files, reversed order — byte-identical output.
REVERSED=()
for ((i = ${#JOURNALS[@]} - 1; i >= 0; i--)); do
  REVERSED+=("${JOURNALS[$i]}")
done
"$CLI" trace-join "${REVERSED[@]}" > "$WORK/trace2.txt"
cmp "$WORK/trace1.txt" "$WORK/trace2.txt"
echo "-- $(grep -c 'span u' "$WORK/trace1.txt") spans joined, deterministic --"

echo "== 3. Figure 1 over TCP: fork + partitioned broadcast channel =="

"$CLI" serve --users 4 --seed "$SEED" --adversary fork:12 \
  --listen 0 --port-file "$WORK/fig1.port" &
DAEMON=$!
PIDS+=("$DAEMON")
DPORT=$(wait_port "$WORK/fig1.port")

"$CLI" proxy --connect "127.0.0.1:$DPORT" --listen 0 \
  --port-file "$WORK/fig1-proxy.port" --partition '0,1|2,3@1' \
  --seed "$SEED" &
PROXY=$!
PIDS+=("$PROXY")
PPORT=$(wait_port "$WORK/fig1-proxy.port")

CLIENTS=()
for u in 0 1 2 3; do
  "$CLI" client --connect "127.0.0.1:$PPORT" --user "$u" --users 4 \
    --rounds 300 --sync-timeout 60 --seed "$SEED" &
  CLIENTS+=("$!")
  PIDS+=("$!")
done

for pid in "${CLIENTS[@]}"; do
  rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "expected a TRUE ALARM (exit 3) from every client, got $rc" >&2
    exit 1
  fi
done
wait "$DAEMON" 2>/dev/null || true
kill "$PROXY" 2>/dev/null || true
wait "$PROXY" 2>/dev/null || true
echo "-- all 4 clients alarmed: TRUE ALARM over real sockets --"

echo "== 4. sharded cluster: router + 2 shards, faults, kill -9 =="

CDIR="$WORK/cluster"
mkdir -p "$CDIR"

# Two shard-scoped daemons, each with its own durable store + journal.
SHARDS=()
for i in 0 1; do
  "$CLI" serve --shard-id "$i" --shard-count 2 --protocol none \
    --seed "$SEED" --store "$CDIR/shard$i-store" \
    --listen 0 --port-file "$CDIR/shard$i.port" \
    --journal "$CDIR/shard$i.jsonl" &
  SHARDS+=("$!")
  PIDS+=("$!")
done
S0PORT=$(wait_port "$CDIR/shard0.port")
S1PORT=$(wait_port "$CDIR/shard1.port")

# A fault proxy in front of EACH shard daemon: the router<->shard hop
# sees drops and duplicates, exercising sub-request retransmission and
# the shard-side dedup. (Prepare/Shard_root/Commit are control frames
# the proxy never faults, like Tick on a client link.)
PROXIES=()
for i in 0 1; do
  eval "BPORT=\$S${i}PORT"
  "$CLI" proxy --connect "127.0.0.1:$BPORT" --listen 0 \
    --port-file "$CDIR/proxy$i.port" --drop 0.05 --duplicate 0.05 \
    --seed "$SEED-s$i" --journal "$CDIR/proxy$i.jsonl" &
  PROXIES+=("$!")
  PIDS+=("$!")
done
P0PORT=$(wait_port "$CDIR/proxy0.port")
P1PORT=$(wait_port "$CDIR/proxy1.port")

# The router talks to the shards through the proxies and composes the
# client-visible root each round via the prepare/commit barrier.
"$CLI" route --shard "127.0.0.1:$P0PORT" --shard "127.0.0.1:$P1PORT" \
  --users 2 --listen 0 --port-file "$CDIR/router.port" \
  --journal "$CDIR/router.jsonl" --metrics "$CDIR/router-metrics.json" &
ROUTER=$!
PIDS+=("$ROUTER")
RPORT=$(wait_port "$CDIR/router.port")

# Two lockstep clients running the real protocol against the cluster:
# their VO-chain verification pins every composed root the router
# publishes, so a stale or wrong composition cannot finish clean.
CLIENTS=()
for u in 0 1; do
  "$CLI" client --connect "127.0.0.1:$RPORT" --user "$u" --users 2 \
    --shards 2 --rounds 3000 --seed "$SEED" \
    --journal "$CDIR/client$u.jsonl" &
  CLIENTS+=("$!")
  PIDS+=("$!")
done

sleep 2
echo "-- kill -9 shard 1 mid-session --"
kill -9 "${SHARDS[1]}"
wait "${SHARDS[1]}" 2>/dev/null || true

# Restart shard 1 from the same store on the same port (the proxy's
# backend address is fixed): the router reconnects through the proxy
# and replays its in-flight sub-request; the shard's persistent dedup
# makes the replay exactly-once.
"$CLI" serve --shard-id 1 --shard-count 2 --protocol none \
  --seed "$SEED" --store "$CDIR/shard1-store" \
  --listen "$S1PORT" --port-file "$CDIR/shard1b.port" \
  --journal "$CDIR/shard1b.jsonl" &
SHARD1=$!
PIDS+=("$SHARD1")
wait_port "$CDIR/shard1b.port" >/dev/null

for pid in "${CLIENTS[@]}"; do
  wait "$pid" # set -e: any non-zero client verdict fails the smoke
done
echo "-- both clients finished clean across the shard restart --"

# Drain the cluster: router first (it ends the session), then shards.
kill "$ROUTER" 2>/dev/null || true
wait "$ROUTER" 2>/dev/null || true
for pid in "${SHARDS[0]}" "$SHARD1" "${PROXIES[@]}"; do
  kill "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
done

grep -q '"net.router.barriers_committed"' "$CDIR/router-metrics.json"

# One timeline across all 8 journals: every op must thread
# client -> router -> proxy -> shard and back as a complete span.
"$CLI" trace-join "$CDIR"/client0.jsonl "$CDIR"/client1.jsonl \
  "$CDIR"/router.jsonl "$CDIR"/proxy0.jsonl "$CDIR"/proxy1.jsonl \
  "$CDIR"/shard0.jsonl "$CDIR"/shard1.jsonl "$CDIR"/shard1b.jsonl \
  > "$CDIR/trace.txt"
grep -q 'client.send' "$CDIR/trace.txt"
grep -q 'router.route' "$CDIR/trace.txt"
grep -q 'proxy.to_server' "$CDIR/trace.txt"
grep -q 'daemon.dispatch' "$CDIR/trace.txt"
grep -q 'router.reply' "$CDIR/trace.txt"
grep -q 'span u[0-9]*#[0-9]* complete' "$CDIR/trace.txt"
echo "-- $(grep -c 'span u' "$CDIR/trace.txt") cluster spans joined --"

echo "== net smoke passed =="
