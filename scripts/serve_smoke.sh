#!/usr/bin/env bash
# End-to-end smoke test for lasagna-serve: build the binaries, assemble a
# small synthetic dataset directly with the lasagna CLI (on one node and on
# three), then submit the same reads to a running two-device lasagna-serve
# over HTTP — once plain, once sharded across both devices — poll the jobs
# to completion, fetch the FASTA, and require every output byte-identical
# to the direct run. Finishes with a SIGTERM drain and a clean-exit check.
set -euo pipefail

cd "$(dirname "$0")/.."

work=$(mktemp -d /tmp/lasagna-serve-smoke.XXXXXX)
addr="localhost:18844"
base="http://$addr"
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -9 "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work/bin/" ./cmd/lasagna ./cmd/lasagna-serve ./cmd/readgen
"$work/bin/lasagna-serve" -version

echo "== generate reads"
"$work/bin/readgen" -genome-len 20000 -read-len 80 -coverage 10 -out "$work/reads.fastq"

echo "== direct assembly (golden output)"
"$work/bin/lasagna" -in "$work/reads.fastq" -workspace "$work/direct" -lmin 40 -workers 1 >/dev/null
golden="$work/direct/contigs.fasta"
[ -s "$golden" ] || { echo "direct assembly produced no contigs"; exit 1; }

echo "== direct assembly on 3 simulated nodes with -verify"
"$work/bin/lasagna" -in "$work/reads.fastq" -workspace "$work/nodes3" -lmin 40 -nodes 3 -verify >/dev/null
cmp -s "$golden" "$work/nodes3/contigs.fasta" || { echo "3-node FASTA differs from the single-node run"; exit 1; }

echo "== start server"
"$work/bin/lasagna-serve" -addr "$addr" -root "$work/serve-data" -devices 2 -quiet &
server_pid=$!
for i in $(seq 1 50); do
    if curl -sf "$base/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then echo "server died during startup"; exit 1; fi
    sleep 0.1
done
curl -sf "$base/healthz" >/dev/null || { echo "server never became healthy"; exit 1; }

echo "== submit job"
created=$(curl -sf --data-binary "@$work/reads.fastq" "$base/v1/jobs?lmin=40&workers=1&name=smoke")
job_id=$(printf '%s' "$created" | sed -n 's/.*"id": *"\(j[0-9a-f]*\)".*/\1/p' | head -n 1)
[ -n "$job_id" ] || { echo "no job id in response: $created"; exit 1; }
echo "   job $job_id"

# wait_job polls a job until it is terminal and requires it succeeded,
# leaving its last record in $body.
wait_job() {
    local state=""
    for i in $(seq 1 600); do
        body=$(curl -sf "$base/v1/jobs/$1")
        state=$(printf '%s' "$body" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -n 1)
        case "$state" in
            succeeded|failed|canceled) break ;;
        esac
        sleep 0.1
    done
    [ "$state" = "succeeded" ] || { echo "job $1 ended in state '$state'"; printf '%s\n' "$body"; exit 1; }
}

echo "== poll until terminal"
wait_job "$job_id"

echo "== fetch result and compare"
curl -sf "$base/v1/jobs/$job_id/result" > "$work/served.fasta"
if ! cmp -s "$golden" "$work/served.fasta"; then
    echo "served FASTA differs from direct assembly"
    exit 1
fi
echo "   byte-identical to direct assembly ($(wc -c < "$golden") bytes)"

echo "== metrics sanity (prometheus exposition)"
prom=$(curl -sf "$base/metrics")
[ -n "$prom" ] || { echo "/metrics returned an empty body"; exit 1; }
printf '%s\n' "$prom" | grep -q '^serve_jobs_admitted 1$' || { echo "/metrics missing serve_jobs_admitted 1"; exit 1; }
printf '%s\n' "$prom" | grep -q '^# TYPE serve_jobs_succeeded counter$' || { echo "/metrics missing TYPE line for serve_jobs_succeeded"; exit 1; }
printf '%s\n' "$prom" | grep -q '^serve_jobs_succeeded 1$' || { echo "/metrics missing serve_jobs_succeeded 1"; exit 1; }
printf '%s\n' "$prom" | grep -q 'serve_queue_wait_ms_bucket{.*le="+Inf"' || { echo "/metrics missing +Inf bucket for serve_queue_wait_ms"; exit 1; }

echo "== flight-recorder events"
events=$(curl -sf "$base/v1/jobs/$job_id/events")
printf '%s' "$events" | grep -q '"type": *"enqueue"' || { echo "job events missing enqueue: $events"; exit 1; }
printf '%s' "$events" | grep -q '"type": *"terminal"' || { echo "job events missing terminal: $events"; exit 1; }
printf '%s' "$events" | tr -d ' \n' | grep -q '"type":"claim","job":"[^"]*","attrs":{[^}]*"waitMs":[0-9]' || { echo "job events missing a claim with waitMs: $events"; exit 1; }

echo "== sharded job (shards=2, verify=true)"
created=$(curl -sf --data-binary "@$work/reads.fastq" "$base/v1/jobs?lmin=40&workers=1&name=sharded&shards=2&verify=true")
shard_id=$(printf '%s' "$created" | sed -n 's/.*"id": *"\(j[0-9a-f]*\)".*/\1/p' | head -n 1)
[ -n "$shard_id" ] || { echo "no job id in response: $created"; exit 1; }
wait_job "$shard_id"
printf '%s' "$body" | tr -d ' \n' | grep -q '"stagesDone":\[[^]]*"Shuffle"' || { echo "sharded job never reported Shuffle: $body"; exit 1; }
curl -sf "$base/v1/jobs/$shard_id/result" > "$work/sharded.fasta"
cmp -s "$golden" "$work/sharded.fasta" || { echo "sharded FASTA differs from direct assembly"; exit 1; }
echo "   byte-identical to direct assembly"

echo "== graceful shutdown (SIGTERM)"
kill -TERM "$server_pid"
for i in $(seq 1 100); do
    if ! kill -0 "$server_pid" 2>/dev/null; then break; fi
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then echo "server ignored SIGTERM"; exit 1; fi
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "serve smoke test passed"
