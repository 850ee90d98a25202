#!/usr/bin/env sh
# End-to-end smoke of the rmbd simulation daemon: start it on an
# ephemeral port, submit a traced job over HTTP, poll it to completion,
# and fetch the trace stream and the result JSON — the exact sequence a
# client runs. Freeze a running job, cancel it and resume it from the
# binary checkpoint body. Then drain the daemon with SIGTERM, check it
# checkpoints cleanly, and restart it on the drain directory.
#
# Exits non-zero (and prints the offending step) on any failure.
set -eu

workdir=$(mktemp -d)
trap 'kill $daemonpid 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

go build -o "$workdir/rmbd" ./cmd/rmbd

"$workdir/rmbd" -addr 127.0.0.1:0 -workers 2 -queue 8 \
    -checkpoint-dir "$workdir/ckpt" >"$workdir/stdout" 2>"$workdir/stderr" &
daemonpid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$workdir/stderr")
    [ -n "$addr" ] && break
    kill -0 "$daemonpid" 2>/dev/null || { echo "rmbd exited early:"; cat "$workdir/stderr"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "no listen address after 10s"; cat "$workdir/stderr"; exit 1; }
echo "rmbd at $addr"

spec='{"name":"smoke","config":{"Nodes":16,"Buses":3,"Seed":7},"workload":{"rate":0.02,"measure":5000,"seed":11},"trace":true}'
id=$(curl -fsS --max-time 10 -d "$spec" "http://$addr/api/v1/jobs" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "FAIL: submit returned no job id"; exit 1; }
echo "ok   submitted job $id"

state=""
for _ in $(seq 1 300); do
    state=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$id" \
        | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    case "$state" in failed|canceled) echo "FAIL: job ended $state"; exit 1 ;; esac
    sleep 0.1
done
[ "$state" = done ] || { echo "FAIL: job not done after 30s (state: $state)"; exit 1; }
echo "ok   job reached done"

trace=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$id/trace")
case "$trace" in
    *'"type":"submit"'*) echo "ok   trace stream carries submit events" ;;
    *) echo "FAIL: trace missing submit events"; printf '%s\n' "$trace" | head -5; exit 1 ;;
esac

result=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$id/result")
case "$result" in
    *'"Delivered"'*) echo "ok   result JSON carries stats" ;;
    *) echo "FAIL: result missing stats"; printf '%s\n' "$result" | head -5; exit 1 ;;
esac

health=$(curl -fsS --max-time 10 "http://$addr/healthz")
case "$health" in
    *'"done":1'*) echo "ok   healthz counts the finished job" ;;
    *) echo "FAIL: healthz missing done count"; printf '%s\n' "$health"; exit 1 ;;
esac

# Resubmitting the identical spec must be served from the run cache:
# the job comes back already done with "cached":true, and its result
# and trace are byte-identical to the first run's.
resub=$(curl -fsS --max-time 10 -d "$spec" "http://$addr/api/v1/jobs")
case "$resub" in
    *'"cached":true'*) ;;
    *) echo "FAIL: resubmit not served from cache"; printf '%s\n' "$resub"; exit 1 ;;
esac
case "$resub" in
    *'"state":"done"'*) echo "ok   resubmit served from cache, already done" ;;
    *) echo "FAIL: cached resubmit not done"; printf '%s\n' "$resub"; exit 1 ;;
esac
cid=$(printf '%s' "$resub" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
cresult=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$cid/result")
[ "$cresult" = "$result" ] || {
    echo "FAIL: cached result differs from original"
    printf 'orig:   %s\ncached: %s\n' "$result" "$cresult"; exit 1; }
ctrace=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$cid/trace")
[ "$ctrace" = "$trace" ] || { echo "FAIL: cached trace differs from original"; exit 1; }
echo "ok   cached result and trace byte-identical"

metrics=$(curl -fsS --max-time 10 "http://$addr/metrics")
case "$metrics" in
    *'rmbd_cache_hits_total 1'*) echo "ok   /metrics counts the cache hit" ;;
    *) echo "FAIL: /metrics missing cache hit"
       printf '%s\n' "$metrics" | grep rmbd_cache || true; exit 1 ;;
esac

# The latency histograms must expose proper bucket series: a bucket line
# with an le label, the +Inf terminal, and matching _sum/_count samples.
for series in rmbd_job_run_seconds rmbd_job_queue_seconds rmbd_http_request_seconds; do
    case "$metrics" in
        *"${series}_bucket{"*'le="+Inf"'*) ;;
        *) echo "FAIL: /metrics missing ${series}_bucket le=+Inf series"
           printf '%s\n' "$metrics" | grep "$series" | head -5 || true; exit 1 ;;
    esac
    case "$metrics" in
        *"${series}_sum"*) ;;
        *) echo "FAIL: /metrics missing ${series}_sum"; exit 1 ;;
    esac
done
echo "ok   /metrics exposes latency histogram series"

# The job status must carry the phase-timing decomposition.
timings=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$id")
case "$timings" in
    *'"timings"'*'"runSec"'*) echo "ok   job status carries phase timings" ;;
    *) echo "FAIL: job status missing timings block"; printf '%s\n' "$timings"; exit 1 ;;
esac

# The daemon logs structured lines: every HTTP request above emits one
# slog record with route/status attributes on stderr.
if grep -q 'msg="http request".*route=metrics.*status=200' "$workdir/stderr"; then
    echo "ok   structured request log present"
else
    echo "FAIL: no structured log line for the metrics scrape"
    tail -5 "$workdir/stderr"; exit 1
fi

# rmbdstat summarizes the daemon from its public surface alone.
go build -o "$workdir/rmbdstat" ./cmd/rmbdstat
stat=$("$workdir/rmbdstat" -addr "$addr")
case "$stat" in
    *'p50='*'p95='*'p99='*) echo "ok   rmbdstat reports latency percentiles" ;;
    *) echo "FAIL: rmbdstat output missing percentiles"; printf '%s\n' "$stat"; exit 1 ;;
esac
case "$stat" in
    *'hit-rate='*) echo "ok   rmbdstat reports cache hit rate" ;;
    *) echo "FAIL: rmbdstat output missing cache hit rate"; printf '%s\n' "$stat"; exit 1 ;;
esac

# Live checkpoint round trip: freeze a running job, cancel it, post the
# binary body back with --data-binary (curl -d would strip its newlines),
# and require the resumed run's result to equal a fresh run's.
cycle='{"name":"cycle","config":{"Nodes":64,"Buses":4,"Seed":3},"workload":{"pattern":"neighbour","rate":0.05,"payloadLen":16,"measure":200000,"seed":5}}'
cycid=$(curl -fsS --max-time 10 -d "$cycle" "http://$addr/api/v1/jobs" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$cycid" ] || { echo "FAIL: cycle submit returned no job id"; exit 1; }
for _ in $(seq 1 100); do
    tick=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$cycid" \
        | sed -n 's/.*"tick":\([0-9]*\).*/\1/p')
    [ -n "$tick" ] && [ "$tick" -gt 0 ] && break
    sleep 0.05
done
curl -fsS --max-time 10 -X POST -o "$workdir/cycle.ckpt" "http://$addr/api/v1/jobs/$cycid/checkpoint" \
    || { echo "FAIL: checkpoint of running job $cycid"; exit 1; }
curl -fsS --max-time 10 -X POST "http://$addr/api/v1/jobs/$cycid/cancel" >/dev/null
resid=$(curl -fsS --max-time 10 --data-binary "@$workdir/cycle.ckpt" "http://$addr/api/v1/resume" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$resid" ] || { echo "FAIL: resume returned no job id"; exit 1; }
state=""
for _ in $(seq 1 600); do
    state=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$resid" \
        | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    case "$state" in failed|canceled) echo "FAIL: resumed job ended $state"; exit 1 ;; esac
    sleep 0.1
done
[ "$state" = done ] || { echo "FAIL: resumed job not done after 60s (state: $state)"; exit 1; }
resumed=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$resid/result")
freshid=$(curl -fsS --max-time 10 -d "$cycle" "http://$addr/api/v1/jobs" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
for _ in $(seq 1 600); do
    state=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$freshid" \
        | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    sleep 0.1
done
fresh=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$freshid/result")
[ "$resumed" = "$fresh" ] || {
    echo "FAIL: resumed result differs from a fresh run"
    printf 'resumed: %s\nfresh:   %s\n' "$resumed" "$fresh"; exit 1; }
echo "ok   checkpoint -> cancel -> --data-binary resume -> done, result equals a fresh run"

# Graceful drain: a long-running job should land in the checkpoint dir.
long='{"name":"long","config":{"Nodes":16,"Buses":2},"workload":{"rate":0.002,"measure":2000000000}}'
longid=$(curl -fsS --max-time 10 -d "$long" "http://$addr/api/v1/jobs" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$longid" ] || { echo "FAIL: long submit returned no job id"; exit 1; }
for _ in $(seq 1 100); do
    tick=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$longid" \
        | sed -n 's/.*"tick":\([0-9]*\).*/\1/p')
    [ -n "$tick" ] && [ "$tick" -gt 0 ] && break
    sleep 0.1
done

kill -TERM "$daemonpid"
for _ in $(seq 1 100); do
    kill -0 "$daemonpid" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$daemonpid" 2>/dev/null && { echo "FAIL: rmbd did not exit after SIGTERM"; exit 1; }
[ -f "$workdir/ckpt/$longid.ckpt" ] || {
    echo "FAIL: drain left no checkpoint for $longid"; ls "$workdir/ckpt" || true; exit 1; }
echo "ok   SIGTERM drain checkpointed $longid"

# Restart on the drain directory: the drained job resumes, and a JSON
# checkpoint left by an older rmbd is set aside instead of blocking the
# start.
printf '{"version":1,"id":"old","core":{"magic":"rmb-checkpoint","version":1}}\n' >"$workdir/ckpt/old.ckpt"
"$workdir/rmbd" -addr 127.0.0.1:0 -workers 2 -queue 8 \
    -checkpoint-dir "$workdir/ckpt" >"$workdir/stdout2" 2>"$workdir/stderr2" &
daemonpid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$workdir/stderr2")
    [ -n "$addr" ] && break
    kill -0 "$daemonpid" 2>/dev/null || { echo "FAIL: restarted rmbd exited early:"; cat "$workdir/stderr2"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "FAIL: restarted rmbd has no listen address after 10s"; cat "$workdir/stderr2"; exit 1; }
grep -q 'resumed 1 checkpointed job' "$workdir/stderr2" || {
    echo "FAIL: restart did not resume the drained job"; cat "$workdir/stderr2"; exit 1; }
[ -f "$workdir/ckpt/old.ckpt.unsupported" ] || {
    echo "FAIL: old-format checkpoint not set aside"; ls "$workdir/ckpt"; exit 1; }
lstate=$(curl -fsS --max-time 10 "http://$addr/api/v1/jobs/$longid" \
    | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
case "$lstate" in
    running|queued) echo "ok   restart resumed $longid ($lstate) and set aside the old-format checkpoint" ;;
    *) echo "FAIL: resumed job $longid is $lstate"; exit 1 ;;
esac
kill -TERM "$daemonpid"
for _ in $(seq 1 100); do
    kill -0 "$daemonpid" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$daemonpid" 2>/dev/null && { echo "FAIL: restarted rmbd did not exit after SIGTERM"; exit 1; }

echo "rmbdsmoke: ok"
