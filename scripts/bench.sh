#!/usr/bin/env sh
# Regenerate BENCH_baseline.json: the machine-readable benchmark baseline
# the event-driven scheduler is judged against.
#
# The file's sections:
#
#   seed    - frozen numbers measured at commit 372faff (the last commit
#             before the scheduler rework), when the naive full-rescan
#             loop was the only code path. These are pinned in this
#             script, not re-measured, because that code no longer exists
#             on HEAD.
#   naive   - HEAD with -rmbsched=naive: every event-mode skip disabled.
#             Faster than seed because the allocation work (arenas, dense
#             records, plan-buffer reuse) is shared by both modes.
#   event   - HEAD with -rmbsched=event: the default scheduler.
#   soa     - the SoA tick-kernel gate: HugeRingSaturated at N=256/1024/
#             4096, measured at 100 iterations x3 so the CI benchcmp
#             compares real minima rather than the 1x smoke numbers above. The presoa note freezes the same
#             benchmarks measured at commit 693fc7b (the last pre-SoA
#             commit) with this identical harness. The go toolchain and
#             CPU ride along in the section (goversion/cpu fields).
#   service - rmbd serving throughput (internal/service): cold vs pooled
#             vs traced vs cached vs obs (full observability layer on —
#             Debug logging, phase timings, histograms) jobs, 100
#             iterations x3. CI gates jobs/sec (higher-better) and
#             allocs/op via the direction-aware rmbbench -benchcmp.
#
# Usage: scripts/bench.sh [output-file]  (default BENCH_baseline.json)
set -eu
cd "$(dirname "$0")/.."

out=${1:-BENCH_baseline.json}
benchflags="-run ^$ -bench . -benchtime=1x -count=3"

soaflags="-run ^$ -bench HugeRingSaturated -benchtime=100x -count=3"
serviceflags="-run ^$ -bench ServiceThroughput -benchtime=100x -count=3"

naive=$(go test $benchflags -rmbsched=naive . | go run ./cmd/rmbbench -benchjson)
event=$(go test $benchflags -rmbsched=event . | go run ./cmd/rmbbench -benchjson)
soa=$(go test $soaflags . | go run ./cmd/rmbbench -benchjson)
service=$(go test $serviceflags ./internal/service/ | go run ./cmd/rmbbench -benchjson)

cat >"$out" <<EOF
{
  "comment": "generated by scripts/bench.sh; seed section is frozen at commit 372faff (pre-scheduler-rework), naive/event are re-measured on HEAD",
  "seed": {
    "commit": "372faff",
    "note": "naive full-rescan Step was the only scheduler; measured with -benchtime=200ms on an Intel Xeon @ 2.10GHz",
    "runs": [
      { "name": "NetworkStepIdleCircuits", "metrics": { "ns/op": 1300 } },
      { "name": "LargeRingShift", "metrics": { "ns/op": 1330000, "ticks": 48 } }
    ]
  },
  "presoa": {
    "commit": "693fc7b",
    "note": "last pre-SoA commit, measured back-to-back with HEAD in one session using the identical hoisted-payload harness at -benchtime=100x -count=3 (min of 3); go1.24.0 on an Intel Xeon @ 2.10GHz, GOMAXPROCS=1 host",
    "runs": [
      { "name": "HugeRingSaturated/N=256", "metrics": { "ns/op": 499040, "ticks": 96 } },
      { "name": "HugeRingSaturated/N=1024", "metrics": { "ns/op": 2357406, "ticks": 96 } },
      { "name": "HugeRingSaturated/N=4096", "metrics": { "ns/op": 17956752, "ticks": 96 } },
      { "name": "LargeRingShift", "metrics": { "ns/op": 314973, "ticks": 48 } }
    ]
  },
  "naive": $naive,
  "event": $event,
  "soa": $soa,
  "service": $service
}
EOF
echo "wrote $out"
