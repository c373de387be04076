#!/usr/bin/env sh
# Hard performance gate for CI (and local use).
#
# Runs the measured `micro` family and the deterministic `bft_batching`,
# `bft_churn` and `campaign` families through findep-bench and compares
# against ci/micro_baseline.csv:
#
#   kind=time   rows (micro ns_per_op): FAIL when the measured mean
#               exceeds baseline x tolerance (default 1.5x — shared
#               runners are noisy, so time baselines carry headroom).
#   kind=count  rows (the micro hash_work ops' SHA-256 blocks per
#               committed request, bft_batching messages-per-request
#               counters, the protocol-comparison lane's message counts and
#               commit-latency percentiles for pbft and hotstuff both,
#               bft_churn committed_requests / stranded_replicas, and the
#               campaign outcome classification): FAIL on anything but
#               exact equality of the printed value — these are
#               seed-derived protocol counts, so any drift is a real
#               behaviour change, not noise. The bft_churn
#               stranded_replicas rows are the state-transfer invariant:
#               0 with transfer enabled, the crashed count with it
#               disabled (regression-pinned both ways). The campaign rows
#               pin fault_detected / recovered / safety_violated per
#               gated cell — including the paper's safety threshold (the
#               above-third diverse collusion cell violates, the
#               below-third lazarus one never does).
#
# A baselined row that disappears from the current run also fails (a
# renamed scenario must be rebaselined deliberately, not silently).
#
# usage: ci/perf_gate.sh [--update-baseline] [--tolerance X]
#                        [--baseline FILE] [--only SUBSTR] [--list-rows]
#                        path/to/findep-bench
#
# --only SUBSTR gates only baselined rows whose scenario name contains
# SUBSTR (e.g. --only sim_ for the event-engine rows, --only bft_churn
# for one family) and skips benchmarking families with no matching rows
# — the local iterate-on-one-row loop drops from minutes to seconds.
# A SUBSTR that matches no baselined row is a hard failure (a typo'd
# substring must not report a vacuous pass); use --list-rows to see what
# can be matched. Incompatible with --update-baseline (a partial rewrite
# would silently drop every other row).
#
# --list-rows prints every baselined scenario/metric/kind (filtered by
# --only when given) and exits without benchmarking anything.
#
# --update-baseline rewrites the baseline from the current run. Count
# rows are safe to take verbatim (deterministic); REVIEW the time rows
# before committing — a fast workstation's timings become the budget CI
# runners must meet within the tolerance. See README "Rebaselining".
set -eu

script_dir=$(dirname "$0")
baseline="$script_dir/micro_baseline.csv"
tolerance=1.5
update=0
list_rows=0
only=""
bench=""
while [ $# -gt 0 ]; do
  case "$1" in
    --update-baseline) update=1 ;;
    --tolerance) shift; tolerance="$1" ;;
    --baseline) shift; baseline="$1" ;;
    --only) shift; only="$1" ;;
    --list-rows) list_rows=1 ;;
    -*) echo "unknown flag '$1'" >&2; exit 2 ;;
    *) bench="$1" ;;
  esac
  shift
done
if [ "$update" = 1 ] && [ -n "$only" ]; then
  echo "--only cannot be combined with --update-baseline" >&2
  exit 2
fi
if [ "$list_rows" = 1 ]; then
  awk -F, -v only="$only" \
    'NR == 1 {print $1 "," $2 "," $3; next}
     only == "" || index($1, only) {print $1 "," $2 "," $3}' "$baseline"
  exit 0
fi
if [ -z "$bench" ]; then
  echo "usage: $0 [--update-baseline] [--tolerance X] [--baseline FILE]" \
       "path/to/findep-bench" >&2
  exit 2
fi
if [ -n "$only" ]; then
  # A --only that selects nothing must fail loudly, not pass vacuously
  # (the classic typo'd-substring green build).
  if ! awk -F, -v only="$only" \
      'NR > 1 && index($1, only) {found = 1} END {exit found ? 0 : 1}' \
      "$baseline"; then
    echo "FAIL --only '$only' matches no baselined row" \
         "(run with --list-rows to see what can be matched)" >&2
    exit 1
  fi
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# With --only, a family is benchmarked only when the baseline holds a
# matching row for it. The row prefix is the emitting family's scenario
# namespace (the bft_batching family emits rows under bft_scaling/);
# the optional second argument further requires a substring anywhere in
# the row, separating blocks that share a namespace (the batching rows
# vs the modeled-crypto lane, both under bft_scaling/).
need() {
  [ -z "$only" ] && return 0
  awk -F, -v only="$only" -v prefix="$1" -v req="${2:-}" \
    'NR > 1 && index($1, only) && index($1, prefix) == 1 &&
     (req == "" || index($0, req)) {found = 1}
     END {exit found ? 0 : 1}' "$baseline"
}

# scenario,metric,mean for every gated row of the current run.
: > "$tmp/current_time.csv"
: > "$tmp/current_count.csv"
if need "micro/"; then
  "$bench" --family micro --seeds 3 --csv --out "$tmp/micro.csv" > /dev/null
  awk -F, 'FNR > 1 && $4 == "ns_per_op" {print $2 "," $4 "," $5}' \
    "$tmp/micro.csv" > "$tmp/current_time.csv"
  # The hash_work ops also count SHA-256 blocks per committed request:
  # deterministic work, pinned exactly, so a re-hashing regression fails
  # here even when the timers cannot see it.
  awk -F, 'FNR > 1 && $4 == "sha256_blocks_per_commit" \
           {print $2 "," $4 "," $5}' "$tmp/micro.csv" \
    >> "$tmp/current_count.csv"
fi
if need "bft_scaling/" ",msgs"; then
  "$bench" --family bft_batching --seeds 2 --csv --out "$tmp/batching.csv" \
    > /dev/null
  awk -F, 'FNR > 1 && ($4 == "msgs_per_request" ||
                       $4 == "msgs_per_committed_request") \
           {print $2 "," $4 "," $5}' "$tmp/batching.csv" \
    >> "$tmp/current_count.csv"
fi
if need "bft_scaling/" " modeled"; then
  # The multicore lane: modeled crypto cost over the {1,2,4,8}-worker
  # grid. committed_requests pins that every cell still commits the full
  # load; requests_per_second pins the exact simulated-clock throughput
  # of every (n, workers) point — the scaling curve itself is the
  # regression surface (a scheduling or cost-charging change shows up as
  # a drifted count, not a noisy timing).
  "$bench" --family bft_scaling --only modeled --seeds 1 \
    --csv --out "$tmp/modeled.csv" > /dev/null
  awk -F, 'FNR > 1 && ($4 == "committed_requests" ||
                       $4 == "requests_per_second") \
           {print $2 "," $4 "," $5}' "$tmp/modeled.csv" \
    >> "$tmp/current_count.csv"
fi
if need "bft_scaling/" " proto="; then
  # The protocol-comparison lane: pbft vs hotstuff over n = {4,10,25,50}.
  # Message counts and the simulated-clock commit-latency percentiles are
  # seed-deterministic, so every cell of both protocols is exact-pinned —
  # the linear-vs-quadratic crossover is itself the regression surface (a
  # vote-path or pacemaker change shows up as a drifted count here before
  # it shows up anywhere else).
  "$bench" --family bft_scaling --only " proto=" --seeds 1 \
    --csv --out "$tmp/protocol.csv" > /dev/null
  awk -F, 'FNR > 1 && ($4 == "msgs_per_request" ||
                       $4 == "msgs_per_committed_request" ||
                       $4 == "commit_latency_p50_ms" ||
                       $4 == "commit_latency_p99_ms") \
           {print $2 "," $4 "," $5}' "$tmp/protocol.csv" \
    >> "$tmp/current_count.csv"
fi
if need "bft_churn/"; then
  "$bench" --family bft_churn --seeds 1 --csv --out "$tmp/churn.csv" \
    > /dev/null
  awk -F, 'FNR > 1 && ($4 == "committed_requests" ||
                       $4 == "stranded_replicas") \
           {print $2 "," $4 "," $5}' "$tmp/churn.csv" \
    >> "$tmp/current_count.csv"
fi
if need "campaign/"; then
  # A 3-target x 3-fault slice of the campaign grid at one seed; the
  # outcome classification of each cell is deterministic. Protocol-lane
  # cells are carved out here — the dedicated block below pins them with
  # a wider metric set.
  "$bench" --family campaign --set target=uniform,diverse,lazarus \
    --set fault=crash,partition,collude --set rate=1 --seeds 1 \
    --exclude " proto=" --csv --out "$tmp/campaign.csv" > /dev/null
  awk -F, 'FNR > 1 && ($4 == "fault_detected" || $4 == "recovered" ||
                       $4 == "safety_violated") \
           {print $2 "," $4 "," $5}' "$tmp/campaign.csv" \
    >> "$tmp/current_count.csv"
fi
if need "campaign/" " proto="; then
  # The campaign's hotstuff lane (uniform/diverse x all four fault
  # kinds): the outcome classification plus the committed-request count
  # of every cell is deterministic at one seed, and the diversity story —
  # uniform fleets stall, diverse fleets recover — must hold for the
  # rotating-leader protocol exactly as it does for pbft.
  "$bench" --family campaign --only " proto=" --seeds 1 \
    --csv --out "$tmp/campaign_proto.csv" > /dev/null
  awk -F, 'FNR > 1 && ($4 == "fault_detected" || $4 == "recovered" ||
                       $4 == "safety_violated" ||
                       $4 == "committed_requests") \
           {print $2 "," $4 "," $5}' "$tmp/campaign_proto.csv" \
    >> "$tmp/current_count.csv"
fi

if [ "$update" = 1 ]; then
  {
    echo "scenario,metric,kind,baseline"
    awk -F, '{print $1 "," $2 ",time," $3}' "$tmp/current_time.csv"
    awk -F, '{print $1 "," $2 ",count," $3}' "$tmp/current_count.csv"
  } > "$baseline"
  rows=$(($(wc -l < "$baseline") - 1))
  echo "rebaselined $rows rows into $baseline"
  echo "NOTE: review the kind=time rows for headroom before committing."
  exit 0
fi

awk -F, -v tol="$tolerance" -v only="$only" '
  NR == FNR {
    if (FNR > 1 && (only == "" || index($1, only))) {
      kind[$1 SUBSEP $2] = $3; base[$1 SUBSEP $2] = $4
    }
    next
  }
  {
    key = $1 SUBSEP $2
    if (!(key in base)) next  # not yet baselined: run --update-baseline
    seen[key] = 1
    if (kind[key] == "time") {
      if ($3 + 0 > base[key] * tol) {
        printf "FAIL %s %s: %.0f ns/op is %+.1f%% vs baseline %.0f" \
               " (tolerance %sx allows %+.0f%%)\n",
               $1, $2, $3, ($3 / base[key] - 1) * 100, base[key], tol,
               (tol - 1) * 100
        failed = 1
      }
    } else if ($3 != base[key]) {
      if (base[key] + 0 != 0) {
        printf "FAIL %s %s: %s != baseline %s (%+.2f%%," \
               " deterministic counter drifted)\n",
               $1, $2, $3, base[key], ($3 / base[key] - 1) * 100
      } else {
        printf "FAIL %s %s: %s != baseline %s" \
               " (deterministic counter drifted)\n",
               $1, $2, $3, base[key]
      }
      failed = 1
    }
  }
  END {
    for (key in base) {
      if (!(key in seen)) {
        split(key, parts, SUBSEP)
        printf "FAIL %s %s: baselined row missing from the current run\n",
               parts[1], parts[2]
        failed = 1
      }
    }
    exit failed ? 1 : 0
  }
' "$baseline" "$tmp/current_time.csv" "$tmp/current_count.csv"
if [ -n "$only" ]; then
  echo "perf gate OK for rows matching '$only'" \
       "($baseline, tolerance ${tolerance}x on time rows)"
else
  echo "perf gate OK ($baseline, tolerance ${tolerance}x on time rows)"
fi
