#!/usr/bin/env bash
# Chaos soak: a deterministic fault matrix driven through the CLI — 16
# serial seeds, plus threaded and overlapped-pipeline subsets (26 runs).
# Every seed's schedule is pure arithmetic on the seed index (node loss in
# the recoverable tail; a message drop, straggle or corruption rotating by
# seed; an exponent-bit flip on every fifth seed; a replacement arrival on
# even seeds; a spare on every fourth), so the soak is replayable: the same
# seed always runs the same schedule.
#
# Four contracts are enforced, and any violation exits nonzero:
#   1. Digest identity — every recovered run, whatever tier it took, must
#      land on the clean run's exact state crc32.
#   2. Elastic width — seeds that schedule a revive (and have no spare)
#      must grow back to the planned width and exit 0; only degraded
#      completions may exit 3.
#   3. Tier-energy ordering — the machine-derived per-failure energies
#      printed by --machine must rank strictly
#      substitute < shrink < grow-back < restart.
#   4. One engine model — a threaded seed's traffic, fault, health and
#      recovery lines must equal the same seed's serial run's.
#
# A per-seed digest table is written to $CHAOS_OUT (default
# chaos_soak_digests.txt) so CI can upload it as an artifact and diff soaks
# across commits.
#
#   tools/chaos_soak.sh [path-to-qsv-binary]
#
# Defaults to ./build/tools/qsv. Set CHAOS_SKIP_BENCH=1 to skip the
# in-process ablation_elastic cross-check at the end.
set -u

qsv=${1:-build/tools/qsv}
[ -x "$qsv" ] || { echo "error: '$qsv' not found or not executable" >&2
                   echo "build first: cmake --preset default && cmake --build --preset default" >&2
                   exit 2; }
out=${CHAOS_OUT:-chaos_soak_digests.txt}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# The elastic reference workload (same as check_determinism.sh): distributed
# gates in [0, 10), a rank-local tail in [10, 20), so every scheduled
# failure is recoverable from the gate-10 checkpoint by every tier.
cat >"$tmp/c.qc" <<'EOF'
qubits 6
name chaos_soak
h 4
h 0
cx 0 1
rz 1 0.37
h 2
cx 2 3
h 5
rx 3 0.81
cz 0 2
ry 1 1.13
rz 0 0.29
cx 1 2
rz 1 0.4
cx 2 3
rz 2 0.51
cx 3 0
rz 3 0.62
cx 0 1
rz 0 0.73
cx 1 2
EOF

# Seed -> fault schedule. A message spec names the Mth message one rank
# sends (rank 1's 2nd; rank 0's when no rank is named, as in delay@M:S), on
# either engine, so a schedule fires the same faults serially and on rank
# threads.
schedule() {
  local seed=$1 fail_gate fail_rank plan
  fail_gate=$((11 + seed % 7))
  fail_rank=$((1 + seed % 3))
  plan="fail@${fail_gate}:${fail_rank}"
  case $((seed % 3)) in
    0) plan="$plan,drop@2:1" ;;
    1) plan="$plan,delay@2:0.05" ;;
    *) plan="$plan,corrupt@2:1" ;;
  esac
  # Exponent-bit flip (bit 62): the class the norm guard detects. Low
  # mantissa bits drift below the tolerance — the guard layer's documented
  # escape — so the soak exercises the detectable class.
  [ $((seed % 5)) -eq 0 ] && plan="$plan,bitflip@7:0:62"
  [ $((seed % 2)) -eq 0 ] && plan="$plan,revive@$((fail_gate + 2))"
  echo "$plan"
}

clean_run=$tmp/clean_out
"$qsv" run "$tmp/c.qc" >"$clean_run" 2>&1 || {
  echo "FAIL clean reference run:" >&2; cat "$clean_run" >&2; exit 1; }
clean_crc=$(grep -o 'state crc32: [0-9a-f]*' "$clean_run" | awk '{print $3}')
[ -n "$clean_crc" ] || { echo "FAIL: no digest in clean run" >&2; exit 1; }

printf '%-4s | %-4s | %-50s | %-8s | %-8s | %s\n' \
  seed eng schedule digest exit verdict >"$out"

# One soak run: rc must be 0 (full-width finish) or 3 (degraded completion);
# the digest must equal the clean run's; revive seeds without a spare must
# report the grow-back and finish at full width.
soak() {
  local seed=$1 engine=$2; shift 2
  local plan spares rc crc verdict
  plan=$(schedule "$seed")
  spares=$(( seed % 4 == 0 ? 1 : 0 ))
  rc=0
  "$qsv" run "$tmp/c.qc" --faults "$plan" --spares "$spares" \
    --guards 2 --checkpoint-interval 5 \
    --checkpoint-dir "$tmp/ck_${engine}_${seed}" --machine archer2 \
    "$@" >"$tmp/run" 2>&1 || rc=$?
  crc=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/run" | awk '{print $3}')
  verdict=ok
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
    verdict="BAD-EXIT($rc)"
  elif [ "$crc" != "$clean_crc" ]; then
    verdict="DIVERGED"
  elif [ $((seed % 2)) -eq 0 ] && [ "$spares" -eq 0 ]; then
    if ! grep -q '^grow-back: restored' "$tmp/run" || [ "$rc" -ne 0 ]; then
      verdict="NO-GROW-BACK"
    fi
  fi
  if [ "$verdict" != ok ]; then
    echo "FAIL seed $seed ($engine, $plan): $verdict" >&2
    cat "$tmp/run" >&2
    status=1
  fi
  printf '%-4s | %-4s | %-50s | %-8s | %-8s | %s\n' \
    "$seed" "$engine" "$plan" "${crc:-none}" "$rc" "$verdict" >>"$out"

  grep -E 'messages|faults:|health:|recovery:' "$tmp/run" \
    >"$tmp/sum_${engine}_${seed}"
  if [ "$engine" = thr ] &&
     ! diff -u "$tmp/sum_ser_${seed}" "$tmp/sum_thr_${seed}" >"$tmp/diff"; then
    echo "FAIL seed $seed: the threaded run recorded what the serial run" \
         "did not:" >&2
    cat "$tmp/diff" >&2
    status=1
  fi

  # The machine-priced tier energies ride along on every run; assert the
  # strict substitute < shrink < grow-back < restart ordering once per run.
  if ! grep '^tier energies:' "$tmp/run" | \
       sed 's/[a-z-]*=//g' | \
       awk '{ if (!($3+0 < $4+0 && $4+0 < $5+0 && $5+0 < $6+0)) exit 1 }'
  then
    echo "FAIL seed $seed ($engine): tier energies not strictly ordered:" >&2
    grep '^tier energies:' "$tmp/run" >&2
    status=1
  fi
}

for seed in $(seq 1 16); do
  soak "$seed" ser
done
# Threaded subset: the even seeds at seed % 4 == 2 carry a revive, so this
# covers mid-run grow-back under the ranks-as-threads engine too, and each
# must record what its serial run recorded.
for seed in 2 6 10 14; do
  soak "$seed" thr --threads auto --placement compact
done
# Overlapped subset: the chunk pipeline (64 B cap = 4 tagged chunks per
# slice exchange) through drop/delay/corrupt plus node loss, serial and
# threaded — chunk-granular retries and recovery replay must land on the
# same clean digest as every other engine.
for seed in 1 5 9 13; do
  soak "$seed" ovl --policy overlapped --max-message 64
done
for seed in 2 10; do
  soak "$seed" ovlt --policy overlapped --max-message 64 \
    --threads auto --placement compact
done

echo
cat "$out"

if [ "${CHAOS_SKIP_BENCH:-0}" != 1 ]; then
  bench=$(dirname "$qsv")/../bench/ablation_elastic
  if [ -x "$bench" ]; then
    echo
    "$bench" || { echo "FAIL: ablation_elastic cross-check" >&2; status=1; }
  else
    echo "note: $bench not built; skipping in-process cross-check"
  fi
fi

if [ "$status" -eq 0 ]; then
  echo "chaos soak passed: 26 runs, digest $clean_crc every time ($out)"
else
  echo "chaos soak FAILED (see $out)" >&2
fi
exit $status
