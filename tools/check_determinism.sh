#!/usr/bin/env bash
# Determinism checker: the same faulted run, executed twice, must produce an
# identical state digest and an identical fault/recovery summary — for every
# recovery tier. The virtual cluster is single-process and the fault plan is
# a deterministic latch list, so any divergence here is a real bug
# (uninitialised state, iteration-order dependence, a stray RNG), not noise.
# Every case on the 6-qubit probe also runs on rank threads, which must
# record what the serial engine records, and every message fault a case
# names must fire.
#
#   tools/check_determinism.sh [path-to-qsv-binary]
#
# Defaults to ./build/tools/qsv (the `default` CMake preset's output).
set -u

qsv=${1:-build/tools/qsv}
[ -x "$qsv" ] || { echo "error: '$qsv' not found or not executable" >&2
                   echo "build first: cmake --preset default && cmake --build --preset default" >&2
                   exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# The elastic reference workload: distributed gates up front, a rank-local
# tail, so a late failure is recoverable by every tier from the gate-10
# checkpoint.
cat >"$tmp/c.qc" <<'EOF'
qubits 6
name determinism_probe
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

# Everything that must be reproducible: the digest, the traffic totals, the
# fault totals and the recovery summary. Timestamps or paths never appear in
# these lines.
summarise() {
  grep -E "state crc32|messages|faults:|health:|recovery:|shrink-to-survive|grow-back:|degraded:" "$1"
}

# A message fault a case names must fire whenever the run exchanges: the
# `faults:` line counts it under its kind.
fired() {
  local name=$1 out=$2 spec='' kind
  shift 2
  while [ $# -gt 0 ]; do
    [ "$1" = --faults ] && spec=${2:-}
    shift
  done
  grep -q '; 0 messages' "$out" && return
  for kind in drop:dropped corrupt:corrupted delay:straggled; do
    case $spec in
      *"${kind%%:*}@"*)
        grep -qE "^faults: .* [1-9][0-9]* ${kind#*:}" "$out" || {
          echo "FAIL $name: '$spec' fired no ${kind%%:*}:" >&2
          grep '^faults:' "$out" >&2
          status=1; }
        ;;
    esac
  done
}

# Exit 0 (success) and exit 3 (degraded completion: valid digest at reduced
# width) are both in-contract here; anything else fails the run.
check() {
  local name=$1 rc
  shift
  rc=0; "$@" >"$tmp/run1" 2>&1 || rc=$?
  [ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] || {
    echo "FAIL $name: first run exited $rc" >&2
    cat "$tmp/run1" >&2; status=1; return; }
  rc=0; "$@" >"$tmp/run2" 2>&1 || rc=$?
  [ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] || {
    echo "FAIL $name: second run exited $rc" >&2
    cat "$tmp/run2" >&2; status=1; return; }
  summarise "$tmp/run1" >"$tmp/sum1"
  summarise "$tmp/run2" >"$tmp/sum2"
  if ! diff -u "$tmp/sum1" "$tmp/sum2" >"$tmp/diff"; then
    echo "FAIL $name: two identical invocations diverged:" >&2
    cat "$tmp/diff" >&2
    status=1
  else
    echo "ok   $name: $(grep -o 'state crc32: [0-9a-f]*' "$tmp/sum1")"
  fi
  fired "$name" "$tmp/run1" "$@"
}

# One case on both engines, each checked twice: rank threads change the
# wall time and nothing else, so the threaded run's digest, traffic, fault,
# health and recovery lines must equal the serial run's.
threaded=(--threads auto --placement compact)
engines() {
  local name=$1 lines='state crc32|messages|faults:|health:|recovery:'
  shift
  check "$name" "$@"
  grep -E "$lines" "$tmp/run1" >"$tmp/serial"
  check "thr: $name" "$@" "${threaded[@]}"
  grep -E "$lines" "$tmp/run1" >"$tmp/thr"
  if ! diff -u "$tmp/serial" "$tmp/thr" >"$tmp/diff"; then
    echo "FAIL $name: the engines recorded different runs:" >&2
    cat "$tmp/diff" >&2
    status=1
  fi
}

common=(--faults fail@12:1 --checkpoint-interval 5)

# Message specs count the sender's own messages: every rank sends one in
# each of gates 0 and 6, so rank 1's second is gate 6's, and rank 3's third
# is the shrink's one move (the dropped move is retried and the run still
# finishes at half width).
engines "clean            " "$qsv" run "$tmp/c.qc"
engines "retry (drop)     " "$qsv" run "$tmp/c.qc" --faults drop@2:1
engines "tier: substitute " "$qsv" run "$tmp/c.qc" "${common[@]}" \
        --checkpoint-dir "$tmp/ck_sub" --spares 1
engines "tier: shrink     " "$qsv" run "$tmp/c.qc" "${common[@]}" \
        --checkpoint-dir "$tmp/ck_shrink"
engines "tier: shrink, re-shard drop" "$qsv" run "$tmp/c.qc" \
        --faults fail@12:1,drop@3:3 --checkpoint-interval 5 \
        --checkpoint-dir "$tmp/ck_rdrop"
engines "tier: grow-back  " "$qsv" run "$tmp/c.qc" \
        --faults fail@12:1,revive@16 --checkpoint-interval 5 \
        --checkpoint-dir "$tmp/ck_grow"
engines "tier: restart    " "$qsv" run "$tmp/c.qc" "${common[@]}" \
        --checkpoint-dir "$tmp/ck_restart" --recovery restart

# Overlapped exchange pipeline: a 64 B message cap splits each 256 B slice
# exchange into 4 tagged chunks, so the combine really chases the arrival
# frontier. The pipeline must be just as reproducible through every
# recovery tier, and a chunk-granular retry must replay identical charges.
overlapped=(--policy overlapped --max-message 64)
engines "ovl: clean       " "$qsv" run "$tmp/c.qc" "${overlapped[@]}"
engines "ovl: retry (drop)" "$qsv" run "$tmp/c.qc" "${overlapped[@]}" \
        --faults drop@3
engines "ovl: substitute  " "$qsv" run "$tmp/c.qc" "${overlapped[@]}" \
        "${common[@]}" --checkpoint-dir "$tmp/ck_osub" --spares 1
engines "ovl: shrink      " "$qsv" run "$tmp/c.qc" "${overlapped[@]}" \
        "${common[@]}" --checkpoint-dir "$tmp/ck_oshrink"
engines "ovl: grow-back   " "$qsv" run "$tmp/c.qc" "${overlapped[@]}" \
        --faults fail@12:1,revive@16 --checkpoint-interval 5 \
        --checkpoint-dir "$tmp/ck_ogrow"
engines "ovl: restart     " "$qsv" run "$tmp/c.qc" "${overlapped[@]}" \
        "${common[@]}" --checkpoint-dir "$tmp/ck_orestart" --recovery restart

# Messages at or above the loop team's cutoff (kParallelMinAmps, 2^16
# amplitudes): a generated 19-qubit probe on 4 serial ranks exchanges 2 MiB
# slices, so the pack, both CRC-32s and the unpack of each whole-slice
# message are split across the orchestrator's team. A 1,048,592 B cap cuts
# each slice into chunks of 65,537 and 65,535 amplitudes, one on each side
# of the cutoff. Every case runs at loop widths 1 and 3, twice each, and
# must land on the clean digest at the default width.
{
  echo "qubits 19"
  echo "name team_probe"
  for q in $(seq 0 18); do echo "h $q"; done
  for q in $(seq 0 2 17); do echo "cx $q $((q + 1))"; done
  for q in $(seq 0 18); do echo "rz $q 0.$((q + 11))"; done
  for q in $(seq 1 2 17); do echo "cx $q $((q + 1))"; done
  echo "rx 18 0.7"
  echo "cx 18 0"
} >"$tmp/wide.qc"
wide_crc=$("$qsv" run "$tmp/wide.qc" --ranks 4 2>&1 \
           | grep -o 'state crc32: [0-9a-f]*')
for policy in blocking overlapped; do
  cap=()
  [ "$policy" = overlapped ] && cap=(--max-message 1048592)
  for faults in clean drop@3 corrupt@4; do
    fault_args=()
    [ "$faults" = clean ] || fault_args=(--faults "$faults")
    for width in 1 3; do
      check "team $policy $faults w$width" env OMP_NUM_THREADS=$width \
            "$qsv" run "$tmp/wide.qc" --ranks 4 --policy "$policy" \
            "${cap[@]}" "${fault_args[@]}"
      crc=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/run1")
      if [ "$crc" != "$wide_crc" ]; then
        echo "FAIL team $policy $faults w$width: '$crc' != default width" \
             "'$wide_crc'" >&2
        status=1
      fi
    done
  done
done

# Every placement on the same probe: rank threads (--threads auto) at 1,
# 2, 4 and 8 ranks own as many CPUs as their loop width under compact and
# scatter, and poll between regions under none while the team fits the
# CPUs (8 ranks on fewer CPUs block at once). Clean and with rank 0's third
# send dropped, every case must land on the serial engine's digest.
for ranks in 1 2 4 8; do
  for placement in compact scatter none; do
    for faults in clean drop@3; do
      fault_args=()
      [ "$faults" = clean ] || fault_args=(--faults "$faults")
      check "placement r$ranks $placement $faults" "$qsv" run \
            "$tmp/wide.qc" --ranks "$ranks" --threads auto \
            --placement "$placement" "${fault_args[@]}"
      crc=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/run1")
      if [ "$crc" != "$wide_crc" ]; then
        echo "FAIL placement r$ranks $placement $faults: '$crc' !=" \
             "serial '$wide_crc'" >&2
        status=1
      fi
    done
  done
done

# Overlapped digest identity: the chunk pipeline applies regions strictly in
# order with the serial kernels, so blocking and overlapped runs must land
# on the same bits (engines() already holds each to its threaded twin).
serial_crc=$("$qsv" run "$tmp/c.qc" 2>&1 | grep -o 'state crc32: [0-9a-f]*')
ovl_crc=$("$qsv" run "$tmp/c.qc" "${overlapped[@]}" 2>&1 \
          | grep -o 'state crc32: [0-9a-f]*')
if [ "$ovl_crc" != "$serial_crc" ]; then
  echo "FAIL overlapped identity: serial '$serial_crc'," \
       "overlapped '$ovl_crc'" >&2
  status=1
else
  echo "ok   overlapped identity: $serial_crc"
fi

# Cross-tier bit-identity: every recovered run must land on the clean run's
# digest (the digest is global-order, so it is comparable across the shrink
# run's narrower final layout).
"$qsv" run "$tmp/c.qc" >"$tmp/clean_out" 2>&1
clean_crc=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/clean_out")
for tier in sub shrink reshard_drop growback restart; do
  case $tier in
    sub)          args=(--spares 1) ;;
    shrink)       args=() ;;
    reshard_drop) args=(--faults fail@12:1,drop@3:3) ;;
    growback)     args=(--faults fail@12:1,revive@16) ;;
    restart)      args=(--recovery restart) ;;
  esac
  "$qsv" run "$tmp/c.qc" "${common[@]}" --checkpoint-dir "$tmp/ck2_$tier" \
      "${args[@]}" >"$tmp/out" 2>&1
  crc=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/out")
  if [ "$crc" != "$clean_crc" ]; then
    echo "FAIL bit-identity ($tier): '$crc' != clean '$clean_crc'" >&2
    status=1
  fi
  # The same tier recovered under the overlapped pipeline must land on the
  # same clean digest: retries, re-shards and replays all preserve the
  # chunk application order.
  "$qsv" run "$tmp/c.qc" "${overlapped[@]}" "${common[@]}" \
      --checkpoint-dir "$tmp/ck3_$tier" "${args[@]}" >"$tmp/out" 2>&1
  crc=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/out")
  if [ "$crc" != "$clean_crc" ]; then
    echo "FAIL bit-identity (overlapped $tier): '$crc' != clean" \
         "'$clean_crc'" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "ok   bit-identity: all tiers match the clean digest (plain and overlapped)"

exit $status
