#!/usr/bin/env bash
# CLI contract test: the documented exit codes and the determinism digest.
#
#   0  success
#   2  bad arguments (usage errors, unknown flags, malformed values)
#   3  degraded completion (valid digest, but below the planned rank width)
#   4  node failure no recovery tier could absorb
#   5  integrity abort (corruption with nothing to roll back to)
#   6  deadline exceeded (--deadline-s; cancelled at a gate boundary with a
#      partial cost report)
#
# Driven by ctest: cli_exit_codes.sh <path-to-qsv-binary>.
set -u

qsv=${1:?usage: cli_exit_codes.sh <qsv-binary>}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

expect_exit() {
  local want=$1
  shift
  local got=0
  "$@" >"$tmp/out" 2>"$tmp/err" || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "--- stdout ---" >&2; cat "$tmp/out" >&2
    echo "--- stderr ---" >&2; cat "$tmp/err" >&2
    fail "expected exit $want, got $got: $*"
  fi
}

# 6 qubits on the default 4 ranks: gates 0..9 touch the distributed qubits
# 4/5, gates 10..19 are rank-local, so a failure late in the run is elastic-
# recoverable from a checkpoint written at gate 10.
cat >"$tmp/c.qc" <<'EOF'
qubits 6
name cli_contract
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

# --- exit 2: usage errors ---------------------------------------------------
expect_exit 2 "$qsv"                                   # no command
expect_exit 2 "$qsv" run                               # missing circuit file
expect_exit 2 "$qsv" run "$tmp/c.qc" --no-such-flag    # unknown option
expect_exit 2 "$qsv" run "$tmp/c.qc" --ranks banana    # non-integer value
expect_exit 2 "$qsv" run "$tmp/c.qc" --recovery warp   # unknown tier name
expect_exit 2 "$qsv" run "$tmp/c.qc" --spares -1
expect_exit 2 "$qsv" run "$tmp/c.qc" --deadline-s -1   # negative deadline
expect_exit 2 "$qsv" serve --workers 0                 # serve usage errors
expect_exit 2 "$qsv" serve --queue -3

# Out-of-range decompositions: ranks and nodes are powers of two leaving
# each rank at least 2 amplitudes, a tile holds at least 2 amplitudes,
# numeric --threads is 0 or the rank count, --local lies in [1, n].
expect_exit 2 "$qsv" run "$tmp/c.qc" --ranks 3
expect_exit 2 "$qsv" run "$tmp/c.qc" --ranks 0
expect_exit 2 "$qsv" run "$tmp/c.qc" --tile 0
expect_exit 2 "$qsv" run "$tmp/c.qc" --threads 3       # 4 ranks
expect_exit 2 "$qsv" info "$tmp/c.qc" --local 0
expect_exit 2 "$qsv" info "$tmp/c.qc" --local 9        # 6 qubits
expect_exit 2 "$qsv" info "$tmp/c.qc" --local -1
expect_exit 2 "$qsv" transpile "$tmp/c.qc" --local 0
expect_exit 2 "$qsv" price "$tmp/c.qc" --nodes 3
expect_exit 2 "$qsv" price --qft 10 --nodes 1024       # 1 amplitude a node

# Integers are range-checked, never wrapped modulo 2^32: 4294967298 is not
# 2 ranks, and 4294967306 is not a 10-qubit QFT.
expect_exit 2 "$qsv" run "$tmp/c.qc" --ranks 4294967298
expect_exit 2 "$qsv" price --qft 4294967306
expect_exit 2 "$qsv" run "$tmp/c.qc" --checkpoint-interval 4294967297 \
  --checkpoint-dir "$tmp/ck_wrap"
# A run keeps one checkpoint file, so there is no retention count to set.
expect_exit 2 "$qsv" run "$tmp/c.qc" --keep-last 2
grep -q "unknown option --keep-last" "$tmp/err" ||
  fail "--keep-last not reported as an unknown option"
# At a wrapped queue of 1 this would start serving; the timeout bounds that.
expect_exit 2 timeout 10 "$qsv" serve --queue 4294967297 \
  --socket "$tmp/wrap.sock"

# Register sizes lie in [1, 62]; other counts have their own floors.
expect_exit 2 "$qsv" sbatch --qubits 100
expect_exit 2 "$qsv" price --qft 0
expect_exit 2 "$qsv" price --qft 70
expect_exit 2 "$qsv" price --fast-qft 70
# A register the machine cannot hold is a bad argument that names the
# largest one it can (44 qubits on standard nodes, 41 on high-memory ones).
expect_exit 2 "$qsv" price --qft 62
grep -q "largest register is 44 qubits" "$tmp/err" ||
  fail "price --qft 62 does not name the largest register"
expect_exit 2 "$qsv" price --fast-qft 62
grep -q "largest register is 44 qubits" "$tmp/err" ||
  fail "price --fast-qft 62 does not name the largest register"
expect_exit 2 "$qsv" sbatch --qubits 44 --highmem
grep -q "largest register is 41 qubits" "$tmp/err" ||
  fail "sbatch --qubits 44 --highmem does not name the largest register"
expect_exit 2 "$qsv" transpile "$tmp/c.qc" --local 4 --pass greedy \
  --min-reuse 0
expect_exit 2 "$qsv" run "$tmp/c.qc" --shots -3

# --policy is the only spelling of the exchange flavour, and --faults the
# only spelling of a fault spec.
expect_exit 2 "$qsv" price --qft 10 --nonblocking
expect_exit 2 "$qsv" run "$tmp/c.qc" --bitflip 3
grep -q "unknown option --bitflip" "$tmp/err" ||
  fail "--bitflip not reported as an unknown option"

# A guard check is the norm check alone: neither run nor price takes a
# slice-signature flag.
expect_exit 2 "$qsv" run "$tmp/c.qc" --guards 2 --guard-crc
grep -q "unknown option --guard-crc" "$tmp/err" ||
  fail "run --guard-crc not reported as an unknown option"
expect_exit 2 "$qsv" price --qft 30 --guards 2 --guard-crc
grep -q "unknown option --guard-crc" "$tmp/err" ||
  fail "price --guard-crc not reported as an unknown option"

# Fault specs may only name ranks the run has.
expect_exit 2 "$qsv" run "$tmp/c.qc" --ranks 4 --faults fail@6:7 \
  --checkpoint-interval 3 --checkpoint-dir "$tmp/ck_norank"
expect_exit 2 "$qsv" run "$tmp/c.qc" --ranks 1 --faults fail@6:1
expect_exit 2 "$qsv" run "$tmp/c.qc" --faults bitflip@3:5   # 4 ranks

# The functional engines hold registers up to 24 qubits; a larger one is a
# bad argument that names the cap.
printf 'qubits 25\nh 0\n' >"$tmp/huge.qc"
expect_exit 2 "$qsv" run "$tmp/huge.qc"
grep -q "largest register is 24 qubits" "$tmp/err" ||
  fail "a 25-qubit run does not name the 24-qubit cap"
expect_exit 2 timeout 10 "$qsv" serve --max-qubits 25 --socket "$tmp/cap.sock"
grep -q "must be in \[1, 24\]" "$tmp/err" ||
  fail "serve --max-qubits 25 does not name the 24-qubit cap"

# --- exit 1: library errors -------------------------------------------------
# A QSV_SIMD value the host cannot run, also on a register large enough
# that sweep tiles run inside a parallel region.
printf 'qubits 17\nh 0\nh 1\nh 2\n' >"$tmp/wide.qc"
expect_exit 1 env QSV_SIMD=bogus "$qsv" run "$tmp/wide.qc" --ranks 1
grep -q "unknown backend 'bogus'" "$tmp/err" ||
  fail "QSV_SIMD=bogus not reported by name"
expect_exit 1 env QSV_SIMD=bogus "$qsv" run "$tmp/wide.qc" --ranks 2 \
  --threads auto

# Refused input names its own line, not a source file of qsv: a gate
# operand outside the register, and a machine-config key the model lacks
# (it prices no slice-signature CRC, so it has no rate for one).
expect_no_source_file() {
  grep -q '\.cpp' "$tmp/err" && fail "$1 names a source file: $(cat "$tmp/err")"
  return 0
}
printf 'qubits 2\ncx 0 5\n' >"$tmp/bad_operand.qc"
expect_exit 1 "$qsv" run "$tmp/bad_operand.qc"
grep -q "circuit parse error at line 2: qubit 5" "$tmp/err" ||
  fail "an out-of-range operand does not name its line"
expect_no_source_file "an out-of-range operand"
printf 'integrity.crc_bw_gb_s = 150\n' >"$tmp/crc.machine"
expect_exit 1 "$qsv" price --qft 30 --machine "$tmp/crc.machine"
grep -q "machine config line 1: unknown key 'integrity.crc_bw_gb_s'" \
  "$tmp/err" || fail "integrity.crc_bw_gb_s not refused as an unknown key"
expect_no_source_file "an unknown machine-config key"

# --- exit 6: deadline exceeded ----------------------------------------------
# A deadline that has already passed cancels at the first gate boundary;
# the partial cost (gates applied, modeled joules) is still reported.
expect_exit 6 "$qsv" run "$tmp/c.qc" --deadline-s 0.000001
grep -q "^deadline: " "$tmp/out" || fail "deadline line missing"
grep -q "^partial cost: " "$tmp/out" || fail "partial cost report missing"

# The verified driver honours the same deadline at its gate loop.
expect_exit 6 "$qsv" run "$tmp/c.qc" --deadline-s 0.000001 --guards 1

# --- exit 4: unrecovered node failure ---------------------------------------
# No checkpointing: NodeFailure propagates unchanged (PR 2 semantics).
expect_exit 4 "$qsv" run "$tmp/c.qc" --faults fail@3:1
grep -q "node failure" "$tmp/err" || fail "exit-4 message missing"

# Checkpointing on but every driver tier disabled: still unrecoverable.
expect_exit 4 "$qsv" run "$tmp/c.qc" --faults fail@12:1 \
  --checkpoint-interval 5 --checkpoint-dir "$tmp/ck_disabled" \
  --recovery retry

# --- exit 5: integrity abort ------------------------------------------------
# A silent exponent-bit flip with guards on but no checkpoint to roll back
# to: detection has nowhere to go but a typed abort.
expect_exit 5 "$qsv" run "$tmp/c.qc" --faults bitflip@2:0:62 --guards 1
grep -q "integrity abort" "$tmp/err" || fail "exit-5 message missing"

# --- exit 0 + digest: clean and recovered runs agree ------------------------
expect_exit 0 "$qsv" run "$tmp/c.qc"
crc_clean=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/out") ||
  fail "clean run printed no state digest"
cp "$tmp/out" "$tmp/clean.out"

# 2 GiB is the default message cap, so spelling it out changes nothing.
expect_exit 0 "$qsv" run "$tmp/c.qc" --max-message 2147483648
cmp -s "$tmp/out" "$tmp/clean.out" ||
  fail "--max-message 2147483648 output differs from the default run"

# A deadline past the clock's range (2^63 ns, about 9.2e9 s) never fires.
expect_exit 0 "$qsv" run "$tmp/c.qc" --deadline-s 1e10
cmp -s "$tmp/out" "$tmp/clean.out" ||
  fail "--deadline-s 1e10 output differs from the unbounded run"

# Substitute tier: a spare absorbs the failure; the run must land on the
# bit-identical state (same digest).
expect_exit 0 "$qsv" run "$tmp/c.qc" --faults fail@12:1 \
  --checkpoint-interval 5 --checkpoint-dir "$tmp/ck_sub" --spares 1
grep -q "substitutions" "$tmp/out" || fail "recovery summary missing"
crc_sub=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/out")
[ "$crc_sub" = "$crc_clean" ] ||
  fail "substitute run digest '$crc_sub' != clean '$crc_clean'"

# Shrink tier: no spare, the run finishes at half width — the digest is
# layout-independent, so it still matches, but finishing below the planned
# width is the documented degraded-completion exit 3 with a summary line.
expect_exit 3 "$qsv" run "$tmp/c.qc" --faults fail@12:1 \
  --checkpoint-interval 5 --checkpoint-dir "$tmp/ck_shrink"
grep -q "shrink-to-survive" "$tmp/out" || fail "shrink summary missing"
grep -q "^degraded: " "$tmp/out" || fail "degraded-completion line missing"
crc_shrink=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/out")
[ "$crc_shrink" = "$crc_clean" ] ||
  fail "shrink run digest '$crc_shrink' != clean '$crc_clean'"

# Grow-back tier: the same failure, but a replacement arrives at gate 16 —
# the run re-expands to full width, so it is NOT degraded (exit 0) and the
# digest still matches.
expect_exit 0 "$qsv" run "$tmp/c.qc" --faults fail@12:1,revive@16 \
  --checkpoint-interval 5 --checkpoint-dir "$tmp/ck_grow"
grep -q "grow-back: restored to 4 ranks" "$tmp/out" ||
  fail "grow-back summary missing"
grep -q "^degraded: " "$tmp/out" && fail "grow-back run must not be degraded"
crc_grow=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/out")
[ "$crc_grow" = "$crc_clean" ] ||
  fail "grow-back run digest '$crc_grow' != clean '$crc_clean'"

# Restart tier: substitution and shrink disabled.
expect_exit 0 "$qsv" run "$tmp/c.qc" --faults fail@12:1 \
  --checkpoint-interval 5 --checkpoint-dir "$tmp/ck_restart" \
  --recovery restart
crc_restart=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/out")
[ "$crc_restart" = "$crc_clean" ] ||
  fail "restart run digest '$crc_restart' != clean '$crc_clean'"

# Checkpoint write failure mid-run must not kill the run: pointing the
# checkpoint dir at a regular file makes every write fail, but the run
# completes with a priced warning and the same digest as the clean run.
: >"$tmp/not_a_dir"
expect_exit 0 "$qsv" run "$tmp/c.qc" --checkpoint-interval 5 \
  --checkpoint-dir "$tmp/not_a_dir"
grep -q "^checkpoint warning: " "$tmp/out" ||
  fail "checkpoint-write-failure warning missing"
crc_nockpt=$(grep -o 'state crc32: [0-9a-f]*' "$tmp/out")
[ "$crc_nockpt" = "$crc_clean" ] ||
  fail "uncheckpointed run digest '$crc_nockpt' != clean '$crc_clean'"

# Checkpoint hygiene: a run keeps one checkpoint file and removes it, and
# any temp file, whether it completes or aborts. A checkpoint directory
# left holding anything fails the contract.
expect_empty_dir() {
  [ -z "$(ls -A "$1")" ] || fail "$2 left $(ls -A "$1" | tr '\n' ' ')in $1"
}
expect_exit 0 "$qsv" run "$tmp/c.qc" --checkpoint-interval 5 \
  --checkpoint-dir "$tmp/ck_done"
expect_empty_dir "$tmp/ck_done" "a completed run"
for dir in ck_sub ck_shrink ck_grow ck_restart; do
  expect_empty_dir "$tmp/$dir" "a recovered run"
done
expect_empty_dir "$tmp/ck_disabled" "a run aborted by a node failure"

echo "ok: all CLI exit-code and digest contracts hold"
