// Binary statevector snapshots: checkpoint/restore for long simulations.
//
// Format v2: 8-byte magic "QSVSNAP2", u32 format version, u32 num_qubits,
// u32 CRC-32 of the amplitude payload, u32 writer rank-width (how many ranks
// the register was split over when the snapshot was taken), then 2^n
// amplitudes as interleaved little-endian doubles (re, im). Writes go to
// `<path>.tmp` and are committed with an atomic rename, so a crash
// mid-checkpoint never leaves a plausible-but-torn file at the final path.
//
// The payload is always in global amplitude order, so a *full* restore
// (load_state) is width-agnostic; the rank-width tag exists for the
// rank-slice path, where the elastic re-shards (shrink / grow-back) change
// what "rank r's span" means and a geometry-mismatched adoption must be
// refused rather than silently misread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/dist_statevector.hpp"
#include "sv/statevector.hpp"

namespace qsv {

/// On-disk format version written by save_state.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

template <class S>
void save_state(const std::string& path, const BasicStateVector<S>& sv);

template <class S>
void save_state(const std::string& path, const DistStateVector<S>& sv);

/// Restores into an existing register; the snapshot's qubit count must
/// match. Throws qsv::Error on bad magic, truncation, size mismatch or
/// payload CRC mismatch. On error the register contents are
/// unspecified — amplitudes stream directly into it.
template <class S>
void load_state(const std::string& path, BasicStateVector<S>& sv);

template <class S>
void load_state(const std::string& path, DistStateVector<S>& sv);

/// CRC-32 of the payload save_state writes for `sv` (the value in its
/// header): the (re, im) doubles in global amplitude order, so it is the
/// same at every rank count. `state_digest` prints it.
template <class S>
[[nodiscard]] std::uint32_t payload_crc(const DistStateVector<S>& sv);

/// Reads just the header; returns the qubit count.
[[nodiscard]] int snapshot_qubits(const std::string& path);

/// Reads just the header; returns the rank width the writer was split over
/// (1 for single-address-space snapshots).
[[nodiscard]] int snapshot_ranks(const std::string& path);

/// Restores only rank `r`'s slice from a snapshot: the spare-node
/// substitution path, where the replacement reads its 1/R of the state and
/// the survivors keep theirs. Amplitudes are stored in global order, so a
/// rank slice is one contiguous byte range seeked to directly. Throws when
/// the snapshot's rank-width tag does not match the register's current
/// width: after a re-shard, "rank r's slice" of an old-width snapshot is a
/// different span of the state than the caller means, so the adoption is
/// refused. The whole-file payload CRC is *not* verified (that would mean
/// reading everything — the full-restore path does); per-slice integrity
/// is the guard layer's slice signature, checked by the caller after the
/// restore.
template <class S>
void load_rank_slice(const std::string& path, DistStateVector<S>& sv,
                     rank_t r);

/// Keep-last-N snapshot retention for a checkpoint directory.
///
/// Construction scans the directory: stale `*.tmp` files left by a writer
/// killed mid-checkpoint are deleted, and already-committed `ckpt-*.qsv`
/// files are adopted (oldest pruned down to the retention limit), so a
/// restarted job resumes the same rotation. `path_for`/`committed` bracket
/// each write: save to path_for(gates), then report committed(gates) to
/// prune superseded files beyond the newest `keep_last`.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir, int keep_last = 2);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] int keep_last() const { return keep_last_; }

  /// Path for the checkpoint taken after `gates` applied gates.
  [[nodiscard]] std::string path_for(std::uint64_t gates) const;

  /// Records a committed write at path_for(gates) and prunes beyond the
  /// retention limit.
  void committed(std::uint64_t gates);

  /// Newest committed checkpoint path (empty string when none).
  [[nodiscard]] std::string latest() const;

  /// Gate indices of retained checkpoints, oldest first.
  [[nodiscard]] const std::vector<std::uint64_t>& retained() const {
    return retained_;
  }

  /// Deletes every retained checkpoint (end-of-run cleanup).
  void clear();

  /// Superseded snapshots deleted so far (retention housekeeping).
  [[nodiscard]] std::uint64_t pruned() const { return pruned_; }
  /// Stale `*.tmp` files removed by the startup scan.
  [[nodiscard]] std::uint64_t stale_tmps_removed() const {
    return stale_tmps_removed_;
  }

 private:
  std::string dir_;
  int keep_last_;
  std::vector<std::uint64_t> retained_;  // ascending gate indices
  std::uint64_t pruned_ = 0;
  std::uint64_t stale_tmps_removed_ = 0;
};

}  // namespace qsv
