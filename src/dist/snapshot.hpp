// Binary statevector snapshots: checkpoint/restore for long simulations.
//
// Format v3: 8-byte magic "QSVSNAP3", u32 format version, u32 num_qubits,
// u32 CRC-32 of the amplitude payload, u32 writer rank-width W (how many
// ranks the register was split over when the snapshot was taken), W u32
// CRC-32s, one per rank slice, then 2^n amplitudes as interleaved
// little-endian doubles (re, im). The writer checksums each slice once in
// its streaming pass and joins the slice CRCs with crc32_combine for the
// payload CRC. Writes go to `<path>.tmp` and are committed with an atomic
// rename, so a crash mid-checkpoint never leaves a plausible-but-torn file
// at the final path.
//
// The payload is always in global amplitude order, so a *full* restore
// (load_state) is width-agnostic and verified against the payload CRC; the
// rank-width tag and the slice CRCs exist for the rank-slice path, where
// the elastic re-shards (shrink / grow-back) change what "rank r's span"
// means, a geometry-mismatched adoption must be refused rather than
// silently misread, and the slice read is verified on its own.
#pragma once

#include <cstdint>
#include <string>

#include "dist/dist_statevector.hpp"
#include "sv/statevector.hpp"

namespace qsv {

/// On-disk format version written by save_state.
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/// Writes a snapshot of `sv` to `path`. Throws qsv::Error when the write
/// or the commit fails; `path` then still holds what it held before, and no
/// `<path>.tmp` is left behind.
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
/// substitution and shrink path, where the rebuilt rank reads its 1/R of
/// the state and the survivors keep theirs. Amplitudes are stored in global
/// order, so a rank slice is one contiguous byte range seeked to directly.
/// Throws when the snapshot's rank-width tag does not match the register's
/// current width: after a re-shard, "rank r's slice" of an old-width
/// snapshot is a different span of the state than the caller means, so the
/// adoption is refused. The slice is verified against its own CRC in the
/// header and throws qsv::Error on a mismatch; the slice contents are then
/// unspecified.
template <class S>
void load_rank_slice(const std::string& path, DistStateVector<S>& sv,
                     rank_t r);

}  // namespace qsv
