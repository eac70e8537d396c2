#include "dist/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/crc32.hpp"
#include "common/error.hpp"

#if defined(__linux__)
#include <fcntl.h>  // AT_FDCWD
#endif

namespace qsv {
namespace {

constexpr char kMagic[8] = {'Q', 'S', 'V', 'S', 'N', 'A', 'P', '3'};

// v3 header layout after the magic: version, num_qubits, payload CRC-32,
// rank width W, then W slice CRC-32s. The CRC slots are patched once the
// payload has streamed out.
constexpr std::streamoff kCrcOffset = 8 + 2 * sizeof(std::uint32_t);
constexpr std::streamoff kSliceCrcOffset =
    kCrcOffset + 2 * sizeof(std::uint32_t);

struct Header {
  int num_qubits = 0;
  std::uint32_t crc = 0;
  /// Rank width the writer was split over: the number of slice CRCs.
  int ranks = 0;
};

/// Byte offset of the payload in a snapshot written at `ranks` ranks.
std::streamoff payload_offset(int ranks) {
  return kSliceCrcOffset +
         static_cast<std::streamoff>(ranks) *
             static_cast<std::streamoff>(sizeof(std::uint32_t));
}

void write_u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::ifstream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}

Header read_header(std::ifstream& in, const std::string& path) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  QSV_REQUIRE(in.good(), "not a qsv snapshot (short file): " + path);

  QSV_REQUIRE(std::memcmp(magic.data(), kMagic, 8) == 0,
              "not a qsv snapshot: " + path);
  const std::uint32_t version = read_u32(in);
  QSV_REQUIRE(in.good() && version == kSnapshotFormatVersion,
              "unsupported snapshot format version " +
                  std::to_string(version) + ": " + path);
  Header h;
  const std::uint32_t n = read_u32(in);
  h.crc = read_u32(in);
  const std::uint32_t ranks = read_u32(in);
  // A register of 2^n amplitudes splits over a power of two of at most 2^n
  // ranks.
  QSV_REQUIRE(in.good() && n >= 1 && n <= 62 && std::has_single_bit(ranks) &&
                  static_cast<std::uint32_t>(std::countr_zero(ranks)) <= n,
              "corrupt snapshot header: " + path);
  h.num_qubits = static_cast<int>(n);
  h.ranks = static_cast<int>(ranks);
  return h;
}

/// Amplitudes per block of the payload stream: each block is one write or
/// read and one Crc32::update (64 KiB).
constexpr amp_index kBlockAmps = amp_index{1} << 12;

// One storage's amplitudes [first, first + count) to and from the payload's
// interleaved (re, im) doubles.
void to_payload(const SoaStorage& s, amp_index first, amp_index count,
                real_t* out) {
  const real_t* re = s.re() + first;
  const real_t* im = s.im() + first;
  for (amp_index i = 0; i < count; ++i) {
    out[2 * i] = re[i];
    out[2 * i + 1] = im[i];
  }
}

void from_payload(SoaStorage& s, amp_index first, amp_index count,
                  const real_t* in) {
  real_t* re = s.re() + first;
  real_t* im = s.im() + first;
  for (amp_index i = 0; i < count; ++i) {
    re[i] = in[2 * i];
    im[i] = in[2 * i + 1];
  }
}

/// Streams the payload of a register held as equal consecutive slices
/// (global amplitude order) to `emit(slice, bytes, size)`, one block at a
/// time. Slice sizes are powers of two, so no block straddles two slices.
template <class S, class Emit>
void stream_out(const std::vector<const S*>& slices, Emit emit) {
  const amp_index per_slice = slices.front()->size();
  const amp_index block = std::min(per_slice, kBlockAmps);
  std::vector<real_t> buf(static_cast<std::size_t>(2 * block));
  for (std::size_t k = 0; k < slices.size(); ++k) {
    for (amp_index first = 0; first < per_slice; first += block) {
      to_payload(*slices[k], first, block, buf.data());
      emit(k, buf.data(), static_cast<std::size_t>(block * kBytesPerAmp));
    }
  }
}

/// The inverse of stream_out: `fill(bytes, size)` supplies each block of
/// the payload, which is then stored into the slices.
template <class S, class Fill>
void stream_in(const std::vector<S*>& slices, Fill fill) {
  const amp_index per_slice = slices.front()->size();
  const amp_index block = std::min(per_slice, kBlockAmps);
  std::vector<real_t> buf(static_cast<std::size_t>(2 * block));
  for (S* s : slices) {
    for (amp_index first = 0; first < per_slice; first += block) {
      fill(buf.data(), static_cast<std::size_t>(block * kBytesPerAmp));
      from_payload(*s, first, block, buf.data());
    }
  }
}

/// Rank slices of `sv` in rank order, const or mutable as `sv` is.
template <class SV>
auto slices_of(SV& sv) {
  std::vector<decltype(&sv.slice(0))> out;
  for (rank_t r = 0; r < sv.num_ranks(); ++r) {
    out.push_back(&sv.slice(r));
  }
  return out;
}

/// Reads the payload into `slices`, verifying the header's payload CRC.
template <class S>
void read_payload(std::ifstream& in, const std::string& path,
                  const Header& header, const std::vector<S*>& slices) {
  in.seekg(payload_offset(header.ranks));
  Crc32 crc;
  stream_in(slices, [&](real_t* block, std::size_t bytes) {
    in.read(reinterpret_cast<char*>(block),
            static_cast<std::streamsize>(bytes));
    QSV_REQUIRE(in.good(), "snapshot truncated: " + path);
    crc.update(block, bytes);
  });
  QSV_REQUIRE(crc.value() == header.crc,
              "snapshot payload CRC mismatch (corrupt): " + path);
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  QSV_REQUIRE(out.good(), "cannot open snapshot for writing: " + path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QSV_REQUIRE(in.good(), "cannot open snapshot: " + path);
  return in;
}

/// Moves the finished `tmp` to `path` in one step, so `path` names a whole
/// snapshot at every instant. Over an existing snapshot file the two names
/// are swapped and the old file is unlinked: ext4 writes a file renamed
/// onto an existing one back to disk before the rename returns
/// (auto_da_alloc), 2.3-3.1 ms per 4 MiB against 0.16 ms for the swap and
/// unlink, and a run replaces its one checkpoint file at every interval.
void commit(const std::string& tmp, const std::string& path) {
#if defined(__linux__) && defined(RENAME_EXCHANGE)
  std::error_code ec;
  if (std::filesystem::symlink_status(path, ec).type() ==
          std::filesystem::file_type::regular &&
      ::renameat2(AT_FDCWD, tmp.c_str(), AT_FDCWD, path.c_str(),
                  RENAME_EXCHANGE) == 0) {
    std::remove(tmp.c_str());  // the superseded snapshot
    return;
  }
#endif
  QSV_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot commit snapshot " + tmp + " -> " + path);
}

/// Writes the whole snapshot to `<path>.tmp`, one slice per rank of the
/// writer's width (patching the CRC slots once the payload is known), and
/// commits it with an atomic rename; on any failure the temp file is
/// removed and `path` is left as it was. Every byte is checksummed once:
/// the payload CRC joins the slice CRCs.
template <class S>
void write_snapshot(const std::string& path, int num_qubits,
                    const std::vector<const S*>& slices) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out = open_out(tmp);
    out.write(kMagic, sizeof kMagic);
    write_u32(out, kSnapshotFormatVersion);
    write_u32(out, static_cast<std::uint32_t>(num_qubits));
    write_u32(out, 0);  // payload CRC placeholder
    write_u32(out, static_cast<std::uint32_t>(slices.size()));  // rank width
    std::vector<Crc32> crcs(slices.size());
    const auto write_slice_crcs = [&] {
      for (const Crc32& crc : crcs) {
        write_u32(out, crc.value());
      }
    };
    write_slice_crcs();  // placeholders: the CRC-32 of no bytes is 0
    stream_out(slices,
               [&](std::size_t k, const real_t* block, std::size_t bytes) {
                 out.write(reinterpret_cast<const char*>(block),
                           static_cast<std::streamsize>(bytes));
                 crcs[k].update(block, bytes);
               });
    const std::size_t slice_bytes =
        static_cast<std::size_t>(slices.front()->size() * kBytesPerAmp);
    std::uint32_t payload = 0;
    for (const Crc32& crc : crcs) {
      payload = crc32_combine(payload, crc.value(), slice_bytes);
    }
    out.seekp(kCrcOffset);
    write_u32(out, payload);
    out.seekp(kSliceCrcOffset);
    write_slice_crcs();
    out.close();  // the last buffered bytes can fail too
    QSV_REQUIRE(!out.fail(), "short write while snapshotting: " + tmp);
    commit(tmp, path);
  } catch (...) {
    std::remove(tmp.c_str());  // a failed write leaves no partial file
    throw;
  }
}

/// Reads the header and requires it to match a register of `num_qubits`.
Header read_header_for(std::ifstream& in, const std::string& path,
                       int num_qubits) {
  const Header h = read_header(in, path);
  QSV_REQUIRE(h.num_qubits == num_qubits,
              "snapshot holds " + std::to_string(h.num_qubits) +
                  " qubits, register has " + std::to_string(num_qubits));
  return h;
}

}  // namespace

template <class S>
void save_state(const std::string& path, const BasicStateVector<S>& sv) {
  write_snapshot(path, sv.num_qubits(), std::vector<const S*>{&sv.storage()});
}

template <class S>
void save_state(const std::string& path, const DistStateVector<S>& sv) {
  write_snapshot(path, sv.num_qubits(), slices_of(sv));
}

template <class S>
std::uint32_t payload_crc(const DistStateVector<S>& sv) {
  Crc32 crc;
  stream_out(slices_of(sv),
             [&](std::size_t, const real_t* block, std::size_t bytes) {
               crc.update(block, bytes);
             });
  return crc.value();
}

template <class S>
void load_state(const std::string& path, BasicStateVector<S>& sv) {
  std::ifstream in = open_in(path);
  const Header h = read_header_for(in, path, sv.num_qubits());
  read_payload(in, path, h, std::vector<S*>{&sv.storage()});
}

template <class S>
void load_state(const std::string& path, DistStateVector<S>& sv) {
  std::ifstream in = open_in(path);
  const Header h = read_header_for(in, path, sv.num_qubits());
  read_payload(in, path, h, slices_of(sv));
}

int snapshot_qubits(const std::string& path) {
  std::ifstream in = open_in(path);
  return read_header(in, path).num_qubits;
}

int snapshot_ranks(const std::string& path) {
  std::ifstream in = open_in(path);
  return read_header(in, path).ranks;
}

template <class S>
void load_rank_slice(const std::string& path, DistStateVector<S>& sv,
                     rank_t r) {
  QSV_REQUIRE(r >= 0 && r < sv.num_ranks(), "rank out of range");
  std::ifstream in = open_in(path);
  const Header h = read_header_for(in, path, sv.num_qubits());
  // Rank slices are only meaningful at the geometry they were written at:
  // after a shrink or grow-back, rank r's span of an old-width snapshot is
  // a different piece of the state than the caller means.
  QSV_REQUIRE(h.ranks == sv.num_ranks(),
              "snapshot was written at " + std::to_string(h.ranks) +
                  " ranks but the register is split over " +
                  std::to_string(sv.num_ranks()) +
                  " (re-shard geometry mismatch): " + path);
  in.seekg(kSliceCrcOffset +
           static_cast<std::streamoff>(r) *
               static_cast<std::streamoff>(sizeof(std::uint32_t)));
  const std::uint32_t want = read_u32(in);
  const amp_index first = static_cast<amp_index>(r) * sv.local_amps();
  in.seekg(payload_offset(h.ranks) +
           static_cast<std::streamoff>(first * kBytesPerAmp));
  QSV_REQUIRE(in.good(), "snapshot truncated: " + path);
  Crc32 crc;
  stream_in(std::vector<S*>{&sv.slice(r)},
            [&](real_t* block, std::size_t bytes) {
              in.read(reinterpret_cast<char*>(block),
                      static_cast<std::streamsize>(bytes));
              QSV_REQUIRE(in.good(), "snapshot truncated: " + path);
              crc.update(block, bytes);
            });
  QSV_REQUIRE(crc.value() == want, "snapshot slice " + std::to_string(r) +
                                       " CRC mismatch (corrupt): " + path);
}

template void save_state<SoaStorage>(const std::string&,
                                     const BasicStateVector<SoaStorage>&);
template void save_state<SoaStorage>(const std::string&,
                                     const DistStateVector<SoaStorage>&);
template void load_state<SoaStorage>(const std::string&,
                                     BasicStateVector<SoaStorage>&);
template void load_state<SoaStorage>(const std::string&,
                                     DistStateVector<SoaStorage>&);
template std::uint32_t payload_crc<SoaStorage>(
    const DistStateVector<SoaStorage>&);
template void load_rank_slice<SoaStorage>(const std::string&,
                                          DistStateVector<SoaStorage>&,
                                          rank_t);

}  // namespace qsv
