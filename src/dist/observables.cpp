#include "dist/observables.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace qsv {
namespace {

/// Masks derived from a term: X/Y flips and the phase rules.
struct TermMasks {
  amp_index x_flip = 0;  // X and Y factors flip these bits
  amp_index z_mask = 0;  // Z factors: (-1)^bit
  amp_index y_mask = 0;  // Y factors: +/- i depending on the source bit
  int y_count = 0;
};

TermMasks masks_of(const PauliTerm& term) {
  TermMasks m;
  for (const auto& [q, p] : term.factors) {
    QSV_REQUIRE(q >= 0 && q < 62, "pauli qubit out of range");
    switch (p) {
      case Pauli::kI:
        break;
      case Pauli::kX:
        m.x_flip = bits::set_bit(m.x_flip, q);
        break;
      case Pauli::kY:
        m.x_flip = bits::set_bit(m.x_flip, q);
        m.y_mask = bits::set_bit(m.y_mask, q);
        ++m.y_count;
        break;
      case Pauli::kZ:
        m.z_mask = bits::set_bit(m.z_mask, q);
        break;
    }
  }
  return m;
}

/// Phase factor applied to source basis state j: product of the Z signs and
/// Y's +/-i factors.
cplx phase_of(const TermMasks& m, amp_index j) {
  // Z: (-1)^popcount(j & z_mask). Y on source bit b: i * (-1)^b.
  int minus = std::popcount(j & m.z_mask);
  minus += std::popcount(j & m.y_mask);  // each set Y source bit flips sign
  cplx f = (minus & 1) ? cplx{-1, 0} : cplx{1, 0};
  switch (m.y_count % 4) {  // i^y_count
    case 1: f *= cplx{0, 1}; break;
    case 2: f *= cplx{-1, 0}; break;
    case 3: f *= cplx{0, -1}; break;
    default: break;
  }
  return f;
}

}  // namespace

PauliTerm PauliTerm::parse(const std::string& text) {
  PauliTerm term;
  std::string body = text;

  // Optional "<coeff> *" prefix.
  const auto star = text.find('*');
  if (star != std::string::npos) {
    std::istringstream is(text.substr(0, star));
    is >> term.coefficient;
    QSV_REQUIRE(!is.fail(), "bad coefficient in pauli term: " + text);
    body = text.substr(star + 1);
  }

  // Trim whitespace.
  auto trim = [](std::string s) {
    const auto b = s.find_first_not_of(" \t");
    const auto e = s.find_last_not_of(" \t");
    return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
  };
  body = trim(body);
  QSV_REQUIRE(!body.empty(), "empty pauli term: " + text);

  const bool labelled =
      body.find_first_of("0123456789") != std::string::npos;
  std::vector<bool> seen(64, false);
  auto add = [&](qubit_t q, char c) {
    QSV_REQUIRE(q >= 0 && q < 62, "pauli qubit out of range: " + text);
    QSV_REQUIRE(!seen[q], "duplicate qubit in pauli term: " + text);
    seen[q] = true;
    Pauli p;
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'I': p = Pauli::kI; break;
      case 'X': p = Pauli::kX; break;
      case 'Y': p = Pauli::kY; break;
      case 'Z': p = Pauli::kZ; break;
      default:
        QSV_REQUIRE(false, std::string("bad pauli letter '") + c + "' in: " +
                               text);
        return;
    }
    if (p != Pauli::kI) {
      term.factors.emplace_back(q, p);
    }
  };

  if (labelled) {
    // "X0 Z2" form.
    std::istringstream is(body);
    std::string tok;
    while (is >> tok) {
      QSV_REQUIRE(tok.size() >= 2, "bad pauli factor: " + tok);
      add(static_cast<qubit_t>(std::stoi(tok.substr(1))), tok[0]);
    }
  } else {
    // "XIZ" form: letter k acts on qubit k.
    qubit_t q = 0;
    for (char c : body) {
      if (c == ' ') {
        continue;
      }
      add(q++, c);
    }
  }
  return term;
}

std::string PauliTerm::str() const {
  std::ostringstream os;
  os << coefficient << " *";
  if (factors.empty()) {
    os << " I";
  }
  for (const auto& [q, p] : factors) {
    os << ' ' << static_cast<char>(p) << q;
  }
  return os.str();
}

qubit_t PauliTerm::max_qubit() const {
  qubit_t m = -1;
  for (const auto& [q, p] : factors) {
    m = std::max(m, q);
  }
  return m;
}

qubit_t PauliSum::max_qubit() const {
  qubit_t m = -1;
  for (const PauliTerm& t : terms) {
    m = std::max(m, t.max_qubit());
  }
  return m;
}

template <class S>
cplx pauli_bracket(const BasicStateVector<S>& sv, const PauliTerm& term) {
  QSV_REQUIRE(term.max_qubit() < sv.num_qubits(),
              "pauli term exceeds the register");
  const TermMasks m = masks_of(term);
  cplx acc = 0;
  const amp_index n = sv.num_amps();
  for (amp_index i = 0; i < n; ++i) {
    const amp_index j = i ^ m.x_flip;
    acc += std::conj(sv.amplitude(i)) * phase_of(m, j) * sv.amplitude(j);
  }
  return acc * term.coefficient;
}

template <class S>
real_t expectation(const BasicStateVector<S>& sv, const PauliTerm& term) {
  return pauli_bracket(sv, term).real();
}

template <class S>
real_t expectation(const BasicStateVector<S>& sv, const PauliSum& sum) {
  real_t acc = 0;
  for (const PauliTerm& t : sum.terms) {
    acc += expectation(sv, t);
  }
  return acc;
}

namespace {

/// Two accumulator chains, and their bit patterns, as one GCC/Clang vector:
/// an SSE2 register on baseline x86-64, a pair of scalars on a target
/// without vectors.
using ChainPair = real_t __attribute__((vector_size(2 * sizeof(real_t))));
using ChainPairBits =
    std::uint64_t __attribute__((vector_size(2 * sizeof(std::uint64_t))));

/// Amplitudes per sign block: (-1)^popcount(g & mask) splits into a sign
/// fixed over an aligned block and a within-block sign read from a table.
constexpr amp_index kSignBlock = 64;

/// (-1)^popcount(x) per lane, as the sign bit of a double.
ChainPairBits sign_bits(ChainPairBits x) {
  for (int shift = 32; shift > 0; shift /= 2) {
    x ^= x >> shift;
  }
  return x << 63;
}

/// z_sums with the chains in groups of kWidth pairs, the last group padded
/// with empty masks. A group's chains stay in registers over a block.
template <std::size_t kWidth, class S>
std::vector<real_t> z_sums_by(const DistStateVector<S>& sv,
                              std::span<const amp_index> masks) {
  if (masks.empty()) {
    return {};
  }
  const std::size_t groups = (masks.size() + 2 * kWidth - 1) / (2 * kWidth);
  std::vector<ChainPairBits> mask_pairs(groups * kWidth, ChainPairBits{});
  for (std::size_t k = 0; k < masks.size(); ++k) {
    mask_pairs[k / 2][k % 2] = masks[k];
  }
  const amp_index local = sv.local_amps();
  const amp_index block = std::min(local, kSignBlock);
  // inner[(g * block + i) * kWidth + v]: pair v of group g at offset i.
  std::vector<ChainPairBits> inner(groups * block * kWidth);
  for (std::size_t g = 0; g < groups; ++g) {
    for (amp_index i = 0; i < block; ++i) {
      for (std::size_t v = 0; v < kWidth; ++v) {
        inner[(g * block + i) * kWidth + v] =
            sign_bits(mask_pairs[g * kWidth + v] & i);
      }
    }
  }
  std::vector<ChainPair> acc(groups * kWidth, ChainPair{});
  for (rank_t r = 0; r < sv.num_ranks(); ++r) {
    const amp_index base = static_cast<amp_index>(r) * local;
    for (amp_index first = 0; first < local; first += block) {
      // The block is read from memory once; later groups find it in cache.
      const real_t* const re = sv.slice(r).re() + first;
      const real_t* const im = sv.slice(r).im() + first;
      for (std::size_t g = 0; g < groups; ++g) {
        ChainPairBits outer[kWidth];
        ChainPair a[kWidth];
        for (std::size_t v = 0; v < kWidth; ++v) {
          outer[v] = sign_bits(mask_pairs[g * kWidth + v] & (base | first));
          a[v] = acc[g * kWidth + v];
        }
        const ChainPairBits* sign = &inner[g * block * kWidth];
        for (amp_index i = 0; i < block; i += 2, sign += 2 * kWidth) {
          // |a|^2 of amplitudes i and i + 1, each then added to every chain.
          ChainPair r2, i2;
          std::memcpy(&r2, re + i, sizeof r2);
          std::memcpy(&i2, im + i, sizeof i2);
          const auto p2 = std::bit_cast<ChainPairBits>(r2 * r2 + i2 * i2);
          const ChainPairBits p0 = {p2[0], p2[0]};
          const ChainPairBits p1 = {p2[1], p2[1]};
          for (std::size_t v = 0; v < kWidth; ++v) {
            a[v] += std::bit_cast<ChainPair>(sign[v] ^ outer[v] ^ p0);
          }
          for (std::size_t v = 0; v < kWidth; ++v) {
            a[v] += std::bit_cast<ChainPair>(sign[kWidth + v] ^ outer[v] ^ p1);
          }
        }
        std::copy(a, a + kWidth, &acc[g * kWidth]);
      }
    }
  }
  std::vector<real_t> sums(masks.size());
  for (std::size_t k = 0; k < sums.size(); ++k) {
    sums[k] = acc[k / 2][k % 2];
  }
  return sums;
}

/// Sums (-1)^popcount(g & masks[k]) * |a_g|^2 over every amplitude g in
/// global index order, read straight from each slice, one accumulator chain
/// per mask. Every chain starts at 0 and adds +p or -p once per amplitude
/// in that order whatever other masks share the pass, so entry k is the
/// same double as a pass for masks[k] alone; a sign flips p's sign bit,
/// which is what -p does. One or two masks take one chain pair, as narrow
/// as a single chain; more take groups of four pairs, enough independent
/// additions to hide each one's latency.
template <class S>
std::vector<real_t> z_sums(const DistStateVector<S>& sv,
                           std::span<const amp_index> masks) {
  return masks.size() <= 2 ? z_sums_by<1>(sv, masks)
                           : z_sums_by<4>(sv, masks);
}

}  // namespace

template <class S>
std::vector<real_t> expectations(const DistStateVector<S>& sv,
                                 std::span<const PauliTerm> terms) {
  std::vector<real_t> out(terms.size());
  std::vector<amp_index> z_masks;
  std::vector<std::size_t> diagonal;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    QSV_REQUIRE(terms[t].max_qubit() < sv.num_qubits(),
                "pauli term exceeds the register");
    const TermMasks m = masks_of(terms[t]);
    if (m.x_flip == 0) {
      // Diagonal: the real part of conj(a) * (+/-1) * a is exactly
      // +/-(re^2 + im^2), so the shared pass gives the same double as the
      // general loop below.
      z_masks.push_back(m.z_mask);
      diagonal.push_back(t);
      continue;
    }
    // Per-rank partial sums over local indices; the X/Y flip may cross into
    // a peer slice (conceptually the exchanged buffer; here a direct read).
    cplx acc = 0;
    const amp_index total = amp_index{1} << sv.num_qubits();
    for (amp_index i = 0; i < total; ++i) {
      const amp_index j = i ^ m.x_flip;
      acc += std::conj(sv.amplitude(i)) * phase_of(m, j) * sv.amplitude(j);
    }
    out[t] = (acc * terms[t].coefficient).real();
  }
  const std::vector<real_t> sums = z_sums(sv, z_masks);
  for (std::size_t k = 0; k < diagonal.size(); ++k) {
    out[diagonal[k]] = sums[k] * terms[diagonal[k]].coefficient;
  }
  return out;
}

template <class S>
real_t expectation(const DistStateVector<S>& sv, const PauliTerm& term) {
  return expectations(sv, std::span(&term, 1))[0];
}

template <class S>
real_t expectation(const DistStateVector<S>& sv, const PauliSum& sum) {
  real_t acc = 0;
  for (const PauliTerm& t : sum.terms) {
    acc += expectation(sv, t);
  }
  return acc;
}

template cplx pauli_bracket<SoaStorage>(const BasicStateVector<SoaStorage>&,
                                        const PauliTerm&);
template real_t expectation<SoaStorage>(const BasicStateVector<SoaStorage>&,
                                        const PauliTerm&);
template real_t expectation<SoaStorage>(const BasicStateVector<SoaStorage>&,
                                        const PauliSum&);
template std::vector<real_t> expectations<SoaStorage>(
    const DistStateVector<SoaStorage>&, std::span<const PauliTerm>);
template real_t expectation<SoaStorage>(const DistStateVector<SoaStorage>&,
                                        const PauliTerm&);
template real_t expectation<SoaStorage>(const DistStateVector<SoaStorage>&,
                                        const PauliSum&);

}  // namespace qsv
