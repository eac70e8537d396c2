#include "cluster/faults.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace qsv {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNodeFailure: return "node-failure";
    case FaultKind::kDropMessage: return "drop";
    case FaultKind::kCorruptMessage: return "corrupt";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kBitFlip: return "bitflip";
    case FaultKind::kRevive: return "revive";
  }
  return "?";
}

FaultPlan sample_node_failures(double node_mtbf_s, double seconds_per_gate,
                               std::uint64_t num_gates, int num_ranks,
                               std::uint64_t seed) {
  QSV_REQUIRE(node_mtbf_s > 0, "node MTBF must be positive");
  QSV_REQUIRE(seconds_per_gate > 0, "per-gate time must be positive");
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed);
  const double horizon_s = seconds_per_gate * static_cast<double>(num_gates);
  for (rank_t r = 0; r < num_ranks; ++r) {
    // Exponential lifetime with mean MTBF; one failure per node at most
    // (a replacement node restarts the clock, but a single job horizon is
    // short against MTBF so we ignore second failures of the same slot).
    const double u = rng.uniform();
    const double t_fail = -node_mtbf_s * std::log1p(-u);
    if (t_fail < horizon_s) {
      FaultSpec s;
      s.kind = FaultKind::kNodeFailure;
      s.rank = r;
      s.at_gate = static_cast<std::uint64_t>(t_fail / seconds_per_gate);
      plan.specs.push_back(s);
    }
  }
  // Fire in gate order so the log reads chronologically.
  std::sort(plan.specs.begin(), plan.specs.end(),
            [](const FaultSpec& a, const FaultSpec& b) {
              return a.at_gate < b.at_gate;
            });
  return plan;
}

namespace {

/// Splits "a@b[:c[:d...]]" into fields; throws with the offending token on
/// error. `extras` holds the colon-separated arguments after the index.
struct Token {
  std::string kind;
  std::uint64_t at = 0;
  std::vector<double> extras;

  [[nodiscard]] bool has_extra() const { return !extras.empty(); }
  [[nodiscard]] double extra() const { return extras.front(); }
};

Token parse_token(const std::string& raw) {
  const auto at = raw.find('@');
  QSV_REQUIRE(at != std::string::npos && at > 0,
              "fault spec '" + raw + "': expected kind@index[:arg]");
  Token t;
  t.kind = raw.substr(0, at);
  const std::string rest = raw.substr(at + 1);
  QSV_REQUIRE(rest.empty() || rest.back() != ':',
              "fault spec '" + raw + "': trailing ':'");
  std::vector<std::string> fields;
  std::istringstream split(rest);
  for (std::string field; std::getline(split, field, ':');) {
    fields.push_back(field);
  }
  QSV_REQUIRE(!fields.empty(),
              "fault spec '" + raw + "': expected kind@index[:arg]");
  {
    std::istringstream is(fields.front());
    is >> t.at;
    QSV_REQUIRE(!is.fail() && is.eof(),
                "fault spec '" + raw + "': bad index '" + fields.front() +
                    "'");
  }
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::string& extra = fields[i];
    std::istringstream is(extra);
    double value = 0;
    is >> value;
    QSV_REQUIRE(!is.fail() && is.eof(),
                "fault spec '" + raw + "': bad argument '" + extra + "'");
    t.extras.push_back(value);
  }
  return t;
}

/// The values of a per-rank delay map, added in ascending rank order.
double sum_by_rank(const std::map<rank_t, double>& by_rank) {
  double sum = 0;
  for (const auto& rank_delay : by_rank) {
    sum += rank_delay.second;
  }
  return sum;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw, ',')) {
    // Trim surrounding whitespace.
    const auto b = raw.find_first_not_of(" \t");
    if (b == std::string::npos) {
      continue;
    }
    const auto e = raw.find_last_not_of(" \t");
    const Token t = parse_token(raw.substr(b, e - b + 1));

    FaultSpec s;
    if (t.kind == "fail") {
      s.kind = FaultKind::kNodeFailure;
      s.at_gate = t.at;
      s.rank = t.has_extra() ? static_cast<rank_t>(t.extra()) : 0;
    } else if (t.kind == "drop" || t.kind == "corrupt") {
      s.kind = t.kind == "drop" ? FaultKind::kDropMessage
                                : FaultKind::kCorruptMessage;
      QSV_REQUIRE(t.at >= 1, "fault spec '" + raw +
                                 "': message ordinals are 1-based");
      s.at_message = t.at;
      s.rank = t.has_extra() ? static_cast<rank_t>(t.extra()) : 0;
    } else if (t.kind == "delay") {
      s.kind = FaultKind::kStraggler;
      QSV_REQUIRE(t.at >= 1, "fault spec '" + raw +
                                 "': message ordinals are 1-based");
      QSV_REQUIRE(t.has_extra() && t.extra() > 0,
                  "fault spec '" + raw + "': delay needs ':seconds'");
      s.at_message = t.at;
      s.rank = 0;
      s.delay_s = t.extra();
    } else if (t.kind == "bitflip") {
      s.kind = FaultKind::kBitFlip;
      s.at_gate = t.at;
      s.rank = t.has_extra() ? static_cast<rank_t>(t.extra()) : 0;
      if (t.extras.size() >= 2) {
        const int bit = static_cast<int>(t.extras[1]);
        QSV_REQUIRE(bit >= 0 && bit < 2 * 64,
                    "fault spec '" + raw +
                        "': amplitude bit must be in [0, 128)");
        s.bit = bit;
      }
    } else if (t.kind == "revive") {
      s.kind = FaultKind::kRevive;
      s.at_gate = t.at;
      s.rank = t.has_extra() ? static_cast<rank_t>(t.extra()) : -1;
    } else {
      QSV_REQUIRE(false, "fault spec '" + raw +
                             "': unknown kind '" + t.kind +
                             "' (want fail|drop|corrupt|delay|bitflip|"
                             "revive)");
    }
    plan.specs.push_back(s);
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      fired_(plan_.specs.size(), false),
      // A fixed xor keeps these draws apart from the node-failure times
      // sample_node_failures draws from the same seed.
      bitflip_rng_(plan_.seed ^ 0x9E3779B97F4A7C15ull) {}

bool FaultInjector::rank_dead(rank_t rank) const {
  std::lock_guard<std::mutex> lk(m_);
  return std::find(dead_.begin(), dead_.end(), rank) != dead_.end();
}

FaultInjector::MessageOutcome FaultInjector::on_message(
    rank_t from, rank_t to, double recv_deadline_s) {
  std::lock_guard<std::mutex> lk(m_);
  const std::uint64_t ordinal = ++sent_[from];
  MessageOutcome out;

  // Every spec naming this sender's ordinal fires its latch, and when
  // several land on the same message the most severe verdict wins (drop >
  // corrupt > straggle): a dropped message makes a companion corruption or
  // delay moot, since nothing is delivered.
  double delay_s = 0;
  int severity = 0;  // 0 deliver, 1 straggle, 2 corrupt, 3 drop
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    if (fired_[i] || s.at_message != ordinal || s.rank != from ||
        s.kind == FaultKind::kNodeFailure || s.kind == FaultKind::kBitFlip ||
        s.kind == FaultKind::kRevive) {
      continue;
    }
    fired_[i] = true;
    switch (s.kind) {
      case FaultKind::kDropMessage:
        severity = std::max(severity, 3);
        break;
      case FaultKind::kCorruptMessage:
        severity = std::max(severity, 2);
        break;
      case FaultKind::kStraggler:
        if (severity < 1) {
          severity = 1;
          delay_s = s.delay_s;
        }
        break;
      case FaultKind::kNodeFailure:
      case FaultKind::kBitFlip:
      case FaultKind::kRevive:
        break;  // unreachable: gate-indexed specs never match a message
    }
  }
  if (severity == 3) {
    out.verdict = Verdict::kDrop;
  } else if (severity == 2) {
    out.verdict = Verdict::kCorrupt;
  } else if (severity == 1) {
    out.verdict = Verdict::kDelay;
    out.delay_s = delay_s;
  }

  // A straggler that lands strictly after the receiver's watchdog deadline
  // is never consumed: it surfaces as a recv timeout. The retry layer
  // charges the elapsed deadline, so the injected delay itself must not be
  // billed to the gate (that would double-count the wait).
  if (out.verdict == Verdict::kDelay && out.delay_s > recv_deadline_s) {
    out.past_deadline = true;
  }

  if (out.verdict != Verdict::kDeliver) {
    FaultEvent e;
    e.rank = from;
    e.peer = to;
    e.message = ordinal;
    e.gate = current_gate_;
    switch (out.verdict) {
      case Verdict::kDrop:
        e.kind = FaultKind::kDropMessage;
        ++totals_.dropped;
        break;
      case Verdict::kCorrupt:
        e.kind = FaultKind::kCorruptMessage;
        ++totals_.corrupted;
        break;
      case Verdict::kDelay:
        e.kind = FaultKind::kStraggler;
        e.delay_s = out.delay_s;
        ++totals_.straggled;
        if (!out.past_deadline) {
          delay_s_[from] += out.delay_s;
          pending_delay_s_[from] += out.delay_s;
        }
        break;
      case Verdict::kDeliver:
        break;
    }
    log_.push_back(e);
  }
  return out;
}

std::optional<rank_t> FaultInjector::on_gate(std::uint64_t index) {
  std::lock_guard<std::mutex> lk(m_);
  current_gate_ = index;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    if (fired_[i] || s.kind != FaultKind::kNodeFailure ||
        s.at_gate != index) {
      continue;
    }
    fired_[i] = true;
    dead_.push_back(s.rank);
    ++totals_.node_failures;
    FaultEvent e;
    e.kind = FaultKind::kNodeFailure;
    e.rank = s.rank;
    e.gate = index;
    log_.push_back(e);
    return s.rank;
  }
  return std::nullopt;
}

std::vector<FaultInjector::BitFlipSpec> FaultInjector::bitflips_at_gate(
    std::uint64_t index) {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<BitFlipSpec> out;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    if (fired_[i] || s.kind != FaultKind::kBitFlip || s.at_gate != index) {
      continue;
    }
    fired_[i] = true;
    BitFlipSpec flip;
    flip.rank = s.rank;
    flip.amp_draw = bitflip_rng_.next_u64();
    flip.bit = s.bit >= 0 ? s.bit
                          : static_cast<int>(bitflip_rng_.below(2 * 64));
    out.push_back(flip);
    ++totals_.bitflips;
    FaultEvent e;
    e.kind = FaultKind::kBitFlip;
    e.rank = s.rank;
    e.gate = index;
    e.bit = flip.bit;
    log_.push_back(e);
  }
  return out;
}

void FaultInjector::record_retry(rank_t rank, std::uint64_t bytes,
                                 int messages, double backoff_s) {
  std::lock_guard<std::mutex> lk(m_);
  ++totals_.retries;
  totals_.retry_bytes += bytes;
  delay_s_[rank] += backoff_s;
  gate_charges_.retry_bytes += bytes;
  gate_charges_.retry_messages += messages;
  pending_delay_s_[rank] += backoff_s;
}

FaultInjector::GateFaultCharges FaultInjector::take_gate_charges() {
  std::lock_guard<std::mutex> lk(m_);
  GateFaultCharges out = gate_charges_;
  out.delay_s = sum_by_rank(pending_delay_s_);
  gate_charges_ = GateFaultCharges{};
  pending_delay_s_.clear();
  return out;
}

void FaultInjector::put_back_gate_charges(const GateFaultCharges& charges) {
  std::lock_guard<std::mutex> lk(m_);
  gate_charges_.retry_bytes += charges.retry_bytes;
  gate_charges_.retry_messages += charges.retry_messages;
  pending_delay_s_[kPutBack] += charges.delay_s;
}

FaultInjector::Totals FaultInjector::totals() const {
  std::lock_guard<std::mutex> lk(m_);
  Totals out = totals_;
  out.delay_s = sum_by_rank(delay_s_);
  return out;
}

void FaultInjector::restart() {
  std::lock_guard<std::mutex> lk(m_);
  dead_.clear();
}

void FaultInjector::revive(rank_t rank) {
  std::lock_guard<std::mutex> lk(m_);
  dead_.erase(std::remove(dead_.begin(), dead_.end(), rank), dead_.end());
}

std::size_t FaultInjector::take_revivals(std::uint64_t up_to_gate) {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t fired = 0;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    if (fired_[i] || s.kind != FaultKind::kRevive || s.at_gate > up_to_gate) {
      continue;
    }
    fired_[i] = true;
    ++fired;
    ++totals_.revivals;
    FaultEvent e;
    e.kind = FaultKind::kRevive;
    e.rank = s.rank;
    e.gate = s.at_gate;
    log_.push_back(e);
  }
  return fired;
}

std::size_t FaultInjector::pending_revivals() const {
  std::lock_guard<std::mutex> lk(m_);
  std::size_t pending = 0;
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    if (!fired_[i] && plan_.specs[i].kind == FaultKind::kRevive) {
      ++pending;
    }
  }
  return pending;
}

std::uint64_t FaultInjector::next_gate_fault(std::uint64_t gate) const {
  std::lock_guard<std::mutex> lk(m_);
  std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    if (fired_[i]) {
      continue;
    }
    if (s.kind == FaultKind::kRevive) {
      next = std::min(next, std::max(s.at_gate, gate + 1));
    } else if ((s.kind == FaultKind::kNodeFailure ||
                s.kind == FaultKind::kBitFlip) &&
               s.at_gate > gate) {
      next = std::min(next, s.at_gate);
    }
  }
  return next;
}

}  // namespace qsv
