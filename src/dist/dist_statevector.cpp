#include "dist/dist_statevector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "sv/kernels.hpp"

namespace qsv {

template <class S>
DistStateVector<S>::DistStateVector(int num_qubits, int num_ranks,
                                    DistOptions opts)
    : num_qubits_(num_qubits),
      local_qubits_(num_qubits - bits::log2_exact(
                                     static_cast<std::uint64_t>(num_ranks))),
      opts_(opts),
      cluster_(num_ranks, opts.max_message_bytes, opts.recv_deadline_s) {
  QSV_REQUIRE(num_qubits >= 1 && num_qubits <= 30,
              "functional distributed engine supports 1..30 qubits");
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(num_ranks)),
              "rank count must be a power of two");
  QSV_REQUIRE(local_qubits_ >= 1,
              "each rank must hold at least 2 amplitudes (QuEST's rule)");

  const amp_index n_local = amp_index{1} << local_qubits_;
  const std::size_t chunk_bytes = std::min<std::size_t>(
      opts_.max_message_bytes, n_local * kBytesPerAmp);

  if (opts_.threading.enabled()) {
    QSV_REQUIRE(
        opts_.threading.threads == num_ranks,
        "threaded engine needs exactly one thread per rank (asked for " +
            std::to_string(opts_.threading.threads) + " threads, " +
            std::to_string(num_ranks) +
            " ranks): the symmetric exchange protocol needs every rank "
            "live at once");
    const HostTopology topo = discover_host_topology();
    numa_domains_ = static_cast<int>(topo.domains.size());
    host_cpus_ = topo.total_cpus;
    PlacementPlan plan =
        plan_placement(topo, num_ranks, opts_.threading.placement);
    if (opts_.threading.numa_remote_bw_ratio > 0) {
      numa_ratio_ = std::max(1.0, opts_.threading.numa_remote_bw_ratio);
    } else if (numa_domains_ > 1) {
      numa_ratio_ = measure_numa_bandwidth_ratio(topo);
    }
    // Each rank thread gets an equal share of the machine for its nested
    // OpenMP kernels, so rank-parallelism does not oversubscribe.
    const int omp_share = std::max(1, topo.total_cpus / num_ranks);
    team_ = std::make_unique<RankTeam>(num_ranks, std::move(plan), omp_share);

    // Mailbox capacity: one full exchange direction at the widest slice any
    // shrink can reach (half the state), so the non-blocking policy (all
    // sends posted before any recv) can never stall on backpressure. A
    // full-exchange chunk is whole amplitudes, so a cap that is not a
    // multiple of kBytesPerAmp sends more messages than cap-sized ones.
    std::size_t capacity = opts_.threading.mailbox_capacity;
    if (capacity == 0) {
      const amp_index widest_amps = amp_index{1} << (num_qubits_ - 1);
      const amp_index chunk_amps = std::max<amp_index>(
          1, opts_.max_message_bytes / kBytesPerAmp);
      capacity =
          static_cast<std::size_t>((widest_amps + chunk_amps - 1) / chunk_amps);
    }
    cluster_.enable_concurrent(std::max<std::size_t>(1, capacity));

    // First touch: each rank thread allocates and zero-fills its own slice,
    // recv buffer and staging, so the pages land in the NUMA domain the
    // thread was placed in.
    slices_.resize(static_cast<std::size_t>(num_ranks));
    recv_bufs_.resize(static_cast<std::size_t>(num_ranks));
    stage_.resize(static_cast<std::size_t>(num_ranks));
    team_->run(num_ranks, [&](int r) {
      slices_[static_cast<std::size_t>(r)] = S(n_local);
      recv_bufs_[static_cast<std::size_t>(r)] = S(n_local);
      stage_[static_cast<std::size_t>(r)].msg.resize(chunk_bytes);
    });
  } else {
    slices_.reserve(num_ranks);
    for (int r = 0; r < num_ranks; ++r) {
      slices_.emplace_back(n_local);
    }
    stage_.resize(2);  // one per side of the pair in flight
    resize_buffers();
  }
  init_zero_state();
}

template <class S>
void DistStateVector<S>::resize_buffers() {
  recv_bufs_.clear();
  recv_bufs_.reserve(static_cast<std::size_t>(num_ranks()));
  for (int r = 0; r < num_ranks(); ++r) {
    recv_bufs_.emplace_back(local_amps());
  }
  // Workers beyond a shrunk width keep their (idle) staging sized too.
  const std::size_t chunk = std::min<std::size_t>(
      opts_.max_message_bytes, local_amps() * kBytesPerAmp);
  for (std::size_t i = 0; i < (team_ != nullptr ? stage_.size() : 1); ++i) {
    stage_[i].msg.resize(chunk);
  }
}

template <class S>
typename DistStateVector<S>::ThreadSummary
DistStateVector<S>::thread_summary() const {
  ThreadSummary s;
  if (team_ == nullptr) {
    return s;
  }
  s.enabled = true;
  s.threads = team_->workers();
  s.placement = team_->plan().policy;
  s.pinned = team_->pinned();
  s.domains = numa_domains_;
  s.cpus = host_cpus_;
  s.numa_ratio = numa_ratio_;
  return s;
}

template <class S>
void DistStateVector<S>::init_zero_state() {
  for (auto& s : slices_) {
    s.fill_zero();
  }
  slices_[0].set(0, cplx{1, 0});
}

template <class S>
void DistStateVector<S>::init_basis_state(amp_index index) {
  QSV_REQUIRE(index < (amp_index{1} << num_qubits_), "basis state range");
  for (auto& s : slices_) {
    s.fill_zero();
  }
  const rank_t r = static_cast<rank_t>(index >> local_qubits_);
  slices_[r].set(index & (local_amps() - 1), cplx{1, 0});
}

template <class S>
void DistStateVector<S>::init_from(const BasicStateVector<S>& sv) {
  QSV_REQUIRE(sv.num_qubits() == num_qubits_, "register size mismatch");
  for (amp_index g = 0; g < sv.num_amps(); ++g) {
    set_amplitude(g, sv.amplitude(g));
  }
}

template <class S>
cplx DistStateVector<S>::amplitude(amp_index global) const {
  QSV_REQUIRE(global < (amp_index{1} << num_qubits_), "amplitude range");
  const rank_t r = static_cast<rank_t>(global >> local_qubits_);
  return slices_[r].get(global & (local_amps() - 1));
}

template <class S>
void DistStateVector<S>::set_amplitude(amp_index global, cplx v) {
  QSV_REQUIRE(global < (amp_index{1} << num_qubits_), "amplitude range");
  const rank_t r = static_cast<rank_t>(global >> local_qubits_);
  slices_[r].set(global & (local_amps() - 1), v);
}

template <class S>
const S& DistStateVector<S>::slice(rank_t r) const {
  QSV_REQUIRE(r >= 0 && r < num_ranks(), "rank out of range");
  return slices_[r];
}

template <class S>
S& DistStateVector<S>::slice(rank_t r) {
  QSV_REQUIRE(r >= 0 && r < num_ranks(), "rank out of range");
  return slices_[r];
}

template <class S>
void DistStateVector<S>::emit(const ExecEvent& e) {
  if (listener_ != nullptr) {
    listener_->on_event(e);
  }
}

template <class S>
void DistStateVector<S>::tick_gate() {
  const std::uint64_t index = gates_applied_++;
  if (injector_ == nullptr) {
    return;
  }
  if (const std::optional<rank_t> dead = injector_->on_gate(index)) {
    // Fires before any work of the gate: every surviving slice holds a
    // consistent pre-gate state, which is what makes the cheap recovery
    // tiers (substitution, shrink) feasible for this failure.
    throw NodeFailure("rank " + std::to_string(*dead) +
                          " failed at gate " + std::to_string(index),
                      *dead, index, /*at_gate_boundary=*/true);
  }
  // Silent data corruption: flip the planned bit in the planned rank's
  // resident slice. Nothing is thrown — by construction the engine cannot
  // see this happen; only an invariant guard can.
  for (const FaultInjector::BitFlipSpec& flip :
       injector_->bitflips_at_gate(index)) {
    QSV_REQUIRE(flip.rank >= 0 && flip.rank < num_ranks(),
                "bitflip spec names rank " + std::to_string(flip.rank) +
                    " but the cluster has " + std::to_string(num_ranks()) +
                    " ranks");
    const amp_index amp = static_cast<amp_index>(
        flip.amp_draw % static_cast<std::uint64_t>(local_amps()));
    const cplx v = slices_[flip.rank].get(amp);
    double parts[2] = {v.real(), v.imag()};
    std::uint64_t raw = 0;
    std::memcpy(&raw, &parts[flip.bit / 64], sizeof raw);
    raw ^= std::uint64_t{1} << (flip.bit % 64);
    std::memcpy(&parts[flip.bit / 64], &raw, sizeof raw);
    slices_[flip.rank].set(amp, cplx{parts[0], parts[1]});
  }
}

template <class S>
template <class Fn>
void DistStateVector<S>::with_retry(rank_t r, rank_t peer, int tag,
                                    int messages, std::uint64_t bytes,
                                    RankTeam* pair_sync, Fn&& attempt) {
  if (injector_ == nullptr) {
    // Fault-free transport gets a single attempt and no rendezvous, so
    // genuine engine bugs are never masked and the hot path has no extra
    // sync.
    attempt(0);
    return;
  }
  const int attempts = opts_.max_retries + 1;
  const int pair_id = static_cast<int>(std::min(r, peer));
  // Bounds the rendezvous wait: the peer's legitimate latency is at most
  // one watchdog deadline per message of the round, plus slack. A peer
  // that died of a non-communication error must not hang its partner.
  const double rendezvous_s = opts_.recv_deadline_s * (2.0 * messages + 4.0);
  const auto failure = [&](const std::string& what) {
    return NodeFailure("exchange between ranks " + std::to_string(r) +
                           " and " + std::to_string(peer) + what,
                       peer, gates_applied_ == 0 ? 0 : gates_applied_ - 1);
  };
  for (int a = 0;; ++a) {
    RankTeam::PairOutcome out;
    try {
      attempt(a);
    } catch (const CommTimeout&) {
      // A timeout means the watchdog deadline elapsed before the receive
      // gave up: that wait is real wall time on top of the retry backoff.
      // A checksum mismatch is detected on arrival and costs no extra wait.
      out.any_fail = out.any_timed = true;
    } catch (const CommFault&) {
      out.any_fail = true;
    } catch (const NodeFailure&) {
      if (pair_sync == nullptr) {
        throw;
      }
      out.any_fatal = true;
    }
    if (pair_sync != nullptr) {
      out = pair_sync->pair_arrive(pair_id, out.any_fail, out.any_timed,
                                   out.any_fatal, rendezvous_s);
    }
    if (out.any_fatal) {
      // One side saw a dead rank: both throw, so recovery starts from a
      // symmetric position (mid-exchange, not at a gate boundary).
      throw failure(" observed a node failure");
    }
    if (!out.any_fail) {
      return;
    }
    // One caller per pair clears the failed unit's messages and records the
    // single retry charge: the orchestrator, or the lower rank of a
    // synchronised pair. Purging one tag leaves the exchange's other chunks
    // in flight; the second rendezvous keeps any re-send from racing it.
    if (pair_sync == nullptr || r < peer) {
      if (tag == VirtualCluster::kAnyTag) {
        cluster_.purge_pair(r, peer);
      } else {
        cluster_.purge_tag(r, peer, tag);
      }
      if (a + 1 < attempts) {
        injector_->record_retry(
            bytes, messages,
            opts_.retry_backoff_s * static_cast<double>(1 << a) +
                (out.any_timed ? opts_.recv_deadline_s : 0.0));
      }
    }
    if (pair_sync != nullptr) {
      pair_sync->pair_arrive(pair_id, false, false, false, rendezvous_s);
    }
    if (a + 1 >= attempts) {
      throw failure(" abandoned after " + std::to_string(opts_.max_retries) +
                    " retries");
    }
  }
}

template <class S>
void DistStateVector<S>::exchange_step(std::span<const Side> sides,
                                       const Shape& shape,
                                       const RegionFn& combine) {
  const amp_index chunks = (shape.total + shape.chunk - 1) / shape.chunk;
  const auto end_of = [&](amp_index c) {
    return std::min((c + 1) * shape.chunk, shape.total);
  };
  // Staging: per rank on the threaded engine, per side of the pair in
  // flight on the serial one, which packs every message through stage_[0].
  const auto stage = [&](std::size_t i) -> Stage& {
    return stage_[team_ != nullptr ? static_cast<std::size_t>(sides[i].me)
                                   : i];
  };
  const auto pack_buf = [&](std::size_t i) -> std::vector<std::byte>& {
    return stage(team_ != nullptr ? i : 0).msg;
  };
  // A half exchange ships the amplitudes whose local bit disagrees with the
  // side's own bit of the distributed target; see kernels.hpp.
  const auto half_value = [&](rank_t me) {
    return 1 - bits::bit(static_cast<amp_index>(me), shape.high_bit);
  };
  if (shape.half) {
    for (std::size_t i = 0; i < sides.size(); ++i) {
      stage(i).out.resize(shape.total);
      stage(i).in.resize(shape.total);
      kern::gather_half(slices_[sides[i].me], shape.local_bit,
                        half_value(sides[i].me), stage(i).out.data());
    }
  }

  // Every message carries its chunk index as its tag. The serial engine
  // interleaves the two sides per chunk and lands each chunk's messages in
  // posting order: side 0 sent first, so side 1 receives first.
  const auto post = [&](amp_index c) {
    const amp_index first = c * shape.chunk;
    const amp_index count = end_of(c) - first;
    for (std::size_t i = 0; i < sides.size(); ++i) {
      std::span<const std::byte> payload;
      if (shape.half) {
        payload = {stage(i).out.data() + first, count};
      } else {
        std::vector<std::byte>& buf = pack_buf(i);
        payload = {buf.data(),
                   slices_[sides[i].me].pack(first, count, buf.data())};
      }
      cluster_.send(sides[i].me, sides[i].peer, payload, static_cast<int>(c));
    }
  };
  const auto land = [&](amp_index c) {
    const amp_index first = c * shape.chunk;
    const amp_index count = end_of(c) - first;
    for (std::size_t i = sides.size(); i-- > 0;) {
      const rank_t me = sides[i].me;
      if (shape.half) {
        cluster_.recv(sides[i].peer, me, {stage(i).in.data() + first, count},
                      static_cast<int>(c));
      } else {
        std::vector<std::byte>& buf = pack_buf(i);
        cluster_.recv(sides[i].peer, me, {buf.data(), count * kBytesPerAmp},
                      static_cast<int>(c));
        recv_bufs_[me].unpack(first, count, buf.data());
      }
    }
  };

  // The policy picks the wait point and the retry unit. Blocking posts and
  // waits chunk by chunk, retrying one chunk round; non-blocking posts
  // everything and waits once, retrying the whole exchange; overlapped posts
  // everything up front, waits per chunk and retries one tag while the
  // combine chases the landed frontier. Re-posting an overlapped chunk is
  // safe: its combine region is untouched until the chunk has fully landed.
  const bool whole = opts_.policy == CommPolicy::kNonBlocking;
  const bool chase = opts_.policy == CommPolicy::kOverlapped;
  if (chase) {
    for (amp_index c = 0; c < chunks; ++c) {
      post(c);
    }
  }
  // One side per call means the peer's thread runs the mirror step
  // concurrently, so retries rendezvous with it.
  RankTeam* pair_sync = sides.size() == 1 ? team_.get() : nullptr;
  amp_index next = 0;
  const auto ready = [&]() -> amp_index {
    const amp_index c0 = next;
    next = whole ? chunks : c0 + 1;
    // Round totals cover both directions, so one retry is charged the same
    // on either engine.
    const std::uint64_t bytes = 2 * (end_of(next - 1) - c0 * shape.chunk) *
                                (shape.half ? 1 : kBytesPerAmp);
    with_retry(sides[0].me, sides[0].peer,
               whole ? VirtualCluster::kAnyTag : static_cast<int>(c0),
               2 * static_cast<int>(next - c0), bytes, pair_sync,
               [&](int attempt) {
                 for (amp_index c = c0; c < next; ++c) {
                   if (!chase || attempt > 0) {
                     post(c);
                   }
                 }
                 for (amp_index c = c0; c < next; ++c) {
                   land(c);
                 }
               });
    return end_of(next - 1);
  };
  // Without chasing, the whole stream must land before one combine pass.
  const amp_index tile =
      (amp_index{1} << std::min(opts_.sweep.tile_qubits, local_qubits_)) *
      (shape.half ? kBytesPerAmp : 1);
  kern::apply_over_frontier(
      shape.total, chase ? shape.align : shape.total,
      chase ? tile : shape.total, ready,
      [&](amp_index first, amp_index count) {
        for (std::size_t i = 0; i < sides.size(); ++i) {
          const rank_t me = sides[i].me;
          if (shape.half) {
            kern::scatter_half_range(slices_[me], shape.local_bit,
                                     half_value(me), stage(i).in.data(),
                                     first / kBytesPerAmp,
                                     count / kBytesPerAmp);
          } else {
            combine(me, first, count);
          }
        }
      });
}

template <class S>
double DistStateVector<S>::exchange_numa_ratio(const OpPlan& plan) const {
  if (team_ == nullptr || numa_ratio_ <= 1.0) {
    return 1.0;
  }
  const std::vector<int>& dom = team_->plan().domain_of_rank;
  for (rank_t r = 0; r < num_ranks(); ++r) {
    const rank_t peer = static_cast<rank_t>(
        static_cast<std::uint64_t>(r) ^ plan.rank_xor_mask);
    if (peer <= r ||
        !bits::all_set(static_cast<amp_index>(r), plan.high_mask)) {
      continue;
    }
    if (static_cast<std::size_t>(peer) < dom.size() &&
        dom[static_cast<std::size_t>(r)] !=
            dom[static_cast<std::size_t>(peer)]) {
      return numa_ratio_;  // a gate waits on its slowest pair
    }
  }
  return 1.0;
}

template <class S>
void DistStateVector<S>::apply_distributed(const Gate& g, const OpPlan& plan) {
  const amp_index local_ctrl =
      kern::split_controls(g.controls, local_qubits_).local;
  // Computed once, before any rank runs: every combine sees identical inputs.
  const Mat2 u = plan.combine == OpPlan::Combine::kMatrix1 ? gate_matrix2(g)
                                                           : Mat2{};
  const auto high = [&](rank_t me) {
    return bits::bit(static_cast<amp_index>(me), plan.high_bit);
  };

  Shape shape;
  shape.total = local_amps();
  shape.chunk = std::min<amp_index>(shape.total,
                                    opts_.max_message_bytes / kBytesPerAmp);
  RegionFn combine;
  switch (plan.combine) {
    case OpPlan::Combine::kMatrix1:
      // Elementwise: every landed amplitude is immediately combinable.
      combine = [&](rank_t me, amp_index first, amp_index count) {
        kern::combine_matrix1_range(slices_[me], recv_bufs_[me], high(me), u,
                                    local_ctrl, first, count);
      };
      break;
    case OpPlan::Combine::kSwapOneHigh: {
      const int a = g.targets[0];
      if (plan.half_exchange) {
        // The packed half-payload streams in bytes, so a chunk boundary may
        // split an amplitude: the scatter waits for whole amplitudes.
        shape.half = true;
        shape.local_bit = a;
        shape.high_bit = plan.high_bit;
        shape.total = kern::half_payload_bytes(local_amps());
        shape.chunk =
            std::min<amp_index>(shape.total, opts_.max_message_bytes);
        shape.align = kBytesPerAmp;
      } else {
        // The combine reads the partner amplitude flip_bit(i, a), so
        // regions must be closed under that flip: align 2^(a+1).
        shape.align = amp_index{1} << (a + 1);
        combine = [&, a](rank_t me, amp_index first, amp_index count) {
          kern::combine_swap_one_high_range(slices_[me], recv_bufs_[me], a,
                                            high(me), first, count);
        };
      }
      break;
    }
    case OpPlan::Combine::kSwapTwoHigh:
      combine = [&](rank_t me, amp_index first, amp_index count) {
        kern::combine_swap_two_high_range(slices_[me], recv_bufs_[me], first,
                                          count);
      };
      break;
    case OpPlan::Combine::kNone:
      QSV_REQUIRE(false, "distributed plan without a combine kind");
  }

  const std::uint64_t m = plan.rank_xor_mask;
  // high_mask names control bits, rank_xor_mask target bits; they are
  // disjoint, so both pair members agree on participation.
  const auto participates = [&](rank_t r) {
    if (!bits::all_set(static_cast<amp_index>(r), plan.high_mask)) {
      return false;  // high controls unsatisfied: the pair is idle
    }
    // A two-high SWAP moves amplitudes only between ranks whose two high
    // bits differ.
    const std::uint64_t rb = static_cast<std::uint64_t>(r) & m;
    return plan.combine != OpPlan::Combine::kSwapTwoHigh ||
           (rb != 0 && rb != m);
  };
  const auto peer_of = [&](rank_t r) {
    return static_cast<rank_t>(static_cast<std::uint64_t>(r) ^ m);
  };
  if (team_ != nullptr) {
    team_->run(num_ranks(), [&](int r) {
      const Side side{r, peer_of(r)};
      if (participates(r)) {
        exchange_step({&side, 1}, shape, combine);
      }
    });
  } else {
    for (rank_t r = 0; r < num_ranks(); ++r) {
      if (peer_of(r) > r && participates(r)) {  // each pair once
        const Side pair[2] = {{r, peer_of(r)}, {peer_of(r), r}};
        exchange_step(pair, shape, combine);
      }
    }
  }
  QSV_REQUIRE(cluster_.quiescent(),
              "messages left in flight after a distributed gate");
}

template <class S>
void DistStateVector<S>::apply(const Gate& g) {
  QSV_REQUIRE(g.max_qubit() < num_qubits_, "gate qubit out of range");

  // Gates without a native distributed execution (two-qubit dense
  // unitaries on rank bits) run as their SWAP-staged expansion.
  const std::vector<Gate> expansion =
      expand_for_decomposition(g, local_qubits_);
  if (!expansion.empty()) {
    for (const Gate& sub : expansion) {
      apply(sub);
    }
    return;
  }

  tick_gate();
  const OpPlan plan = plan_gate(g, num_qubits_, local_qubits_, opts_);

  ExecEvent e;
  e.gate = g.kind;
  e.locality = plan.locality;
  e.local_amps = local_amps();
  e.local_target = plan.local_target;
  e.participating_fraction = plan.participating_fraction;

  if (plan.locality == GateLocality::kDistributed) {
    apply_distributed(g, plan);
    e.kind = ExecEvent::Kind::kExchange;
    e.bytes_per_rank = plan.exchange_bytes;
    e.messages_per_rank = plan.messages;
    e.policy = opts_.policy;
    e.half_exchange = plan.half_exchange;
    e.overlap_chunks =
        opts_.policy == CommPolicy::kOverlapped ? plan.messages : 0;
    e.numa_ratio = exchange_numa_ratio(plan);
    if (injector_ != nullptr) {
      const FaultInjector::GateFaultCharges charges =
          injector_->take_gate_charges();
      e.retry_bytes = charges.retry_bytes;
      e.retry_messages = charges.retry_messages;
      e.fault_delay_s = charges.delay_s;
    }
  } else {
    if (team_ != nullptr) {
      team_->run(num_ranks(), [&](int r) {
        kern::apply_gate_slice(slices_[static_cast<std::size_t>(r)], g,
                               local_qubits_, static_cast<amp_index>(r));
      });
    } else {
      for (rank_t r = 0; r < num_ranks(); ++r) {
        kern::apply_gate_slice(slices_[r], g, local_qubits_,
                               static_cast<amp_index>(r));
      }
    }
    e.kind = ExecEvent::Kind::kLocalGate;
  }
  emit(e);
}

template <class S>
bool DistStateVector<S>::gate_runs_local(const Gate& g) const {
  const std::vector<Gate> expansion =
      expand_for_decomposition(g, local_qubits_);
  if (!expansion.empty()) {
    for (const Gate& sub : expansion) {
      if (!gate_runs_local(sub)) {
        return false;
      }
    }
    return true;
  }
  return plan_gate(g, num_qubits_, local_qubits_, opts_).locality !=
         GateLocality::kDistributed;
}

template <class S>
void DistStateVector<S>::apply_to_rank(const Gate& g, rank_t r) {
  QSV_REQUIRE(r >= 0 && r < num_ranks(), "rank out of range");
  const std::vector<Gate> expansion =
      expand_for_decomposition(g, local_qubits_);
  if (!expansion.empty()) {
    for (const Gate& sub : expansion) {
      apply_to_rank(sub, r);
    }
    return;
  }
  const OpPlan plan = plan_gate(g, num_qubits_, local_qubits_, opts_);
  QSV_REQUIRE(plan.locality != GateLocality::kDistributed,
              "solo replay requires gates with no distributed exchange");
  kern::apply_gate_slice(slices_[r], g, local_qubits_,
                         static_cast<amp_index>(r));
  ExecEvent e;
  e.kind = ExecEvent::Kind::kLocalGate;
  e.gate = g.kind;
  e.locality = plan.locality;
  e.local_amps = local_amps();
  e.local_target = plan.local_target;
  // Exactly one node computes while the rest wait at the resume barrier.
  e.participating_fraction = 1.0 / static_cast<double>(num_ranks());
  emit(e);
}

template <class S>
void DistStateVector<S>::rebind_rank(rank_t r) {
  cluster_.purge_rank(r);
}

template <class S>
ReshardPlan DistStateVector<S>::shrink_to_half(rank_t dead_rank) {
  const ReshardPlan plan = plan_reshard(num_qubits_, local_qubits_, dead_rank,
                                        opts_.max_message_bytes);
  const amp_index n_local = local_amps();
  const amp_index chunk_amps = std::min<amp_index>(
      n_local,
      std::max<amp_index>(1, opts_.max_message_bytes / kBytesPerAmp));

  std::vector<std::byte>& buf = stage_[0].msg;
  std::vector<S> merged;
  merged.reserve(static_cast<std::size_t>(plan.new_ranks));
  for (int n = 0; n < plan.new_ranks; ++n) {
    const rank_t lo = static_cast<rank_t>(2 * n);
    const rank_t hi = static_cast<rank_t>(2 * n + 1);
    // The dead pair merges on its surviving member, and the rebuilt slice
    // was read from the checkpoint straight onto that host — no network
    // movement either way for this one pair.
    const bool dead_pair = lo == dead_rank || hi == dead_rank;
    S s(n_local * 2);
    for (amp_index first = 0; first < n_local; first += chunk_amps) {
      const amp_index count = std::min(chunk_amps, n_local - first);
      slices_[lo].pack(first, count, buf.data());
      s.unpack(first, count, buf.data());
    }
    for (amp_index first = 0; first < n_local; first += chunk_amps) {
      const amp_index count = std::min(chunk_amps, n_local - first);
      const std::size_t bytes =
          slices_[hi].pack(first, count, buf.data());
      if (!dead_pair) {
        cluster_.send(hi, lo, {buf.data(), bytes});
        cluster_.recv(hi, lo, {buf.data(), bytes});
      }
      s.unpack(n_local + first, count, buf.data());
    }
    merged.push_back(std::move(s));
  }

  slices_ = std::move(merged);
  local_qubits_ += 1;
  cluster_.shrink_to(plan.new_ranks);

  resize_buffers();
  return plan;
}

template <class S>
GrowBackPlan DistStateVector<S>::grow_back_double() {
  const GrowBackPlan plan =
      plan_grow_back(num_qubits_, local_qubits_, opts_.max_message_bytes);
  QSV_REQUIRE(team_ == nullptr || plan.new_ranks <= team_->workers(),
              "grow-back beyond the constructed width: the rank team has " +
                  std::to_string(team_ != nullptr ? team_->workers() : 0) +
                  " workers, asked for " + std::to_string(plan.new_ranks) +
                  " ranks");
  const amp_index n_local = local_amps();
  const amp_index n_half = n_local / 2;
  const amp_index chunk_amps = std::min<amp_index>(
      n_half,
      std::max<amp_index>(1, opts_.max_message_bytes / kBytesPerAmp));

  // Widen the cluster before any traffic: the revived ranks must be valid
  // send targets. The engine is quiescent at a gate boundary, so this (and
  // the rollback shrink below) cannot race in-flight messages.
  cluster_.grow_to(plan.new_ranks);

  std::vector<std::byte>& buf = stage_[0].msg;
  std::vector<S> grown;
  grown.resize(static_cast<std::size_t>(plan.new_ranks));
  try {
    if (team_ != nullptr) {
      // First touch: each new rank's worker thread allocates and zero-fills
      // its own slice, so the pages land in the revived rank's NUMA domain.
      team_->run(plan.new_ranks, [&](int r) {
        grown[static_cast<std::size_t>(r)] = S(n_half);
      });
    } else {
      for (int r = 0; r < plan.new_ranks; ++r) {
        grown[static_cast<std::size_t>(r)] = S(n_half);
      }
    }
    for (int n = 0; n < plan.old_ranks; ++n) {
      const rank_t lo = static_cast<rank_t>(2 * n);
      const rank_t hi = static_cast<rank_t>(2 * n + 1);
      // The low half stays resident on the survivor (new rank 2n).
      for (amp_index first = 0; first < n_half; first += chunk_amps) {
        const amp_index count = std::min(chunk_amps, n_half - first);
        slices_[static_cast<std::size_t>(n)].pack(first, count,
                                                  buf.data());
        grown[static_cast<std::size_t>(lo)].unpack(first, count,
                                                   buf.data());
      }
      // The absorbed partner half ships to the revived rank 2n+1 through the
      // cluster — CRC-checked end-to-end and retried on transient faults
      // like any exchange, so a corrupted handoff payload is caught and
      // re-sent, never absorbed into the revived slice.
      with_retry(lo, hi, VirtualCluster::kAnyTag, plan.messages_per_move,
                 plan.bytes_per_move, nullptr, [&](int) {
        for (amp_index first = 0; first < n_half; first += chunk_amps) {
          const amp_index count = std::min(chunk_amps, n_half - first);
          const std::size_t bytes = slices_[static_cast<std::size_t>(n)].pack(
              n_half + first, count, buf.data());
          cluster_.send(lo, hi, {buf.data(), bytes});
          cluster_.recv(lo, hi, {buf.data(), bytes});
          grown[static_cast<std::size_t>(hi)].unpack(first, count,
                                                     buf.data());
        }
      });
    }
  } catch (...) {
    // The movement faulted past the retry budget: restore the narrow
    // membership and leave the (untouched) merged slices in place, so the
    // run continues at the old width.
    cluster_.reset_queues();
    cluster_.shrink_to(plan.old_ranks);
    throw;
  }

  slices_ = std::move(grown);
  local_qubits_ -= 1;

  resize_buffers();
  return plan;
}

template <class S>
std::vector<GrowBackPlan> DistStateVector<S>::grow_back_to_full(
    int target_ranks) {
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(target_ranks)),
              "rank count must be a power of two");
  QSV_REQUIRE(target_ranks >= num_ranks(),
              "grow_back_to_full cannot reduce the rank count");
  std::vector<GrowBackPlan> plans;
  while (num_ranks() < target_ranks) {
    plans.push_back(grow_back_double());
  }
  return plans;
}

template <class S>
void DistStateVector<S>::apply_sweep_run(const Circuit& c, std::size_t first,
                                         std::size_t count) {
  // A planned node failure anywhere inside the tiled run fires before the
  // run executes: slices are never left mid-sweep.
  for (std::size_t i = 0; i < count; ++i) {
    tick_gate();
  }
  const Gate* gates = c.gates().data() + first;
  const int t = std::min(opts_.sweep.tile_qubits, local_qubits_);
  if (team_ != nullptr) {
    team_->run(num_ranks(), [&](int r) {
      kern::apply_sweep_run(slices_[static_cast<std::size_t>(r)], gates,
                            count, t, local_qubits_,
                            static_cast<amp_index>(r));
    });
  } else {
    for (rank_t r = 0; r < num_ranks(); ++r) {
      kern::apply_sweep_run(slices_[r], gates, count, t, local_qubits_,
                            static_cast<amp_index>(r));
    }
  }
  const amp_index tiles = local_amps() >> t;
  sweep_stats_.add_run(count, tiles);

  ExecEvent se;
  se.kind = ExecEvent::Kind::kSweep;
  se.gate = gates[0].kind;
  se.local_amps = local_amps();
  se.sweep_gates = static_cast<int>(count);
  se.sweep_tiles = tiles;
  emit(se);

  // The per-gate events are unchanged versus gate-by-gate execution, so a
  // listening cost model charges exactly what a naive run would.
  for (std::size_t i = 0; i < count; ++i) {
    const Gate& g = gates[i];
    const OpPlan plan = plan_gate(g, num_qubits_, local_qubits_, opts_);
    ExecEvent e;
    e.kind = ExecEvent::Kind::kLocalGate;
    e.gate = g.kind;
    e.locality = plan.locality;
    e.local_amps = local_amps();
    e.local_target = plan.local_target;
    e.participating_fraction = plan.participating_fraction;
    emit(e);
  }
}

template <class S>
void DistStateVector<S>::apply(const Circuit& c) {
  QSV_REQUIRE(c.num_qubits() == num_qubits_, "register size mismatch");
  const std::vector<GateRun> runs =
      plan_sweep_runs(c.gates(), local_qubits_, opts_.sweep);
  for (const GateRun& run : runs) {
    apply_run(c, run);
  }
}

template <class S>
void DistStateVector<S>::apply_run(const Circuit& c, const GateRun& run) {
  QSV_REQUIRE(c.num_qubits() == num_qubits_, "register size mismatch");
  QSV_REQUIRE(run.first + run.count <= c.gates().size(),
              "gate run out of range");
  if (run.sweep) {
    apply_sweep_run(c, run.first, run.count);
  } else {
    for (std::size_t i = 0; i < run.count; ++i) {
      apply(c.gate(run.first + i));
    }
  }
}

template <class S>
real_t DistStateVector<S>::probability_of_one(qubit_t qubit) const {
  QSV_REQUIRE(qubit >= 0 && qubit < num_qubits_, "qubit out of range");
  real_t p = 0;
  for (rank_t r = 0; r < num_ranks(); ++r) {
    if (qubit >= local_qubits_) {
      if (bits::bit(static_cast<amp_index>(r), qubit - local_qubits_) == 0) {
        continue;
      }
      for (amp_index i = 0; i < local_amps(); ++i) {
        p += std::norm(slices_[r].get(i));
      }
    } else {
      for (amp_index i = 0; i < local_amps(); ++i) {
        if (bits::bit(i, qubit)) {
          p += std::norm(slices_[r].get(i));
        }
      }
    }
  }
  return p;  // conceptually an MPI_Allreduce of the local partial sums
}

template <class S>
real_t DistStateVector<S>::norm_sq() const {
  real_t acc = 0;
  for (rank_t r = 0; r < num_ranks(); ++r) {
    for (amp_index i = 0; i < local_amps(); ++i) {
      acc += std::norm(slices_[r].get(i));
    }
  }
  return acc;
}

template <class S>
int DistStateVector<S>::measure(qubit_t qubit, Rng& rng) {
  const real_t p1 = probability_of_one(qubit);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  const real_t keep_p = outcome ? p1 : 1 - p1;
  QSV_REQUIRE(keep_p > 0, "measured an outcome with zero probability");
  const real_t scale = 1 / std::sqrt(keep_p);
  for (rank_t r = 0; r < num_ranks(); ++r) {
    const bool rank_bit_known = qubit >= local_qubits_;
    const int rank_bit =
        rank_bit_known
            ? bits::bit(static_cast<amp_index>(r), qubit - local_qubits_)
            : 0;
    for (amp_index i = 0; i < local_amps(); ++i) {
      const int b = rank_bit_known ? rank_bit : bits::bit(i, qubit);
      if (b == outcome) {
        slices_[r].set(i, slices_[r].get(i) * scale);
      } else {
        slices_[r].set(i, cplx{0, 0});
      }
    }
  }
  return outcome;
}

template <class S>
std::uint32_t DistStateVector<S>::slice_crc(rank_t r) const {
  QSV_REQUIRE(r >= 0 && r < num_ranks(), "rank out of range");
  constexpr amp_index kChunkAmps = amp_index{1} << 12;
  std::vector<std::byte> buf(
      static_cast<std::size_t>(std::min(local_amps(), kChunkAmps)) *
      kBytesPerAmp);
  Crc32 crc;
  for (amp_index first = 0; first < local_amps(); first += kChunkAmps) {
    const amp_index count = std::min(kChunkAmps, local_amps() - first);
    const std::size_t bytes = slices_[r].pack(first, count, buf.data());
    crc.update(buf.data(), bytes);
  }
  return crc.value();
}

template <class S>
BasicStateVector<S> DistStateVector<S>::gather() const {
  BasicStateVector<S> sv(num_qubits_);
  for (amp_index g = 0; g < (amp_index{1} << num_qubits_); ++g) {
    sv.set_amplitude(g, amplitude(g));
  }
  return sv;
}

template class DistStateVector<SoaStorage>;

}  // namespace qsv
