#include "dist/dist_statevector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <exception>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sv/kernels.hpp"
#include "sv/simd/simd.hpp"

namespace qsv {
namespace {

/// Backoff before retry attempt a + 1 is charged as kRetryBackoffS * 2^a of
/// idle time.
constexpr double kRetryBackoffS = 0.1;

}  // namespace

template <class S>
DistStateVector<S>::DistStateVector(int num_qubits, int num_ranks,
                                    DistOptions opts)
    : num_qubits_(num_qubits),
      local_qubits_(num_qubits - bits::log2_exact(
                                     static_cast<std::uint64_t>(num_ranks))),
      opts_(opts),
      cluster_(num_ranks, opts.max_message_bytes, kRecvDeadlineS) {
  QSV_REQUIRE(num_qubits >= 1 && num_qubits <= 30,
              "functional distributed engine supports 1..30 qubits");
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(num_ranks)),
              "rank count must be a power of two");
  QSV_REQUIRE(local_qubits_ >= 1,
              "each rank must hold at least 2 amplitudes (QuEST's rule)");
  // As in BasicStateVector: an unusable QSV_SIMD throws on this thread,
  // before any rank thread or parallel region calls a kernel.
  (void)simd::active_backend();

  const amp_index n_local = amp_index{1} << local_qubits_;

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
    team_ = std::make_unique<RankTeam>(num_ranks, topo,
                                       opts_.threading.placement);
    cluster_.enable_concurrent();
  }
  // Each slice is allocated, and zeroed by its first touch, on the thread
  // that owns it: a rank thread at its own loop width, or the serial
  // engine's orchestrator across its whole team.
  slices_.resize(static_cast<std::size_t>(num_ranks));
  for_each_rank(num_ranks, [&](int r) {
    slices_[static_cast<std::size_t>(r)] = S(n_local);
  });
  slices_[0].set(0, cplx{1, 0});
}

template <class S>
void DistStateVector<S>::for_each_rank(int count,
                                       const std::function<void(int)>& fn) {
  if (team_ != nullptr) {
    team_->run(count, fn);
    return;
  }
  std::exception_ptr first;
  for (int r = 0; r < count; ++r) {
    try {
      fn(r);
    } catch (...) {
      if (first == nullptr) {
        first = std::current_exception();
      }
    }
  }
  if (first != nullptr) {
    std::rethrow_exception(first);
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
  const int attempts = kMaxRetries + 1;
  const int pair_id = static_cast<int>(std::min(r, peer));
  // Bounds the rendezvous wait: the peer's legitimate latency is at most
  // one watchdog deadline per message of the round, plus slack. A peer
  // that died of a non-communication error must not hang its partner.
  const double rendezvous_s = kRecvDeadlineS * (2.0 * messages + 4.0);
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
    // single retry charge, against the pair's lower rank: the orchestrator,
    // or the lower rank of a synchronised pair. Purging one tag leaves the
    // exchange's other chunks in flight; the second rendezvous keeps any
    // re-send from racing it.
    if (pair_sync == nullptr || r < peer) {
      if (tag == VirtualCluster::kAnyTag) {
        cluster_.purge_pair(r, peer);
      } else {
        cluster_.purge_tag(r, peer, tag);
      }
      if (a + 1 < attempts) {
        injector_->record_retry(
            pair_id, bytes, messages,
            kRetryBackoffS * static_cast<double>(1 << a) +
                (out.any_timed ? kRecvDeadlineS : 0.0));
      }
    }
    if (pair_sync != nullptr) {
      pair_sync->pair_arrive(pair_id, false, false, false, rendezvous_s);
    }
    if (a + 1 >= attempts) {
      throw failure(" abandoned after " + std::to_string(kMaxRetries) +
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

  // Every message carries its chunk index as its tag. The serial engine
  // interleaves the two sides per chunk and lands each chunk's messages in
  // posting order: side 0 sent first, so side 1 receives first. Each chunk
  // is packed straight into the message, and the combine reads the peer's
  // amplitudes straight out of it: a landed chunk stays held, verified,
  // until the combine frontier has passed it. held[side] holds chunks
  // [released, released + size) in order.
  std::vector<std::deque<VirtualCluster::MessageView>> held(sides.size());
  amp_index released = 0;
  const auto post = [&](amp_index c) {
    const amp_index first = c * shape.chunk;
    const amp_index count = end_of(c) - first;
    for (const Side& side : sides) {
      cluster_.send(side.me, side.peer, count * kBytesPerAmp,
                    static_cast<int>(c), [&](std::span<std::byte> b) {
                      shape.pack(side.me, first, count, b.data());
                    });
    }
  };
  const auto land = [&](amp_index c) {
    const amp_index count = end_of(c) - c * shape.chunk;
    for (std::size_t i = sides.size(); i-- > 0;) {
      held[i].push_back(cluster_.recv_view(sides[i].peer, sides[i].me,
                                           count * kBytesPerAmp,
                                           static_cast<int>(c)));
    }
  };

  // The policy picks the wait point and the retry unit. Blocking posts and
  // waits chunk by chunk, retrying one chunk round; non-blocking posts
  // everything and waits once, retrying the whole exchange; overlapped posts
  // everything up front, waits per chunk and retries one tag while the
  // combine chases the landed frontier in cache tiles. A region is combined
  // only once its round has verified in both directions (with_retry has
  // returned, after the pair rendezvous on rank threads), so a re-send
  // always packs amplitudes no combine has overwritten yet.
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
  const auto ready = [&](amp_index done) -> amp_index {
    // Every combine below `done` has run, and none reads below it again.
    for (; released < next && end_of(released) <= done; ++released) {
      for (auto& side_views : held) {
        side_views.pop_front();
      }
    }
    const amp_index c0 = next;
    next = whole ? chunks : c0 + 1;
    // Round totals cover both directions, so one retry is charged the same
    // on either engine.
    const std::uint64_t bytes =
        2 * (end_of(next - 1) - c0 * shape.chunk) * kBytesPerAmp;
    with_retry(sides[0].me, sides[0].peer,
               whole ? VirtualCluster::kAnyTag : static_cast<int>(c0),
               2 * static_cast<int>(next - c0), bytes, pair_sync,
               [&](int attempt) {
                 // What a failed attempt landed goes back before the
                 // re-send.
                 for (auto& side_views : held) {
                   side_views.resize(c0 - released);
                 }
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
  // Each region is combined from the held chunks that overlap its
  // alignment blocks, where a SWAP's partners lie; each kernel call
  // touches only the amplitudes that read inside its chunk. Blocking and
  // non-blocking exchanges combine each round as one region, at full loop
  // width.
  const amp_index tile = amp_index{1}
                         << std::min(opts_.sweep.tile_qubits, local_qubits_);
  kern::apply_over_frontier(
      shape.total, shape.align, chase ? tile : shape.total, ready,
      [&](amp_index first, amp_index count) {
        const amp_index lo = first & ~(shape.align - 1);
        const amp_index hi =
            (first + count + shape.align - 1) & ~(shape.align - 1);
        for (std::size_t i = 0; i < sides.size(); ++i) {
          for (amp_index c = lo / shape.chunk; c * shape.chunk < hi; ++c) {
            combine(sides[i].me,
                    kern::peer_span(held[i][c - released].bytes(),
                                    c * shape.chunk),
                    first, count);
          }
        }
      });
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
  shape.total = plan.exchange_bytes / kBytesPerAmp;
  shape.chunk = plan.max_message_bytes / kBytesPerAmp;
  shape.pack = [&](rank_t me, amp_index first, amp_index count,
                   std::byte* out) {
    slices_[me].pack(first, count, out);
  };
  RegionFn combine;
  switch (plan.combine) {
    case OpPlan::Combine::kMatrix1:
      // Elementwise: every landed amplitude is immediately combinable.
      combine = [&](rank_t me, const kern::PeerSpan& peer, amp_index first,
                    amp_index count) {
        kern::combine_matrix1_range(slices_[me], peer, high(me), u,
                                    local_ctrl, first, count);
      };
      break;
    case OpPlan::Combine::kSwapOneHigh: {
      const int a = g.targets[0];
      if (plan.half_exchange) {
        // Each side ships the half whose bit `a` disagrees with its own bit
        // of the distributed target, gathered straight into the message,
        // and scatters the peer's half into the same positions,
        // elementwise over the packed index.
        shape.pack = [&, a](rank_t me, amp_index first, amp_index count,
                            std::byte* out) {
          kern::gather_half(slices_[me], a, 1 - high(me), first, count, out);
        };
        combine = [&, a](rank_t me, const kern::PeerSpan& peer,
                         amp_index first, amp_index count) {
          kern::scatter_half(slices_[me], a, 1 - high(me), peer, first,
                             count);
        };
      } else {
        // The combine reads the partner amplitude flip_bit(i, a), so
        // regions must be closed under that flip: align 2^(a+1).
        shape.align = amp_index{1} << (a + 1);
        combine = [&, a](rank_t me, const kern::PeerSpan& peer,
                         amp_index first, amp_index count) {
          kern::combine_swap_one_high_range(slices_[me], peer, a, high(me),
                                            first, count);
        };
      }
      break;
    }
    case OpPlan::Combine::kSwapTwoHigh:
      combine = [&](rank_t me, const kern::PeerSpan& peer, amp_index first,
                    amp_index count) {
        kern::combine_swap_two_high_range(slices_[me], peer, first, count);
      };
      break;
    case OpPlan::Combine::kNone:
      QSV_REQUIRE(false, "distributed plan without a combine kind");
  }

  // Threaded, every sending rank runs its own side; serially, the lower
  // rank of each sending pair runs both.
  for_each_rank(num_ranks(), [&](int r) {
    const rank_t peer = plan.peer(r);
    if (plan.sends(r) && (team_ != nullptr || r < peer)) {
      const Side pair[2] = {{r, peer}, {peer, r}};
      exchange_step({pair, team_ != nullptr ? 1u : 2u}, shape, combine);
    }
  });
  QSV_REQUIRE(cluster_.quiescent(),
              "messages left in flight, or received payloads held, after a "
              "distributed gate");
}

template <class S>
void DistStateVector<S>::apply(const Gate& g) {
  QSV_REQUIRE(g.max_qubit() < num_qubits_, "gate qubit out of range");
  for_each_planned(g, num_qubits_, local_qubits_, opts_,
                   [&](const Gate& leaf, const OpPlan& plan) {
    tick_gate();
    ExecEvent e = gate_event(leaf.kind, plan, local_qubits_, opts_);
    if (plan.locality == GateLocality::kDistributed) {
      apply_distributed(leaf, plan);
      if (injector_ != nullptr) {
        const FaultInjector::GateFaultCharges charges =
            injector_->take_gate_charges();
        e.retry_bytes = charges.retry_bytes;
        e.retry_messages = charges.retry_messages;
        e.fault_delay_s = charges.delay_s;
      }
    } else {
      for_each_rank(num_ranks(), [&](int r) {
        kern::apply_gate_slice(slices_[static_cast<std::size_t>(r)], leaf,
                               local_qubits_, static_cast<amp_index>(r));
      });
    }
    emit(e);
  });
}

template <class S>
bool DistStateVector<S>::gate_runs_local(const Gate& g) const {
  bool local = true;
  for_each_planned(g, num_qubits_, local_qubits_, opts_,
                   [&](const Gate&, const OpPlan& plan) {
    local = local && plan.locality != GateLocality::kDistributed;
  });
  return local;
}

template <class S>
void DistStateVector<S>::apply_to_rank(const Gate& g, rank_t r) {
  QSV_REQUIRE(r >= 0 && r < num_ranks(), "rank out of range");
  for_each_planned(g, num_qubits_, local_qubits_, opts_,
                   [&](const Gate& leaf, const OpPlan& plan) {
    QSV_REQUIRE(plan.locality != GateLocality::kDistributed,
                "solo replay requires gates with no distributed exchange");
    kern::apply_gate_slice(slices_[r], leaf, local_qubits_,
                           static_cast<amp_index>(r));
    ExecEvent e = gate_event(leaf.kind, plan, local_qubits_, opts_);
    // Exactly one node computes while the rest wait at the resume barrier.
    e.participating_fraction = 1.0 / static_cast<double>(num_ranks());
    emit(e);
  });
}

template <class S>
void DistStateVector<S>::rebind_rank(rank_t r) {
  cluster_.purge_rank(r);
}

template <class S>
ReshardPlan DistStateVector<S>::reshard(int new_ranks, rank_t rebuilt) {
  const ReshardPlan plan = plan_reshard(num_qubits_, local_qubits_, new_ranks,
                                        rebuilt, opts_.max_message_bytes);
  const bool grow = plan.new_ranks > plan.old_ranks;
  const int wide = std::max(plan.old_ranks, plan.new_ranks);
  QSV_REQUIRE(team_ == nullptr || wide <= team_->workers(),
              "re-shard to " + std::to_string(wide) +
                  " ranks beyond the rank team's constructed width");
  const amp_index half = plan.bytes_per_move / kBytesPerAmp;
  const amp_index chunk = chunk_amps(opts_.max_message_bytes);

  // The moves run at the wider width, where a grow's new ranks are valid
  // send targets; at a gate boundary no message is in flight to race.
  if (grow) {
    cluster_.resize_to(wide);
  }
  std::vector<S> next(static_cast<std::size_t>(plan.new_ranks));
  try {
    for_each_rank(plan.new_ranks, [&](int r) {
      next[static_cast<std::size_t>(r)] = S(grow ? half : 2 * half);
    });
    std::vector<S>& narrow = grow ? slices_ : next;
    std::vector<S>& wide_slices = grow ? next : slices_;
    for (int n = 0; n < wide / 2; ++n) {
      const rank_t lo = static_cast<rank_t>(2 * n);
      const bool rebuilt_pair = rebuilt == lo || rebuilt == lo + 1;
      S& joined = narrow[static_cast<std::size_t>(n)];
      for (int h = 0; h < 2; ++h) {
        // Half h of the joined slice is wide rank 2n + h's slice: growing
        // moves it out of the joined slice, shrinking moves it back in.
        S& part = wide_slices[static_cast<std::size_t>(lo + h)];
        const S& src = grow ? joined : part;
        S& dst = grow ? part : joined;
        const amp_index src_first = grow ? h * half : 0;
        const amp_index dst_first = grow ? 0 : h * half;
        if (h == 0 || rebuilt_pair) {
          std::copy_n(src.re() + src_first, half, dst.re() + dst_first);
          std::copy_n(src.im() + src_first, half, dst.im() + dst_first);
          continue;
        }
        // The high half crosses the wire, packed straight into each message
        // and unpacked straight out of it.
        const rank_t from = grow ? lo : lo + 1;
        const rank_t to = grow ? lo + 1 : lo;
        with_retry(lo, lo + 1, VirtualCluster::kAnyTag,
                   plan.messages_per_move, plan.bytes_per_move, nullptr,
                   [&](int) {
          for (amp_index first = 0; first < half; first += chunk) {
            const amp_index count = std::min(chunk, half - first);
            const std::size_t bytes = count * kBytesPerAmp;
            cluster_.send(from, to, bytes, VirtualCluster::kAnyTag,
                          [&](std::span<std::byte> b) {
                            src.pack(src_first + first, count, b.data());
                          });
            cluster_.recv(from, to, bytes, VirtualCluster::kAnyTag,
                          [&](std::span<const std::byte> b) {
                            dst.unpack(dst_first + first, count, b.data());
                          });
          }
        });
      }
    }
  } catch (...) {
    // A move faulted past the retry budget: the old slices are untouched,
    // so restoring the old membership leaves the engine as it was.
    cluster_.reset_queues();
    if (grow) {
      cluster_.resize_to(plan.old_ranks);
    }
    throw;
  }

  slices_ = std::move(next);
  local_qubits_ += grow ? -1 : 1;
  if (!grow) {
    cluster_.resize_to(plan.new_ranks);
  }
  return plan;
}

template <class S>
void DistStateVector<S>::apply_sweep_run(const Circuit& c, std::size_t first,
                                         std::size_t count) {
  // Every gate is ticked before any work, so a gate-indexed spec may fire
  // only at the first, where it would fire gate by gate too.
  QSV_REQUIRE(injector_ == nullptr ||
                  injector_->next_gate_fault(gates_applied_) -
                          gates_applied_ >= count,
              "a gate-indexed fault spec fires inside a sweep run");
  for (std::size_t i = 0; i < count; ++i) {
    tick_gate();
  }
  const Gate* gates = c.gates().data() + first;
  const int t = std::min(opts_.sweep.tile_qubits, local_qubits_);
  if (team_ == nullptr) {
    // One loop over every rank's tiles, so the team splits the whole
    // register even when a slice holds fewer tiles than it has threads.
    kern::apply_sweep_run(std::span<S>(slices_), 0, gates, count, t,
                          local_qubits_);
  } else {
    for_each_rank(num_ranks(), [&](int r) {
      kern::apply_sweep_run(
          std::span<S>(&slices_[static_cast<std::size_t>(r)], 1),
          static_cast<amp_index>(r), gates, count, t, local_qubits_);
    });
  }
  const ExecEvent se = sweep_event(gates[0].kind, count, local_qubits_, opts_);
  sweep_stats_.add_run(count, se.sweep_tiles);
  emit(se);

  // The per-gate events are unchanged versus gate-by-gate execution, so a
  // listening cost model charges exactly what a naive run would.
  for (std::size_t i = 0; i < count; ++i) {
    for_each_planned(gates[i], num_qubits_, local_qubits_, opts_,
                     [&](const Gate& leaf, const OpPlan& plan) {
      emit(gate_event(leaf.kind, plan, local_qubits_, opts_));
    });
  }
}

template <class S>
GateRun DistStateVector<S>::next_run(const Circuit& c, std::size_t first,
                                     std::size_t end) const {
  QSV_REQUIRE(first < end && end <= c.size(), "gate run out of range");
  if (injector_ != nullptr) {
    // Circuit gate first + k of a sweep run is engine gate
    // gates_applied_ + k.
    const std::uint64_t room =
        injector_->next_gate_fault(gates_applied_) - gates_applied_;
    end = first + static_cast<std::size_t>(
                      std::min<std::uint64_t>(room, end - first));
  }
  return next_sweep_run(c.gates(), first, end, local_qubits_, opts_.sweep);
}

template <class S>
void DistStateVector<S>::apply(const Circuit& c) {
  QSV_REQUIRE(c.num_qubits() == num_qubits_, "register size mismatch");
  for (std::size_t i = 0; i < c.size();) {
    const GateRun run = next_run(c, i, c.size());
    apply_run(c, run);
    i += run.count;
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
  // The readout's chain for the empty mask: every |a|^2 added in global
  // index order, one slice after another.
  const simd::KernelOps& ops = simd::ops();
  const amp_index no_signs = 0;
  real_t acc = 0;
  for (rank_t r = 0; r < num_ranks(); ++r) {
    ops.diag_sums(slices_[r].re(), slices_[r].im(), local_amps(),
                  static_cast<amp_index>(r) * local_amps(), &no_signs, 1,
                  &acc);
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
BasicStateVector<S> DistStateVector<S>::gather() const {
  BasicStateVector<S> sv(num_qubits_);
  for (amp_index g = 0; g < (amp_index{1} << num_qubits_); ++g) {
    sv.set_amplitude(g, amplitude(g));
  }
  return sv;
}

template class DistStateVector<SoaStorage>;

}  // namespace qsv
