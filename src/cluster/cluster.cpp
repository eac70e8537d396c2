#include "cluster/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "cluster/faults.hpp"
#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qsv {

VirtualCluster::VirtualCluster(int num_ranks, std::size_t max_message_bytes,
                               double recv_deadline_s)
    : num_ranks_(num_ranks),
      max_message_bytes_(max_message_bytes),
      recv_deadline_s_(recv_deadline_s) {
  QSV_REQUIRE(num_ranks >= 1, "need at least one rank");
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(num_ranks)),
              "QuEST-style decomposition requires a power-of-two rank count");
  QSV_REQUIRE(max_message_bytes >= kBytesPerAmp,
              "message cap below one amplitude");
  QSV_REQUIRE(recv_deadline_s > 0, "watchdog deadline must be positive");
}

void VirtualCluster::check_rank(rank_t r) const {
  QSV_REQUIRE(r >= 0 && r < num_ranks_,
              "rank out of range: " + std::to_string(r) + " (cluster has " +
                  std::to_string(num_ranks_) + " ranks)");
}

void VirtualCluster::check_alive(rank_t from, rank_t to) const {
  if (injector_ == nullptr) {
    return;
  }
  for (rank_t r : {from, to}) {
    if (injector_->rank_dead(r)) {
      throw NodeFailure("rank " + std::to_string(r) +
                            " is down (message " + std::to_string(from) +
                            " -> " + std::to_string(to) + ")",
                        r, injector_->current_gate());
    }
  }
}

void VirtualCluster::enable_concurrent() {
  std::lock_guard<std::mutex> lk(m_);
  QSV_REQUIRE(in_flight_ == 0,
              "enable_concurrent requires a quiescent cluster");
  concurrent_ = true;
}

void VirtualCluster::send(rank_t from, rank_t to,
                          std::span<const std::byte> payload, int tag) {
  send(from, to, payload.size(), tag, [&](std::span<std::byte> b) {
    parallel_copy(b.size() / kBytesPerAmp,
                  {{b.data(), payload.data(), b.size()}});
  });
}

void VirtualCluster::recv(rank_t from, rank_t to, std::span<std::byte> out,
                          int tag) {
  recv(from, to, out.size(), tag, [&](std::span<const std::byte> b) {
    parallel_copy(b.size() / kBytesPerAmp, {{out.data(), b.data(), b.size()}});
  });
}

void VirtualCluster::recycle(std::deque<Message>& queue) {
  for (Message& m : queue) {
    free_.push_back(std::move(m.data));
  }
}

void VirtualCluster::send(rank_t from, rank_t to, std::size_t bytes, int tag,
                          const Fill& fill) {
  check_rank(from);
  check_rank(to);
  QSV_REQUIRE(from != to, "self-send is not a message (rank " +
                              std::to_string(from) + ")");
  QSV_REQUIRE(bytes <= max_message_bytes_,
              "message " + std::to_string(from) + " -> " +
                  std::to_string(to) + " of " + std::to_string(bytes) +
                  " bytes exceeds the MPI size cap of " +
                  std::to_string(max_message_bytes_) +
                  " bytes; chunk the payload");
  check_alive(from, to);

  bool deliver = true;
  bool corrupt_in_flight = false;
  if (injector_ != nullptr) {
    // The injector is internally synchronised; consulting it outside the
    // transport lock keeps verdict draws off the mailbox critical path.
    const FaultInjector::MessageOutcome out =
        injector_->on_message(from, to, recv_deadline_s_);
    switch (out.verdict) {
      case FaultInjector::Verdict::kDrop:
        deliver = false;  // never enqueued: the matching recv times out
        break;
      case FaultInjector::Verdict::kCorrupt:
        corrupt_in_flight = true;  // bookkeeping only; detection is the CRC
        break;
      case FaultInjector::Verdict::kDelay:
        if (out.past_deadline) {
          // The straggler lands after the receiver's watchdog gives up:
          // never consumed, so the matching recv must time out.
          deliver = false;
        }
        break;  // in-deadline latency is an accounting matter
      case FaultInjector::Verdict::kDeliver:
        break;
    }
  }

  // The fill and the checksum are the expensive part of a send; they happen
  // outside the lock so concurrent senders overlap. The checksum covers the
  // bytes the sender wrote, *before* any in-flight corruption: that is what
  // makes detection end-to-end.
  Message msg{{}, bytes, 0, tag};
  if (deliver) {
    {
      std::lock_guard<std::mutex> lk(m_);
      if (!free_.empty()) {
        msg.data = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (msg.data.size() < bytes) {
      msg.data = Bytes(bytes);  // first use at this size, unwritten
    }
    const std::span<std::byte> payload{msg.data.data(), bytes};
    fill(payload);
    msg.crc = crc32(payload.data(), payload.size());
    if (corrupt_in_flight && bytes > 0) {
      payload[bytes / 2] ^= std::byte{0x01};  // single bit flip
    }
  }

  std::lock_guard<std::mutex> lk(m_);
  // The wire carries the message whether or not it arrives: dropped and
  // corrupted sends are real traffic (and get re-sent by the retry layer).
  ++stats_.messages;
  stats_.bytes += bytes;
  stats_.max_message_bytes =
      std::max<std::uint64_t>(stats_.max_message_bytes, bytes);
  if (!deliver) {
    return;
  }
  queues_[{from, to}].push_back(std::move(msg));
  ++in_flight_;
  stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
  if (concurrent_) {
    cv_recv_.notify_all();
  }
}

void VirtualCluster::recv(rank_t from, rank_t to, std::size_t bytes, int tag,
                          const Drain& drain) {
  const MessageView view = recv_view(from, to, bytes, tag);
  drain(view.bytes());
}

VirtualCluster::MessageView VirtualCluster::recv_view(rank_t from, rank_t to,
                                                      std::size_t bytes,
                                                      int tag) {
  check_rank(from);
  check_rank(to);
  check_alive(from, to);
  Message msg;
  {
    std::unique_lock<std::mutex> lk(m_);
    // MPI tag matching: a wildcard request takes the oldest message; a
    // tagged request takes the oldest message carrying that tag, leaving
    // out-of-order arrivals (chunk k+1 before chunk k) queued for their own
    // receives. Iterators are re-found under the lock on every predicate
    // run — a concurrent recv/purge may have reshaped the deque.
    std::deque<Message>::iterator m;
    const auto queued = [&] {
      const auto it = queues_.find({from, to});
      if (it == queues_.end()) {
        return false;
      }
      for (auto mi = it->second.begin(); mi != it->second.end(); ++mi) {
        if (tag == kAnyTag || mi->tag == tag) {
          m = mi;
          return true;
        }
      }
      return false;
    };
    if (concurrent_ && !queued()) {
      // Blocking mailbox receive: the sender thread may simply not have
      // arrived yet. The watchdog deadline turns a genuinely missing
      // message (dropped, or the sender died) into the same CommTimeout
      // the serial transport throws immediately.
      cv_recv_.wait_for(lk, std::chrono::duration<double>(recv_deadline_s_),
                        queued);
    }
    if (!queued()) {
      throw CommTimeout("recv " + std::to_string(from) + " -> " +
                        std::to_string(to) +
                        (tag == kAnyTag ? std::string{}
                                        : " (tag " + std::to_string(tag) +
                                              ")") +
                        " timed out: no matching message queued after the " +
                        std::to_string(recv_deadline_s_) +
                        " s watchdog deadline (queue depth 0, message cap " +
                        std::to_string(max_message_bytes_) + " bytes)");
    }
    const auto it = queues_.find({from, to});
    if (m->size != bytes) {
      const std::string detail =
          "recv " + std::to_string(from) + " -> " + std::to_string(to) +
          ": buffer of " + std::to_string(bytes) +
          " bytes does not match the queued message of " +
          std::to_string(m->size) + " bytes (queue depth " +
          std::to_string(it->second.size()) + ", message cap " +
          std::to_string(max_message_bytes_) + " bytes)";
      QSV_REQUIRE(false, detail);
    }
    msg = std::move(*m);
    it->second.erase(m);
    --in_flight_;
    if (it->second.empty()) {
      queues_.erase(it);
    }
  }
  // End-to-end verification: recompute the checksum over what actually
  // arrived and compare against what the sender computed, before the
  // payload goes anywhere. No injector state is consulted here. The CRC
  // runs outside the lock.
  const std::uint32_t got_crc = crc32(msg.data.data(), msg.size);
  std::lock_guard<std::mutex> lk(m_);
  if (got_crc != msg.crc) {
    free_.push_back(std::move(msg.data));
    ++stats_.checksum_failures;
    throw CommCorrupt("recv " + std::to_string(from) + " -> " +
                      std::to_string(to) + ": payload CRC-32 mismatch (sent " +
                      std::to_string(msg.crc) + ", received " +
                      std::to_string(got_crc) + ")");
  }
  ++stats_.delivered;
  ++held_;
  return MessageView(this, std::move(msg.data), msg.size);
}

void VirtualCluster::give_back(Bytes data) {
  std::lock_guard<std::mutex> lk(m_);
  free_.push_back(std::move(data));
  --held_;
}

std::size_t VirtualCluster::pending(rank_t from, rank_t to) const {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = queues_.find({from, to});
  return it == queues_.end() ? 0 : it->second.size();
}

void VirtualCluster::purge_pair(rank_t a, rank_t b) {
  std::lock_guard<std::mutex> lk(m_);
  for (const auto& key : {std::pair<rank_t, rank_t>{a, b},
                          std::pair<rank_t, rank_t>{b, a}}) {
    const auto it = queues_.find(key);
    if (it != queues_.end()) {
      in_flight_ -= it->second.size();
      recycle(it->second);
      queues_.erase(it);
    }
  }
}

void VirtualCluster::purge_tag(rank_t a, rank_t b, int tag) {
  std::lock_guard<std::mutex> lk(m_);
  for (const auto& key : {std::pair<rank_t, rank_t>{a, b},
                          std::pair<rank_t, rank_t>{b, a}}) {
    const auto it = queues_.find(key);
    if (it == queues_.end()) {
      continue;
    }
    auto& q = it->second;
    for (auto m = q.begin(); m != q.end();) {
      if (m->tag == tag) {
        free_.push_back(std::move(m->data));
        m = q.erase(m);
        --in_flight_;
      } else {
        ++m;
      }
    }
    if (q.empty()) {
      queues_.erase(it);
    }
  }
}

void VirtualCluster::purge_rank(rank_t rank) {
  check_rank(rank);
  std::lock_guard<std::mutex> lk(m_);
  for (auto it = queues_.begin(); it != queues_.end();) {
    if (it->first.first == rank || it->first.second == rank) {
      in_flight_ -= it->second.size();
      recycle(it->second);
      it = queues_.erase(it);
    } else {
      ++it;
    }
  }
}

void VirtualCluster::resize_to(int new_num_ranks) {
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(new_num_ranks)),
              "QuEST-style decomposition requires a power-of-two rank count");
  QSV_REQUIRE(new_num_ranks != num_ranks_,
              "resize_to must change the rank count (have " +
                  std::to_string(num_ranks_) + ")");
  std::lock_guard<std::mutex> lk(m_);
  QSV_REQUIRE(in_flight_ == 0,
              "resize_to requires a quiescent cluster: " +
                  std::to_string(in_flight_) + " messages still in flight");
  num_ranks_ = new_num_ranks;
}

void VirtualCluster::reset_queues() {
  std::lock_guard<std::mutex> lk(m_);
  for (auto& [key, queue] : queues_) {
    recycle(queue);
  }
  queues_.clear();
  in_flight_ = 0;
}

bool VirtualCluster::quiescent() const {
  std::lock_guard<std::mutex> lk(m_);
  return in_flight_ == 0 && held_ == 0;
}

}  // namespace qsv
