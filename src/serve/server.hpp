// The `qsv serve` front end: a long-lived local server speaking
// newline-delimited JSON over a Unix-domain (or loopback TCP) socket.
//
// Architecture (docs/SERVING.md):
//   accept loop ── one thread per connection ── admission ── bounded queue
//        │                                                     │
//        └─ wake fd (SIGTERM/SIGINT self-pipe)        worker pool (node
//                                                     bin-packing, fault-
//                                                     isolated execution)
//
// Every request gets exactly one typed response; a hostile payload, an
// integrity abort inside a job, or an overloaded queue degrade that one
// request, never the server. Graceful drain: stop admitting, flush the
// queue with typed shed responses, finish in-flight jobs, report the fleet
// table, exit cleanly.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "machine/machine.hpp"
#include "perf/fleet.hpp"
#include "serve/admission.hpp"
#include "serve/plan_cache.hpp"
#include "serve/queue.hpp"

namespace qsv::serve {

struct ServerOptions {
  /// Unix-domain socket path (created on start, unlinked on stop). Must fit
  /// sockaddr_un (~100 bytes). Empty = TCP only.
  std::string socket_path;
  /// Loopback TCP port; 0 = Unix socket only. (127.0.0.1 — the service is
  /// local by design.)
  int tcp_port = 0;
  /// Worker threads executing admitted jobs concurrently.
  int workers = 2;
  /// Bounded queue capacity (jobs waiting, not running).
  std::size_t queue_capacity = 16;
  /// Transpiled-plan cache entries; 0 disables the cache.
  std::size_t plan_cache_capacity = 64;
  AdmissionLimits limits;
};

class Server {
 public:
  Server(const MachineModel& machine, ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the sockets and spawns the worker pool and accept thread.
  /// Throws qsv::Error when the socket cannot be bound.
  void start();

  /// Requests a graceful drain (thread-safe, idempotent, callable from any
  /// thread — but NOT from a signal handler; signal handlers should write
  /// to the fd from make_signal_wake_fd instead).
  void request_drain();

  /// Blocks until a requested drain completes: queue flushed, in-flight
  /// jobs finished, all threads joined, sockets closed.
  void wait_until_drained();

  /// Convenience for the CLI: start(), then block until `wake_fd` becomes
  /// readable (the SIGTERM/SIGINT self-pipe) or request_drain() is called,
  /// then drain and return.
  void serve_until(int wake_fd);

  /// Bound TCP port (after start(); meaningful when tcp_port was nonzero —
  /// 0 in opts picks an ephemeral port, readable here).
  [[nodiscard]] int bound_tcp_port() const { return bound_tcp_port_; }

  [[nodiscard]] FleetSnapshot fleet() const { return metrics_.snapshot(); }
  [[nodiscard]] PlanCacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] const ServerOptions& options() const { return opts_; }

 private:
  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);
  [[nodiscard]] std::string handle_line(const std::string& line);
  void close_listeners();

  const MachineModel& machine_;
  ServerOptions opts_;
  PlanCache cache_;
  AdmissionController admission_;
  JobQueue queue_;
  FleetMetrics metrics_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = 0;
  /// Self-pipe the accept loop polls so request_drain() can interrupt it.
  int drain_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
};

/// Installs SIGTERM/SIGINT handlers that write one byte to a self-pipe and
/// returns the read end — the only async-signal-safe way to request a
/// drain. Call once per process.
[[nodiscard]] int make_signal_wake_fd();

}  // namespace qsv::serve
