#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <future>

#include "common/error.hpp"
#include "common/log.hpp"
#include "serve/executor.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace qsv::serve {
namespace {

/// Per-request line cap in bytes: a connection is closed past this, the
/// one case where resynchronisation is impossible.
constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

/// Writes the whole buffer; MSG_NOSIGNAL so a client that hung up mid-reply
/// costs us an EPIPE, not a SIGPIPE. Returns false on any error.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_line(int fd, const std::string& line) {
  return send_all(fd, line + "\n");
}

}  // namespace

Server::Server(const MachineModel& machine, ServerOptions opts)
    : machine_(machine),
      opts_(std::move(opts)),
      cache_(opts_.plan_cache_capacity),
      admission_(machine_, opts_.limits, cache_),
      queue_(opts_.queue_capacity, opts_.limits.nodes) {}

Server::~Server() {
  if (started_.load()) {
    request_drain();
    wait_until_drained();
  }
  if (drain_pipe_[0] >= 0) {
    ::close(drain_pipe_[0]);
    ::close(drain_pipe_[1]);
  }
}

void Server::start() {
  QSV_REQUIRE(!started_.load(), "server already started");
  QSV_REQUIRE(!opts_.socket_path.empty() || opts_.tcp_port >= 0,
              "no listening endpoint configured");

  QSV_REQUIRE(::pipe(drain_pipe_) == 0, "cannot create drain pipe");

  if (!opts_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    QSV_REQUIRE(opts_.socket_path.size() < sizeof(addr.sun_path),
                "socket path too long for sockaddr_un: " + opts_.socket_path);
    std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    QSV_REQUIRE(unix_fd_ >= 0, "cannot create unix socket");
    ::unlink(opts_.socket_path.c_str());  // stale socket from a dead server
    QSV_REQUIRE(::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                "cannot bind " + opts_.socket_path + ": " +
                    std::strerror(errno));
    QSV_REQUIRE(::listen(unix_fd_, 64) == 0, "cannot listen on unix socket");
  }

  if (opts_.tcp_port > 0 || opts_.socket_path.empty()) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    QSV_REQUIRE(tcp_fd_ >= 0, "cannot create tcp socket");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(
        opts_.tcp_port > 0 ? opts_.tcp_port : 0));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local service only
    QSV_REQUIRE(::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                "cannot bind 127.0.0.1:" + std::to_string(opts_.tcp_port) +
                    ": " + std::strerror(errno));
    QSV_REQUIRE(::listen(tcp_fd_, 64) == 0, "cannot listen on tcp socket");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }

  started_.store(true);
  workers_.reserve(static_cast<std::size_t>(std::max(1, opts_.workers)));
  for (int w = 0; w < std::max(1, opts_.workers); ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (!draining_.load()) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {drain_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) {
      fds[n++] = {unix_fd_, POLLIN, 0};
    }
    if (tcp_fd_ >= 0) {
      fds[n++] = {tcp_fd_, POLLIN, 0};
    }
    const int r = ::poll(fds, n, -1);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (fds[0].revents != 0) {
      break;  // drain requested
    }
    for (nfds_t i = 1; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) {
        continue;
      }
      const int conn = ::accept(fds[i].fd, nullptr, nullptr);
      if (conn < 0) {
        continue;
      }
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (draining_.load()) {
        ::close(conn);
        break;
      }
      conn_fds_.push_back(conn);
      conn_threads_.emplace_back([this, conn] { handle_connection(conn); });
    }
  }
}

void Server::handle_connection(int fd) {
  std::string pending;
  char buf[4096];
  bool alive = true;
  while (alive) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;  // EOF or error (drain's shutdown() lands here)
    }
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while (alive && (nl = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      if (line.empty()) {
        continue;
      }
      metrics_.on_received();
      const std::string response = handle_line(line);
      if (!send_line(fd, response)) {
        alive = false;
      }
    }
    if (pending.size() > kMaxRequestBytes) {
      // A line this long cannot be resynchronised; answer once and close.
      metrics_.on_protocol_error();
      send_line(fd, make_error_response(
                        "", "protocol",
                        "request line exceeds " +
                            std::to_string(kMaxRequestBytes) +
                            " bytes"));
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::close(fd);
}

std::string Server::handle_line(const std::string& line) {
  JobRequest req;
  try {
    req = parse_request(line, kMaxRequestBytes);
  } catch (const ProtocolError& e) {
    metrics_.on_protocol_error();
    return make_error_response("", "protocol", e.what());
  }

  if (req.op == Op::kPing) {
    metrics_.on_ping();
    return make_pong_response(req.id);
  }
  if (req.op == Op::kStats) {
    metrics_.on_stats();
    const FleetSnapshot s = metrics_.snapshot();
    const PlanCacheStats cs = cache_.stats();
    JsonObject o;
    o["id"] = req.id;
    o["status"] = "stats";
    o["received"] = s.received;
    o["completed"] = s.completed;
    o["rejected"] = s.rejected;
    o["shed"] = s.shed;
    o["deadline"] = s.deadline_expired;
    o["failed"] = s.failed;
    o["protocol_errors"] = s.protocol_errors;
    o["parse_errors"] = s.parse_errors;
    o["priced"] = s.priced;
    o["p50_ms"] = s.p50_latency_s * 1e3;
    o["p99_ms"] = s.p99_latency_s * 1e3;
    o["energy_j"] = s.total_energy_j;
    o["joules_per_request"] = s.joules_per_request;
    o["peak_nodes_busy"] = s.peak_nodes_busy;
    o["queue_depth"] = static_cast<std::uint64_t>(queue_.depth());
    o["cache_hits"] = cs.hits;
    o["cache_misses"] = cs.misses;
    o["cache_transpiles"] = cs.transpiles;
    o["cache_entries"] = cs.entries;
    return Json(std::move(o)).dump();
  }

  // run / price both go through admission.
  AdmissionDecision d;
  try {
    d = admission_.decide(req);
  } catch (const Error& e) {
    // Malformed circuit text: typed parse error, isolated to this request.
    metrics_.on_parse_error();
    return make_error_response(req.id, "parse", e.what());
  }
  if (!d.admit) {
    metrics_.on_rejected();
    return make_rejected_response(req.id, d.reason);
  }

  if (req.op == Op::kPrice) {
    metrics_.on_priced();
    const RunReport& est = d.plan->estimate;
    JsonObject o;
    o["id"] = req.id;
    o["status"] = "ok";
    o["priced"] = true;
    o["gates"] = static_cast<std::uint64_t>(d.plan->circuit.size());
    o["ranks"] = d.ranks;
    o["runtime_s"] = est.runtime_s;
    o["energy_j"] = est.total_energy_j();
    o["cache"] = d.cache_hit ? "hit" : "miss";
    return Json(std::move(o)).dump();
  }

  // op == run: hand the job to the queue and wait for its settlement.
  auto job = std::make_unique<QueuedJob>();
  job->id = req.id;
  job->num_qubits = d.num_qubits;
  job->ranks = d.ranks;
  job->sheddable = req.sheddable;
  job->cache_hit = d.cache_hit;
  job->deadline_s = req.deadline_s;
  if (req.deadline_s > 0) {
    job->token = StopToken::after_seconds(req.deadline_s);
  }
  job->plan = d.plan;
  job->admitted_at = std::chrono::steady_clock::now();
  std::future<JobSettlement> settled = job->response.get_future();
  const auto admitted_at = job->admitted_at;

  metrics_.on_accepted();
  queue_.push(std::move(job));  // every path fulfils the promise

  const JobSettlement s = settled.get();
  const double latency_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    admitted_at)
          .count();
  switch (s.kind) {
    case JobSettlement::Kind::kOk:
      metrics_.on_completed(latency_s, s.energy_j);
      break;
    case JobSettlement::Kind::kDeadline:
      metrics_.on_deadline(s.energy_j);
      break;
    case JobSettlement::Kind::kShed:
      metrics_.on_shed();
      break;
    case JobSettlement::Kind::kRejected:
      metrics_.on_rejected();
      break;
    case JobSettlement::Kind::kError:
      metrics_.on_failed();
      break;
  }
  return s.line;
}

void Server::worker_loop() {
  while (std::unique_ptr<QueuedJob> job = queue_.pop_ready()) {
    metrics_.on_nodes_busy(queue_.nodes_busy());
    const double queue_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job->admitted_at)
            .count();
    ExecResult r = execute_job(*job, machine_, opts_.limits, queue_s);
    queue_.release(job->ranks);
    JobSettlement s;
    s.line = std::move(r.response_line);
    s.energy_j = r.energy_j;
    switch (r.status) {
      case ExecResult::Status::kOk:
        s.kind = JobSettlement::Kind::kOk;
        break;
      case ExecResult::Status::kDeadline:
        s.kind = JobSettlement::Kind::kDeadline;
        break;
      case ExecResult::Status::kError:
        s.kind = JobSettlement::Kind::kError;
        break;
    }
    job->response.set_value(std::move(s));
  }
}

void Server::request_drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    return;
  }
  if (drain_pipe_[1] >= 0) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n = ::write(drain_pipe_[1], &byte, 1);
  }
}

void Server::wait_until_drained() {
  if (!started_.load()) {
    return;
  }
  // Ordering matters: stop accepting, flush the queue (typed shed
  // responses), let workers finish in-flight jobs, then unblock any
  // connection reads and join them.
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  queue_.drain();
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  close_listeners();
  started_.store(false);
}

void Server::serve_until(int wake_fd) {
  if (!started_.load()) {
    start();
  }
  pollfd fds[2] = {{wake_fd, POLLIN, 0}, {drain_pipe_[0], POLLIN, 0}};
  while (!draining_.load()) {
    const int r = ::poll(fds, 2, -1);
    if (r < 0 && errno == EINTR) {
      continue;  // the signal handler wrote to wake_fd; next poll sees it
    }
    if (r > 0) {
      break;
    }
  }
  request_drain();
  wait_until_drained();
}

void Server::close_listeners() {
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
}

namespace {
int g_signal_pipe_write = -1;

extern "C" void qsv_serve_signal_handler(int) {
  // Async-signal-safe: one byte down the self-pipe, nothing else.
  if (g_signal_pipe_write >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n =
        ::write(g_signal_pipe_write, &byte, 1);
  }
}
}  // namespace

int make_signal_wake_fd() {
  int fds[2];
  QSV_REQUIRE(::pipe(fds) == 0, "cannot create signal pipe");
  g_signal_pipe_write = fds[1];
  struct sigaction sa{};
  sa.sa_handler = qsv_serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll() must wake
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  return fds[0];
}

}  // namespace qsv::serve
