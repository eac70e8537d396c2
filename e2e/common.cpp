#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "e2e.hpp"

namespace qsv::e2e {

// --- result ---------------------------------------------------------------

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "e2e: FAILED: " << what << "\n";
  }
}

void Result::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

serve::Json Result::line() const {
  serve::JsonObject metrics;
  for (const Metric& m : metrics_) {
    serve::JsonObject v;
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[m.name] = serve::Json(std::move(v));
  }
  serve::JsonObject o;
  o["correct"] = correct();
  o["attempted"] = attempted_;
  o["failed"] = failed_;
  o["metrics"] = serve::Json(std::move(metrics));
  return serve::Json(std::move(o));
}

// --- statistics -----------------------------------------------------------

double median(std::vector<double> v) {
  QSV_REQUIRE(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double tail(std::vector<double> v) {
  if (v.size() < 21) {
    return median(std::move(v));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];  // ten samples lie beyond it
}

std::array<double, 3> quartiles(std::vector<double> v) {
  QSV_REQUIRE(!v.empty(), "quartiles of no samples");
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  if (ld == 1) {
    return {v[0], v[0], v[0]};
  }
  // statistics.quantiles' default 'exclusive' method, n = 4.
  std::array<double, 3> q{};
  const long m = ld + 1;
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4;
  }
  return q;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// --- spans ----------------------------------------------------------------

int Tracer::open(std::string name, std::string id) {
  Span s;
  s.name = std::move(name);
  s.id = std::move(id);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = seconds_since(t0_);
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double Tracer::close(int index, std::string rename) {
  QSV_REQUIRE(!open_.empty() && open_.back() == index,
              "spans must close innermost first");
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_s = seconds_since(t0_);
  if (!rename.empty()) {
    s.name = std::move(rename);
  }
  return s.seconds();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(s.seconds());
    }
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  serve::JsonArray events;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    serve::JsonObject args;
    args["id"] = s.id;
    args["parent"] = s.parent;
    args["index"] = static_cast<std::uint64_t>(i);
    serve::JsonObject e;
    e["name"] = s.name;
    e["ph"] = "X";
    e["ts"] = s.start_s * 1e6;
    e["dur"] = s.seconds() * 1e6;
    e["pid"] = 1;
    e["tid"] = 1;
    e["args"] = serve::Json(std::move(args));
    events.emplace_back(std::move(e));
  }
  serve::JsonObject doc;
  doc["traceEvents"] = serve::Json(std::move(events));
  std::ofstream out(path);
  out << serve::Json(std::move(doc)).dump() << "\n";
  QSV_REQUIRE(out.good(), "cannot write spans to " + path);
}

// --- processes ------------------------------------------------------------

Child::Child(const std::vector<std::string>& argv, bool capture_stdout) {
  QSV_REQUIRE(!argv.empty(), "empty child command");
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  int fds[2] = {-1, -1};
  if (capture_stdout) {
    QSV_REQUIRE(::pipe2(fds, O_CLOEXEC) == 0, "cannot create a pipe");
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  const int rc =
      ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (capture_stdout) {
    ::close(fds[1]);
    out_fd_ = fds[0];
  }
  if (rc != 0) {
    pid_ = -1;
    throw Error("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  }
}

Child::~Child() {
  if (out_fd_ >= 0) {
    ::close(out_fd_);
  }
  if (pid_ <= 0) {
    return;
  }
  ::kill(pid_, SIGTERM);
  for (int i = 0; i < 1000 && running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (running()) {
    ::kill(pid_, SIGKILL);
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

std::string Child::read_all() {
  QSV_REQUIRE(out_fd_ >= 0, "child output is not captured");
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

bool Child::running() {
  if (pid_ <= 0) {
    return false;
  }
  siginfo_t info{};
  // WNOWAIT leaves an exited child reapable, so wait() still gets its
  // resource usage.
  if (::waitid(P_PID, static_cast<id_t>(pid_), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0) {
    return false;
  }
  return info.si_pid == 0;
}

void Child::terminate() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
  }
}

Child::Exit Child::wait() {
  QSV_REQUIRE(pid_ > 0, "child already reaped");
  int status = 0;
  rusage ru{};
  while (::wait4(pid_, &status, 0, &ru) < 0) {
    QSV_REQUIRE(errno == EINTR, "wait4 failed");
  }
  pid_ = -1;
  Exit e;
  e.code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  e.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return e;
}

ChildRun run_child(const std::vector<std::string>& argv) {
  ChildRun r;
  const auto t0 = Clock::now();
  Child child(argv, /*capture_stdout=*/true);
  r.out = child.read_all();
  r.exit = child.wait();
  r.wall_s = seconds_since(t0);
  return r;
}

LineClient::LineClient(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  QSV_REQUIRE(socket_path.size() < sizeof(addr.sun_path),
              "socket path too long: " + socket_path);
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::string LineClient::rpc(const std::string& line) {
  const std::string framed = line + "\n";
  for (std::size_t off = 0; off < framed.size();) {
    const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return {};
    }
    off += static_cast<std::size_t>(n);
  }
  for (;;) {
    const std::size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      std::string out = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return out;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return {};
    }
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

std::unique_ptr<Child> start_server(const std::string& socket) {
  auto server = std::make_unique<Child>(
      std::vector<std::string>{QSV_E2E_QSV_BINARY, "serve", "--socket",
                               socket, "--workers", "2", "--queue", "16",
                               "--cache", "64"},
      /*capture_stdout=*/false);
  const auto t0 = Clock::now();
  while (server->running() && seconds_since(t0) < 30) {
    LineClient client(socket);
    if (!client.ok()) {
      // Short polls: spawn to pong takes about 1.5 ms.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    try {
      const serve::Json j =
          serve::parse_json(client.rpc(R"({"op":"ping","id":"ready"})"));
      const serve::Json* status = j.find("status");
      if (status != nullptr && status->as_string() == "pong") {
        return server;
      }
    } catch (const serve::ProtocolError&) {
    }
    break;  // connected, but no pong
  }
  throw Error("qsv serve did not answer a ping on " + socket);
}

std::vector<std::unique_ptr<LineClient>> connect_clients(
    const std::string& socket) {
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int k = 0; k < kServeClients; ++k) {
    clients.push_back(std::make_unique<LineClient>(socket));
    QSV_REQUIRE(clients.back()->ok(), "cannot connect to " + socket);
  }
  return clients;
}

// --- oracle ---------------------------------------------------------------

std::string state_digest(const DistStateVector<SoaStorage>& sv) {
  Crc32 crc;
  for (amp_index g = 0; g < (amp_index{1} << sv.num_qubits()); ++g) {
    const cplx a = sv.amplitude(g);
    const double re = a.real();
    const double im = a.imag();
    crc.update(&re, sizeof re);
    crc.update(&im, sizeof im);
  }
  char digest[16];
  std::snprintf(digest, sizeof digest, "%08x", crc.value());
  return digest;
}

Reference reference(const Circuit& c) {
  Reference ref;
  BasicStateVector<SoaStorage> basic(c.num_qubits());
  basic.apply(c);
  DistStateVector<SoaStorage> sv(c.num_qubits(), 1);
  sv.apply(c);
  ref.digest = state_digest(sv);
  ref.max_amp_diff = sv.gather().max_amp_diff(basic);
  return ref;
}

}  // namespace qsv::e2e
