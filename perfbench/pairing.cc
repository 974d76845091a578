#include "pairing.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <map>
#include <stdexcept>
#include <vector>

extern char** environ;

namespace perfbench {

namespace {

constexpr int kCommandFd = 3;
constexpr int kReplyFd = 4;

/// Read or write exactly `n` bytes; false on EOF or error.
bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

/// Move a close-on-exec descriptor above the ones the child's file actions
/// write, so no dup2 below maps a descriptor onto itself.
int above_child_fds(int fd) {
  const int moved = ::fcntl(fd, F_DUPFD_CLOEXEC, kReplyFd + 1);
  ::close(fd);
  return moved;
}

}  // namespace

Pairing::Pairing(const std::string& binary, const std::string& workload) {
  // A reference that dies must surface as an error here, not as SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  // Both processes run on the CPU this one is on (the reference inherits
  // the mask): neighbours load a shared host's cores unevenly, and a turn
  // only tracks the benchmark's host speed on the same core.
  const int cpu = ::sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)::sched_setaffinity(0, sizeof(one), &one);
  }
  int cmd[2], reply[2];
  if (::pipe2(cmd, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(reply, O_CLOEXEC) != 0) {
    ::close(cmd[0]);
    ::close(cmd[1]);
    throw std::runtime_error("pipe failed");
  }
  for (int* fd : {&cmd[0], &cmd[1], &reply[0], &reply[1]}) *fd = above_child_fds(*fd);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, cmd[0], kCommandFd);
  posix_spawn_file_actions_adddup2(&fa, reply[1], kReplyFd);
  // The benchmark's standard output carries its result line; anything the
  // reference prints goes to standard error instead.
  posix_spawn_file_actions_adddup2(&fa, STDERR_FILENO, STDOUT_FILENO);
  std::vector<std::string> args = {binary, "--serve-reference", workload};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(cmd[0]);
  ::close(reply[1]);
  to_ref_ = cmd[1];
  from_ref_ = reply[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(to_ref_);
    ::close(from_ref_);
    throw std::runtime_error("cannot start reference " + binary);
  }
  // Its first piece ran while this process waited; it pairs with ours.
  try {
    first_ = receive();
    ref_ = first_;
  } catch (...) {
    stop();
    throw;
  }
}

Pairing::~Pairing() { stop(); }

void Pairing::stop() {
  // Closing fd 3 ends the reference at its next turn boundary.
  if (to_ref_ >= 0) ::close(to_ref_);
  if (from_ref_ >= 0) ::close(from_ref_);
  to_ref_ = from_ref_ = -1;
  if (pid_ > 0) {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  pid_ = -1;
}

Piece Pairing::receive() {
  Piece p;
  if (!read_all(from_ref_, &p, sizeof(p)))
    throw std::runtime_error("reference process ended early");
  return p;
}

void Pairing::yield(const Piece& mine) {
  const char go = 1;
  if (!write_all(to_ref_, &go, 1))
    throw std::runtime_error("reference process ended early");
  const Piece p = receive();
  ref_.work += p.work;
  ref_.seconds += p.seconds;
  log_.emplace_back(mine, p);
}

void ReferenceTurns::yield(const Piece& mine) {
  char go = 0;
  if (!write_all(kReplyFd, &mine, sizeof(mine)) || !read_all(kCommandFd, &go, 1))
    ::_exit(0);  // the benchmark is done with us
}

double reference_nominal_rate(const std::string& workload) {
  // The reference's typical rate on a 4-vCPU Intel Xeon VM at 2.1 GHz
  // (g++ 12, RelWithDebInfo), rounded: simulated ms/s, simulated ms/s,
  // controller ops/s and simulated s/s. Only the scale of the reported
  // figures depends on these; their steadiness does not.
  static const std::map<std::string, double> kNominal = {
      {"packet_silo", 33.0},
      {"islands_tcp", 0.16},
      {"admission_churn", 1680.0},
      {"flow_locality", 55.0},
  };
  const auto it = kNominal.find(workload);
  return it == kNominal.end() ? 1.0 : it->second;
}

PairedSpeed paired_speed(const std::string& workload, const Piece& reference) {
  PairedSpeed s;
  if (reference.seconds > 0 && reference.work > 0)
    s.factor = reference.work / reference.seconds / reference_nominal_rate(workload);
  return s;
}

}  // namespace perfbench
