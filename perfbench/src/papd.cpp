#include "papd.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common.hpp"

namespace bench {

Papd::Papd(const std::string& binary, const std::string& socket_path)
    : socket_(socket_path) {
  ::unlink(socket_.c_str());
  std::vector<std::string> args{binary, "--unix", socket_};
  for (const auto& f : papd_flags()) args.push_back(f);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) fail("fork failed");
  if (pid_ == 0) {
    // Never outlive the harness, even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // The daemon's banner goes nowhere: only the result line and the report
    // belong on the benchmark's stdout.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }

  const auto t0 = Clock::now();
  for (;;) {
    auto client = pap::serve::Client::connect_unix(socket_);
    if (client) {
      auto reply = client.value().call("{\"id\":0,\"op\":\"ping\"}");
      if (reply && reply.value().find("\"ok\":true") != std::string::npos) {
        return;
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      fail("papd exited during start-up (" + binary + ")");
    }
    if (seconds_since(t0) > 20.0) {
      stop();
      fail("papd did not answer ping within 20 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Papd::~Papd() { stop(); }

pap::serve::Client Papd::connect() const {
  auto client = pap::serve::Client::connect_unix(socket_);
  if (!client) fail("connect " + socket_ + ": " + client.error_message());
  return std::move(client.value());
}

std::string Papd::stats() const {
  auto client = connect();
  auto reply = client.call("{\"id\":1,\"op\":\"stats\"}");
  if (!reply) fail("stats: " + reply.error_message());
  const std::string& line = reply.value();
  const auto at = line.find("\"result\":");
  if (at == std::string::npos) fail("stats reply without result: " + line);
  return line.substr(at + 9, line.size() - at - 10);
}

double Papd::peak_rss_mb() const { return vm_hwm_mb(std::to_string(pid_)); }

void Papd::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (seconds_since(t0) > 10.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
}

double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    std::getline(in, key);
  }
  fail("no VmHWM for pid " + pid);
}

}  // namespace bench
