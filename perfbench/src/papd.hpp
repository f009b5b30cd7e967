// papd as a child process: spawn on a unix socket, wait for the first ping
// reply, read its stats and peak RSS, stop it and reap it.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "serve/client.hpp"

namespace bench {

/// The daemon shape every serve workload runs: two handler workers, one
/// reactor, so daemon plus a two-thread generator fit four cores.
inline const std::vector<std::string>& papd_flags() {
  static const std::vector<std::string> kFlags{"--workers", "2", "--reactors",
                                               "1"};
  return kFlags;
}

class Papd {
 public:
  /// Starts `binary` on `socket_path` and blocks until a ping round trip
  /// succeeds (BenchError after 20 s).
  Papd(const std::string& binary, const std::string& socket_path);
  ~Papd();
  Papd(const Papd&) = delete;
  Papd& operator=(const Papd&) = delete;

  const std::string& socket() const { return socket_; }
  pap::serve::Client connect() const;

  /// `stats` endpoint payload (the reply's result object).
  std::string stats() const;

  /// VmHWM of the daemon in MiB.
  double peak_rss_mb() const;

  /// SIGTERM, wait for the drain (SIGKILL after 10 s), reap. Idempotent.
  void stop();

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// VmHWM (peak resident set) of a process, MiB; "self" for this one.
double vm_hwm_mb(const std::string& pid);

}  // namespace bench
