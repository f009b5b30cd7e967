// papd network front-end: listeners + an epoll reactor fleet in front of
// an AnalysisService.
//
// The server accepts connections on a Unix-domain socket and/or a local
// TCP port, frames the byte stream into newline-delimited request lines,
// and feeds each line to the service. Connections are *not* one thread
// each: one blocking acceptor thread per listener hands accepted sockets
// (switched to nonblocking) round-robin to a small fleet of reactor
// threads, each running an epoll event loop over its share of the
// connections. Thread count is fixed at acceptors + reactors + service
// workers no matter how many clients connect — the thread-per-connection
// design this replaced fell over around ~10k sockets, and leaked one
// joinable thread handle per connection ever accepted on top.
//
// Each connection owns a read buffer (the partial line accumulated across
// recv()s, with the oversized-line discard: a line past the parse limit
// costs one parse_error reply and the rest of the line is dropped, not
// buffered) and an outbound buffer. Every reply is appended to the
// connection's outbound buffer under a short lock. Replies produced inline
// on the reactor thread (cache hits, parse errors, overload) are batched
// per readable event: they only queue while the reactor ingests the bytes
// it read, and the reactor pushes the whole batch with one nonblocking
// send after its recv rounds (and before parking a connection at EOF), so
// a pipelined client gets its replies in one write instead of one each.
// Replies computed on a worker are sent at once from the worker thread.
// Nothing, on any thread, ever sleeps waiting for a socket to accept
// bytes. When the kernel buffer is full the leftover stays queued and the
// connection's reactor finishes the flush on EPOLLOUT. A peer that accepts
// no bytes for `write_stall`, or lets its outbound buffer grow past a hard
// cap, is disconnected outright — never left open with a silently dropped
// reply, which would permanently desync a pipelined client's request/reply
// matching. A slow client therefore costs its reactor nothing but a
// bounded buffer, and its own connection at worst.
//
// Graceful stop (`stop`, the SIGTERM path in tools/papd.cpp):
//   1. listeners close and acceptors join — new connections are refused
//      by the OS;
//   2. live connections get shutdown(SHUT_RD) — readers see EOF and stop
//      producing work, but the write side stays open;
//   3. the service drains: every already-accepted request completes and
//      its reply is flushed to the client;
//   4. reactor threads join and sockets close (a reply closure still in
//      flight keeps its connection's socket alive until delivered).
// `stop` returns true when the drain finished inside the configured
// deadline, false when workers had to be abandoned.
#pragma once

#include <atomic>
#include <chrono>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "serve/service.hpp"

namespace pap::serve {

struct ServerConfig {
  std::string unix_path;              ///< empty = no Unix listener
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;                  ///< -1 = no TCP listener; 0 = ephemeral
  int reactors = 2;                   ///< epoll event-loop threads (>= 1)
  ServiceConfig service;
  std::chrono::milliseconds drain_deadline{5000};
  /// A connection whose outbound buffer makes no progress for this long
  /// (peer stopped reading) is disconnected.
  std::chrono::milliseconds write_stall{5000};
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on the configured endpoints, start the reactor fleet
  /// and the acceptors. Requires at least one endpoint; a tcp_port
  /// outside 0..65535 is a named error, never a silent uint16 truncation.
  /// On any failure every listener already bound is unwound (fds closed,
  /// the Unix socket file unlinked) — a failed start leaves nothing
  /// behind.
  Status start();

  /// The actually bound TCP port (useful with tcp_port = 0), or -1.
  int tcp_port() const { return bound_tcp_port_; }

  /// Graceful stop; see file comment. Idempotent. True = fully drained.
  bool stop();

  AnalysisService& service() { return service_; }
  const ServerConfig& config() const { return config_; }

 private:
  struct Conn;     // shared by its reactor and in-flight reply closures
  class Reactor;   // one epoll event loop; defined in server.cpp

  void accept_loop(int listen_fd);
  /// Read-side byte intake for one connection: line framing, oversized
  /// discard, submit. Runs on the connection's reactor thread only.
  void ingest(const std::shared_ptr<Conn>& conn, const char* buf,
              std::size_t len);
  /// Queue one reply on the connection and push what the socket will take
  /// right now; never blocks. Callable from any thread. An inline reply for
  /// the connection this reactor is ingesting only queues; the reactor
  /// flushes the batch after its recv rounds.
  void deliver(const std::shared_ptr<Conn>& conn, const std::string& reply);
  /// Close every bound listener (+ unlink the Unix socket file) and stop
  /// any reactors already running; returns `why` for tail-calling out of
  /// a partially failed start().
  Status unwind_start(Status why);

  ServerConfig config_;
  AnalysisService service_;

  std::vector<int> listen_fds_;
  std::vector<std::thread> acceptors_;
  // shared_ptr: a reply closure finishing after stop() may still need to
  // nudge its connection's reactor; weak_ptr in the Conn keeps that safe.
  std::vector<std::shared_ptr<Reactor>> reactors_;
  std::atomic<std::size_t> next_reactor_{0};  // round-robin assignment
  int bound_tcp_port_ = -1;
  bool unix_bound_ = false;

  std::mutex conns_mu_;
  std::list<std::weak_ptr<Conn>> conns_;      // live connections (pruned lazily)
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
};

}  // namespace pap::serve
