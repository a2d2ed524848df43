// The deployment byte-stream backend: nonblocking POSIX sockets, TCP
// (loopback or across machines) and Unix-domain (same-host shard daemons).
//
// Everything speaks the ByteStream/Listener interfaces from
// transport/byte_stream.h, so the protocol and collector code cannot tell a
// socket from a loopback pipe. Failure surface:
//   * listen_on/connect_to report unusable endpoints by throwing
//     std::system_error (bad path, refused connection, sandboxed bind);
//   * once connected, errors degrade to closed() — exactly how the peer
//     dying mid-stream looks — and the client's reconnect logic takes over.
//
// wait_for_io is the tier's one readiness wait: the agent loop, the query
// reply loops and the daemon block in it instead of sleeping, so a frame
// wakes its reader as soon as it lands.
#pragma once

#include <poll.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "timebase/time.h"
#include "transport/byte_stream.h"

namespace rlir::transport {

/// A TCP or Unix-domain endpoint.
struct SocketAddress {
  enum class Kind : std::uint8_t { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  /// kTcp: dotted-quad host. Only numeric addresses — name resolution is a
  /// deployment concern the transport tier stays out of.
  std::string host = "127.0.0.1";
  /// kTcp: port; 0 asks the kernel for an ephemeral port (see
  /// SocketListener::address() for what was bound).
  std::uint16_t port = 0;
  /// kUnix: filesystem path of the socket.
  std::string path;

  [[nodiscard]] static SocketAddress tcp(std::string host, std::uint16_t port);
  [[nodiscard]] static SocketAddress unix_path(std::string path);

  /// Parses "tcp:HOST:PORT" or "unix:PATH" (the daemon/example CLI syntax).
  /// Throws std::invalid_argument on anything else.
  [[nodiscard]] static SocketAddress parse(const std::string& text);

  /// The CLI syntax back ("tcp:127.0.0.1:9000", "unix:/tmp/rlir.sock").
  [[nodiscard]] std::string to_string() const;
};

class SocketListener final : public Listener {
 public:
  /// Binds + listens, nonblocking. Throws std::system_error on failure. A
  /// stale Unix socket path is unlinked first (daemon restart ergonomics).
  explicit SocketListener(const SocketAddress& address);
  ~SocketListener() override;

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// The next pending connection as a nonblocking stream, or nullptr when
  /// none is waiting.
  [[nodiscard]] std::unique_ptr<ByteStream> accept() override;

  /// The bound address — with the kernel-assigned port filled in when the
  /// caller asked for port 0.
  [[nodiscard]] const SocketAddress& address() const { return address_; }

  /// The listening socket: readable while a connection is pending.
  [[nodiscard]] int native_handle() const override { return fd_; }

 private:
  SocketAddress address_;
  int fd_ = -1;
};

/// Connects to a listening agent; returns the nonblocking stream, or nullptr
/// when the endpoint exists but refuses/times out (the retryable case — what
/// the client's reconnect backoff consumes). Throws std::system_error only
/// for non-retryable local failures (e.g. socket() itself failing).
[[nodiscard]] std::unique_ptr<ByteStream> connect_to(const SocketAddress& address);

/// Blocks until one of `fds` is ready for the events it asks for (errors and
/// hangups always count), or `timeout` passes, whichever comes first.
/// Negative fds are skipped; with no usable fd it is a plain sleep of
/// `timeout`, so fd-less backends (loopback pipes) keep a timed poll period.
/// A signal may end the wait early, so callers re-check their condition.
/// Returns the number of ready entries (0 after a timeout or a sleep).
int wait_for_io(std::span<pollfd> fds, timebase::Duration timeout);

}  // namespace rlir::transport
