//===- api/SocketServer.h - Line-protocol TCP front end ---------*- C++ -*-===//
///
/// \file
/// Serves the JSON line protocol (api/Serialize.h) over TCP: one
/// connection per client, one request per line, responses written as they
/// complete (a pipelined client may receive them out of submission order;
/// the echoed id is the correlation). Requests are answered through a
/// SimService, so admission control, caching and worker scheduling live
/// there; this layer owns only accept/read/write and the server-level
/// `ping`, `apps` and `stats` methods. A cache hit is answered on the
/// connection's own thread, inside SimService::submit(). A request line
/// longer than LineReader::MaxLineBytes gets one error line, and the
/// connection is closed.
///
/// Shutdown is graceful by construction: requestStop() is
/// async-signal-safe (a self-pipe write), the accept loop stops taking new
/// connections, open connections are woken with shutdown(SHUT_RD), and
/// every admitted request is answered and flushed before run() returns.
/// A client that half-closes its sending side still receives all its
/// pending responses.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_SOCKETSERVER_H
#define OFFCHIP_API_SOCKETSERVER_H

#include "api/Service.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace offchip {

struct ServerOptions {
  std::string Host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port().
  unsigned Port = 0;
};

class SocketServer {
public:
  SocketServer(SimService &Service, ServerOptions Opts = {});
  ~SocketServer();

  SocketServer(const SocketServer &) = delete;
  SocketServer &operator=(const SocketServer &) = delete;

  /// Binds and listens. Returns false with a diagnostic in \p Err on
  /// failure — in particular a clear "already in use" message when another
  /// process holds the port.
  bool start(std::string *Err);

  /// The bound port (after start()); useful with Port == 0.
  unsigned port() const { return BoundPort; }

  /// Accepts and serves until requestStop(); drains all in-flight work
  /// before returning.
  void run();

  /// Async-signal-safe stop request (callable from a SIGINT/SIGTERM
  /// handler).
  void requestStop();

  struct Counters {
    std::uint64_t Connections = 0;
    std::uint64_t Requests = 0;
    std::uint64_t ParseErrors = 0;
  };
  Counters counters() const;

private:
  struct Connection;

  void serveConnection(const std::shared_ptr<Connection> &Conn);
  void handleLine(const std::shared_ptr<Connection> &Conn,
                  const std::string &Line);
  void reapConnections(bool Join);

  SimService &Service;
  const ServerOptions Opts;
  int ListenFd = -1;
  int StopPipe[2] = {-1, -1};
  unsigned BoundPort = 0;

  std::mutex ConnMu;
  std::vector<std::shared_ptr<Connection>> Conns;

  std::atomic<std::uint64_t> NumConnections{0};
  std::atomic<std::uint64_t> NumRequests{0};
  std::atomic<std::uint64_t> NumParseErrors{0};
};

} // namespace offchip

#endif // OFFCHIP_API_SOCKETSERVER_H
