// TCP socket transport: length-prefixed, correlation-id-tagged frames served
// by one epoll reactor thread per listening endpoint.
//
// Handlers run on the reactor and must not block. A handler whose method
// can block (disk I/O, a condvar wait) declares it through
// ServiceHandler::MayBlock; only those requests go to a dispatch pool,
// created the first time one arrives. Whichever thread completes a request
// writes its response straight to the socket, so responses leave in
// completion order and a held call (e.g. a parked AwaitPublished
// subscription) blocks neither its connection nor a server thread.
#ifndef BLOBSEER_RPC_TCP_H_
#define BLOBSEER_RPC_TCP_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/executor.h"
#include "rpc/transport.h"

namespace blobseer::rpc {

class TcpServer;

/// Transport over real sockets. Addresses are "host:port"; serve with port 0
/// to bind an ephemeral port (the returned address carries the real one).
class TcpTransport : public Transport {
 public:
  TcpTransport();
  ~TcpTransport() override;

  Result<std::string> Serve(const std::string& address,
                            std::shared_ptr<ServiceHandler> handler) override;
  Status StopServing(const std::string& address) override;
  Result<std::shared_ptr<Channel>> Connect(const std::string& address) override;

 private:
  /// Workers for requests whose method may block, shared by every server
  /// on this transport and started by the first such request.
  static constexpr size_t kDispatchThreads = 16;
  Executor* DispatchPool();

  std::mutex mu_;
  // Declared before servers_ so it is destroyed after them: server teardown
  // only joins the reactor; in-flight blocking handler tasks drain here.
  std::once_flag dispatch_once_;
  std::unique_ptr<ThreadPoolExecutor> dispatch_;
  std::map<std::string, std::unique_ptr<TcpServer>> servers_;
};

}  // namespace blobseer::rpc

#endif  // BLOBSEER_RPC_TCP_H_
