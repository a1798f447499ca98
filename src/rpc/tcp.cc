#include "rpc/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/logging.h"
#include "common/serde.h"
#include "common/string_util.h"

namespace blobseer::rpc {

namespace {

constexpr uint32_t kMaxFrame = 256u * 1024 * 1024;
/// Request body prefix: [u64 corr_id][u32 method].
constexpr uint32_t kReqHeaderBytes = 12;
/// Response body prefix: [u64 corr_id][u8 code][u32 msg_len].
constexpr uint32_t kRspHeaderBytes = 13;

Status ReadFull(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    ssize_t r = ::recv(fd, p, n, 0);
    if (r == 0) return Status::Unavailable("connection closed");
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("recv: %s", strerror(errno)));
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

/// Writes all of `iov[0, n)` (gather write), resuming after partial sends.
/// The iovecs are consumed in place.
Status WriteFullV(int fd, iovec* iov, size_t n) {
  while (n > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("sendmsg: %s", strerror(errno)));
    }
    size_t sent = static_cast<size_t>(r);
    while (n > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      iov++;
      n--;
    }
    if (n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos)
    return Status::InvalidArgument("address must be host:port: " + address);
  *host = address.substr(0, colon);
  if (host->empty()) *host = "127.0.0.1";
  char* end = nullptr;
  long p = strtol(address.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p < 0 || p > 65535)
    return Status::InvalidArgument("bad port in address: " + address);
  *port = static_cast<uint16_t>(p);
  return Status::OK();
}

Status FillSockaddr(const std::string& host, uint16_t port,
                    sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const char* h = host == "localhost" ? "127.0.0.1" : host.c_str();
  if (host == "0.0.0.0" || host.empty()) {
    addr->sin_addr.s_addr = INADDR_ANY;
  } else if (inet_pton(AF_INET, h, &addr->sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 host: " + host);
  }
  return Status::OK();
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// One response frame (see rpc/wire.h frame format v2) awaiting the socket:
/// head, status message and payload leave in one gather write, never
/// concatenated into one buffer.
struct OutFrame {
  char head[4 + kRspHeaderBytes];
  std::string msg;
  std::string payload;
  size_t sent = 0;  ///< bytes of head+msg+payload already written

  OutFrame(uint64_t corr, const Status& st, std::string rsp) {
    msg = st.message();
    if (st.ok()) payload = std::move(rsp);
    uint8_t code = static_cast<uint8_t>(st.code());
    if (kRspHeaderBytes + msg.size() + payload.size() > kMaxFrame) {
      // Oversized response: fail the call instead of corrupting the stream.
      code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
      msg = "response too large";
      payload.clear();
    }
    uint32_t msg_len = static_cast<uint32_t>(msg.size());
    uint32_t len = static_cast<uint32_t>(kRspHeaderBytes + msg_len +
                                         payload.size());
    std::memcpy(head, &len, 4);
    std::memcpy(head + 4, &corr, 8);
    head[12] = static_cast<char>(code);
    std::memcpy(head + 13, &msg_len, 4);
  }
};

enum class SendResult { kDone, kBlocked, kFailed };

/// Writes what the socket takes of `f` without blocking.
SendResult SendFrame(int fd, OutFrame* f) {
  for (;;) {
    iovec iov[3];
    size_t n = 0;
    size_t skip = f->sent;
    auto add = [&](const char* p, size_t len) {
      if (skip >= len) {
        skip -= len;
        return;
      }
      iov[n++] = {const_cast<char*>(p) + skip, len - skip};
      skip = 0;
    };
    add(f->head, sizeof(f->head));
    add(f->msg.data(), f->msg.size());
    add(f->payload.data(), f->payload.size());
    if (n == 0) return SendResult::kDone;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (r >= 0) {
      f->sent += static_cast<size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return SendResult::kBlocked;
    return SendResult::kFailed;
  }
}

}  // namespace

/// One listening endpoint, served by an epoll reactor thread.
///
/// The reactor accepts connections, reads and parses request frames, and
/// runs each request's handler inline: handlers must not block (see
/// ServiceHandler::MayBlock). Only a method its handler declares blocking
/// goes to the transport's dispatch pool, with a copy of its payload.
///
/// Whichever thread completes a request — the reactor, a pool worker, or a
/// publisher firing a parked subscription — writes the response straight
/// to the socket under the connection's write lock, so responses leave in
/// completion order and a held call blocks neither its connection nor a
/// server thread. Only what the socket refuses (EAGAIN) is queued on the
/// connection; EPOLLOUT then hands the rest to the reactor.
///
/// Completion callbacks may outlive both their connection and this server
/// (a subscription can fire after StopServing). They hold the connection
/// by shared_ptr, and the reactor closes the socket under the write lock,
/// so a late completion sees `closed` and drops instead of writing to a
/// closed or reused fd.
class TcpServer {
 public:
  TcpServer(int listen_fd, std::shared_ptr<ServiceHandler> handler,
            std::function<Executor*()> blocking_pool)
      : listen_fd_(listen_fd),
        handler_(std::move(handler)),
        blocking_pool_(std::move(blocking_pool)) {
    SetNonBlocking(listen_fd_);
    epoll_fd_ = ::epoll_create1(0);
    BS_CHECK(epoll_fd_ >= 0) << "epoll_create1: " << strerror(errno);
    stop_fd_ = ::eventfd(0, EFD_NONBLOCK);
    BS_CHECK(stop_fd_ >= 0) << "eventfd: " << strerror(errno);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &listen_tag_;
    BS_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
    ev.data.ptr = &stop_tag_;
    BS_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev) == 0);
    reactor_ = std::thread([this] { ReactorLoop(); });
  }

  ~TcpServer() {
    uint64_t one = 1;
    ssize_t r = ::write(stop_fd_, &one, sizeof(one));
    (void)r;
    reactor_.join();
    ::close(stop_fd_);
    // Requests still running on the dispatch pool or parked in a handler
    // complete into closed connections and drop.
  }

 private:
  struct Conn {
    int fd = -1;
    int epoll_fd = -1;
    // Reactor-thread-only input state.
    std::string inbuf;
    size_t inpos = 0;
    // Output state, shared by every completing thread. The reactor closes
    // the socket under `wmu` too. Never held while a handler runs.
    std::mutex wmu;
    bool closed = false;
    std::deque<OutFrame> outq;  ///< frames the socket has not yet taken
    bool want_write = false;    ///< EPOLLOUT interest registered
  };

  /// Sends one response from the completing thread. Frames go out whole and
  /// in order: behind a non-empty queue a frame only joins the queue.
  static void Respond(Conn* c, OutFrame frame) {
    std::lock_guard<std::mutex> lock(c->wmu);
    if (c->closed) return;
    if (!c->outq.empty()) {
      c->outq.push_back(std::move(frame));
      return;
    }
    switch (SendFrame(c->fd, &frame)) {
      case SendResult::kDone:
        return;
      case SendResult::kBlocked:
        c->outq.push_back(std::move(frame));
        SetWriteInterestLocked(c, true);
        return;
      case SendResult::kFailed:
        // The reactor sees the hang-up and closes the connection.
        ::shutdown(c->fd, SHUT_RDWR);
        return;
    }
  }

  /// Reactor side of EPOLLOUT: drains the queue as far as the socket takes.
  static void FlushQueued(Conn* c) {
    std::lock_guard<std::mutex> lock(c->wmu);
    if (c->closed) return;
    while (!c->outq.empty()) {
      SendResult r = SendFrame(c->fd, &c->outq.front());
      if (r == SendResult::kBlocked) return;
      if (r == SendResult::kFailed) {
        c->outq.clear();
        ::shutdown(c->fd, SHUT_RDWR);
        break;
      }
      c->outq.pop_front();
    }
    SetWriteInterestLocked(c, false);
  }

  static void SetWriteInterestLocked(Conn* c, bool want) {
    if (c->want_write == want) return;
    c->want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.ptr = c;
    ::epoll_ctl(c->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void ReactorLoop() {
    epoll_event events[64];
    bool stop = false;
    while (!stop) {
      int n = ::epoll_wait(epoll_fd_, events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        BS_LOG(Warn) << "epoll_wait: " << strerror(errno);
        break;
      }
      for (int i = 0; i < n; i++) {
        void* tag = events[i].data.ptr;
        if (tag == &listen_tag_) {
          AcceptReady();
          continue;
        }
        if (tag == &stop_tag_) {
          stop = true;
          continue;
        }
        // A conn closed earlier in this batch is gone from conns_ but kept
        // alive in closed_ until the batch ends, so its address cannot be
        // reused by a conn accepted in the same batch.
        auto it = conns_.find(static_cast<Conn*>(tag));
        if (it == conns_.end()) continue;
        std::shared_ptr<Conn> conn = it->second;
        if (events[i].events & (EPOLLERR | EPOLLHUP)) {
          CloseConn(conn.get());
          continue;
        }
        if ((events[i].events & EPOLLIN) && !ReadReady(conn)) continue;
        if (events[i].events & EPOLLOUT) FlushQueued(conn.get());
      }
      closed_.clear();
    }
    // Teardown on the reactor thread: close every socket (late completions
    // then drop), then the reactor's own descriptors.
    while (!conns_.empty()) CloseConn(conns_.begin()->first);
    closed_.clear();
    ::close(listen_fd_);
    ::close(epoll_fd_);
  }

  void AcceptReady() {
    for (;;) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno != ECONNABORTED) {
          BS_LOG(Warn) << "accept failed: " << strerror(errno);
        }
        return;
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->epoll_fd = epoll_fd_;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns_.emplace(conn.get(), std::move(conn));
    }
  }

  /// Returns false when the connection was closed.
  bool ReadReady(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    char buf[64 * 1024];
    for (;;) {
      ssize_t r = ::recv(c->fd, buf, sizeof(buf), 0);
      if (r > 0) {
        c->inbuf.append(buf, static_cast<size_t>(r));
        if (r < static_cast<ssize_t>(sizeof(buf))) break;
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConn(c);  // EOF or error
      return false;
    }
    return ParseFrames(conn);
  }

  /// Splits the connection's input buffer into request frames and serves
  /// each; returns false if a malformed frame closed the connection.
  bool ParseFrames(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    for (;;) {
      size_t avail = c->inbuf.size() - c->inpos;
      if (avail < 4) break;
      uint32_t len;
      std::memcpy(&len, c->inbuf.data() + c->inpos, 4);
      if (len < kReqHeaderBytes || len > kMaxFrame) {
        CloseConn(c);
        return false;
      }
      if (avail < 4 + static_cast<uint64_t>(len)) break;
      const char* body = c->inbuf.data() + c->inpos + 4;
      uint64_t corr;
      uint32_t method;
      std::memcpy(&corr, body, 8);
      std::memcpy(&method, body + 8, 4);
      c->inpos += 4 + len;
      Serve(conn, corr, static_cast<Method>(method),
            Slice(body + kReqHeaderBytes, len - kReqHeaderBytes));
    }
    if (c->inpos > 0) {
      c->inbuf.erase(0, c->inpos);
      c->inpos = 0;
    }
    return true;
  }

  /// Runs the handler inline on the reactor, borrowing the payload from the
  /// input buffer, or — for a method the handler says may block — on the
  /// dispatch pool with its own copy.
  void Serve(const std::shared_ptr<Conn>& conn, uint64_t corr, Method method,
             Slice payload) {
    HandlerDone done = [conn, corr](Status st, std::string rsp) {
      Respond(conn.get(), OutFrame(corr, st, std::move(rsp)));
    };
    if (!handler_->MayBlock(method)) {
      handler_->HandleAsync(method, payload, std::move(done));
      return;
    }
    // The task owns the handler (keeps the service alive past StopServing
    // while it runs) and the payload copy (HandleAsync only borrows it).
    blocking_pool_()->Schedule([handler = handler_, method,
                                request = payload.ToString(),
                                done = std::move(done)]() mutable {
      handler->HandleAsync(method, Slice(request), std::move(done));
    });
  }

  /// Closes the socket under the write lock, so no completing thread can
  /// write to the fd after it is closed (or reused).
  void CloseConn(Conn* c) {
    {
      std::lock_guard<std::mutex> lock(c->wmu);
      c->closed = true;
      c->outq.clear();
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
      ::close(c->fd);
    }
    auto it = conns_.find(c);
    closed_.push_back(std::move(it->second));
    conns_.erase(it);
  }

  int listen_fd_;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;    ///< eventfd written once by the destructor
  int listen_tag_ = 0;  ///< epoll data.ptr sentinel for the listen socket
  int stop_tag_ = 0;    ///< epoll data.ptr sentinel for the stop eventfd
  std::shared_ptr<ServiceHandler> handler_;
  std::function<Executor*()> blocking_pool_;
  // Reactor-thread only.
  std::unordered_map<Conn*, std::shared_ptr<Conn>> conns_;
  std::vector<std::shared_ptr<Conn>> closed_;  ///< closed this batch
  std::thread reactor_;
};

namespace {

/// Reads one response frame: the fixed head, then the status message, then
/// the payload straight into `*payload`. The returned status is
/// transport-level; on OK, `*corr` identifies the request and
/// `*app_status` carries the application outcome.
Status ReadResponseFrame(int fd, uint64_t* corr, Status* app_status,
                         std::string* payload) {
  char head[4 + kRspHeaderBytes];
  BS_RETURN_NOT_OK(ReadFull(fd, head, sizeof(head)));
  uint32_t rlen;
  uint32_t msg_len;
  std::memcpy(&rlen, head, 4);
  std::memcpy(corr, head + 4, 8);
  uint8_t code = static_cast<uint8_t>(head[12]);
  std::memcpy(&msg_len, head + 13, 4);
  if (rlen < kRspHeaderBytes || rlen > kMaxFrame)
    return Status::Corruption("bad response frame length");
  if (kRspHeaderBytes + static_cast<uint64_t>(msg_len) > rlen)
    return Status::Corruption("bad response message length");
  std::string msg(msg_len, '\0');
  BS_RETURN_NOT_OK(ReadFull(fd, msg.data(), msg.size()));
  payload->resize(rlen - kRspHeaderBytes - msg_len);
  BS_RETURN_NOT_OK(ReadFull(fd, payload->data(), payload->size()));
  if (code != 0) {
    *app_status =
        Status::FromCode(static_cast<StatusCode>(code), std::move(msg));
    payload->clear();
  } else {
    *app_status = Status::OK();
  }
  return Status::OK();
}

/// Pipelined channel: requests are framed onto the connection as they
/// arrive (writers serialized under mu_) carrying a per-channel correlation
/// id, and a per-connection reader thread matches each response to its
/// callback by that id — responses complete in whatever order the server
/// finishes them. Call is a thin park-on-event wrapper over CallAsync, and
/// a caller thread is never blocked on the network on the async path.
///
/// On connection failure every in-flight request is transparently re-issued
/// once over a fresh connection (handles servers restarted between calls;
/// safe for BlobSeer's idempotent request set), then failed.
class TcpChannel : public Channel {
 public:
  explicit TcpChannel(std::string address) : address_(std::move(address)) {}

  ~TcpChannel() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      // Wake the reader; it owns the fd and closes it on exit, failing any
      // still-pending callbacks (closed_ suppresses their retry).
      if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    }
    for (auto& t : readers_) t.join();
  }

  /// True when called from one of this channel's reader threads.
  bool OnReaderThread() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& t : readers_) {
      if (t.get_id() == std::this_thread::get_id()) return true;
    }
    return false;
  }

  Status Call(Method method, Slice request, std::string* response) override {
    auto event = std::make_shared<CondVarWaitEvent>();
    Status result;
    CallAsync(method, request, [&, event](Status st, std::string payload) {
      result = std::move(st);
      *response = std::move(payload);
      event->Signal();
    });
    event->Await();
    return result;
  }

  void CallAsync(Method method, Slice request, CallCallback done) override {
    // Local validation failures never touch the wire, so they must not
    // disturb the healthy pipeline (Submit treats write failures as
    // connection failures and re-issues every in-flight request).
    if (kReqHeaderBytes + static_cast<uint64_t>(request.size()) > kMaxFrame) {
      done(Status::InvalidArgument("request too large"), std::string());
      return;
    }
    Pending p;
    p.method = static_cast<uint32_t>(method);
    p.request = request.ToString();  // retained for the transparent retry
    p.done = std::move(done);
    p.retried = false;
    Submit(std::move(p));
  }

 private:
  struct Pending {
    uint32_t method = 0;
    std::string request;
    CallCallback done;
    bool retried = false;
  };

  void Submit(Pending p) {
    Status failure;
    std::deque<Pending> orphans;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        failure = Status::Unavailable("channel closed: " + address_);
        orphans.push_back(std::move(p));
      } else {
        if (fd_ < 0) failure = ConnectLocked();
        if (failure.ok()) {
          uint64_t corr = next_corr_++;
          failure = WriteRequestLocked(corr, p);
          if (failure.ok()) {
            pending_.emplace(corr, std::move(p));
            return;
          }
        }
        // A mid-pipeline write failure strands every in-flight request:
        // tear the connection down and take them all for retry/failure.
        if (fd_ >= 0) {
          ::shutdown(fd_, SHUT_RDWR);
          fd_ = -1;
          gen_++;
        }
        orphans = TakeAllPendingLocked();
        orphans.push_back(std::move(p));
      }
    }
    FailOrRetry(std::move(orphans), failure);
  }

  std::deque<Pending> TakeAllPendingLocked() {
    std::deque<Pending> out;
    for (auto& [corr, p] : pending_) out.push_back(std::move(p));
    pending_.clear();
    return out;
  }

  /// Re-issues each orphaned request once; requests already retried (or
  /// arriving after close) complete with `cause`. Runs without mu_ held.
  void FailOrRetry(std::deque<Pending> orphans, const Status& cause) {
    for (auto& p : orphans) {
      if (p.retried) {
        p.done(cause, std::string());
      } else {
        p.retried = true;
        Submit(std::move(p));
      }
    }
  }

  Status ConnectLocked() {
    std::string host;
    uint16_t port;
    BS_RETURN_NOT_OK(ParseHostPort(address_, &host, &port));
    sockaddr_in addr;
    BS_RETURN_NOT_OK(FillSockaddr(host, port, &addr));
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError("socket");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return Status::Unavailable(
          StrFormat("connect %s: %s", address_.c_str(), strerror(errno)));
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fd_ = fd;
    uint64_t gen = ++gen_;
    readers_.emplace_back([this, fd, gen] { ReaderLoop(fd, gen); });
    return Status::OK();
  }

  Status WriteRequestLocked(uint64_t corr, const Pending& p) {
    uint64_t body = kReqHeaderBytes + p.request.size();
    if (body > kMaxFrame) return Status::InvalidArgument("request too large");
    uint32_t len = static_cast<uint32_t>(body);
    char head[4 + kReqHeaderBytes];
    std::memcpy(head, &len, 4);
    std::memcpy(head + 4, &corr, 8);
    std::memcpy(head + 12, &p.method, 4);
    // Head and body leave in one sendmsg: one segment under TCP_NODELAY,
    // so the server's reactor wakes once per small request.
    iovec iov[2] = {{head, sizeof(head)},
                    {const_cast<char*>(p.request.data()), p.request.size()}};
    return WriteFullV(fd_, iov, p.request.empty() ? 1 : 2);
  }

  void ReaderLoop(int fd, uint64_t gen) {
    for (;;) {
      uint64_t corr = 0;
      Status app_status;
      std::string payload;
      Status rs = ReadResponseFrame(fd, &corr, &app_status, &payload);
      if (!rs.ok()) {
        std::deque<Pending> orphans;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (gen_ == gen) {
            // This connection is still current: this thread owns teardown.
            fd_ = -1;
            gen_++;
            orphans = TakeAllPendingLocked();
          }
        }
        ::close(fd);
        FailOrRetry(std::move(orphans), rs);
        return;
      }
      CallCallback done;
      bool protocol_violation = false;
      std::deque<Pending> orphans;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (gen_ != gen) {
          // This connection was already torn down by a writer; it owns no
          // channel state anymore.
          ::close(fd);
          return;
        }
        auto it = pending_.find(corr);
        if (it == pending_.end()) {
          // Unknown correlation id: protocol violation. Tear the
          // connection down like a read failure (remaining in-flight
          // requests retry over a fresh connection) so later Submits
          // never write into a stream we no longer trust.
          fd_ = -1;
          gen_++;
          orphans = TakeAllPendingLocked();
          protocol_violation = true;
        } else {
          done = std::move(it->second.done);
          pending_.erase(it);
        }
      }
      if (protocol_violation) {
        ::close(fd);
        FailOrRetry(std::move(orphans),
                    Status::Corruption("unknown correlation id"));
        return;
      }
      done(std::move(app_status), std::move(payload));
    }
  }

  std::string address_;
  std::mutex mu_;
  int fd_ = -1;
  uint64_t gen_ = 0;
  uint64_t next_corr_ = 1;
  bool closed_ = false;
  std::map<uint64_t, Pending> pending_;  ///< corr id -> in-flight request
  std::vector<std::thread> readers_;     // joined in the destructor
};

}  // namespace

TcpTransport::TcpTransport() = default;
TcpTransport::~TcpTransport() = default;

Result<std::string> TcpTransport::Serve(
    const std::string& address, std::shared_ptr<ServiceHandler> handler) {
  std::string host;
  uint16_t port;
  BS_RETURN_NOT_OK(ParseHostPort(address, &host, &port));
  sockaddr_in addr;
  BS_RETURN_NOT_OK(FillSockaddr(host, port, &addr));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError(
        StrFormat("bind %s: %s", address.c_str(), strerror(errno)));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::IOError("listen");
  }
  sockaddr_in bound;
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    ::close(fd);
    return Status::IOError("getsockname");
  }
  char ip[INET_ADDRSTRLEN];
  inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof(ip));
  std::string bound_addr =
      StrFormat("%s:%u", host == "0.0.0.0" ? "127.0.0.1" : ip,
                static_cast<unsigned>(ntohs(bound.sin_port)));

  std::lock_guard<std::mutex> lock(mu_);
  if (servers_.count(bound_addr)) {
    ::close(fd);
    return Status::AlreadyExists("already serving: " + bound_addr);
  }
  servers_[bound_addr] = std::make_unique<TcpServer>(
      fd, std::move(handler), [this] { return DispatchPool(); });
  return bound_addr;
}

Executor* TcpTransport::DispatchPool() {
  std::call_once(dispatch_once_, [this] {
    dispatch_ = std::make_unique<ThreadPoolExecutor>(kDispatchThreads);
  });
  return dispatch_.get();
}

Status TcpTransport::StopServing(const std::string& address) {
  std::unique_ptr<TcpServer> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = servers_.find(address);
    if (it == servers_.end()) return Status::NotFound("server: " + address);
    victim = std::move(it->second);
    servers_.erase(it);
  }
  return Status::OK();  // destructor joins the reactor thread
}

Result<std::shared_ptr<Channel>> TcpTransport::Connect(
    const std::string& address) {
  // The last reference can drop inside a completion callback, i.e. on one
  // of the channel's reader threads, which its destructor joins: destroy
  // the channel from a short-lived thread then.
  return std::shared_ptr<Channel>(new TcpChannel(address), [](TcpChannel* ch) {
    if (ch->OnReaderThread()) {
      std::thread([ch] { delete ch; }).detach();
    } else {
      delete ch;
    }
  });
}

}  // namespace blobseer::rpc
