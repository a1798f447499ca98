// RPC layer tests: in-process and TCP transports, error propagation,
// composite dispatch, channel pooling, concurrent calls.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/executor.h"
#include "common/future.h"

#include "common/serde.h"
#include "rpc/call.h"
#include "rpc/channel_pool.h"
#include "rpc/inproc.h"
#include "rpc/service.h"
#include "rpc/tcp.h"

namespace blobseer::rpc {
namespace {

// Echo service on the DHT method block; also exposes a failing method.
class EchoService : public ServiceHandler {
 public:
  Status Handle(Method method, Slice payload, std::string* response) override {
    calls_.fetch_add(1);
    if (method == Method::kDhtPut) {
      *response = payload.ToString();
      return Status::OK();
    }
    if (method == Method::kDhtGet) {
      return Status::NotFound("echo: no such key");
    }
    return Status::NotSupported("echo");
  }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

class TransportTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "tcp") {
      tcp_ = std::make_unique<TcpTransport>();
      transport_ = tcp_.get();
      serve_address_ = "127.0.0.1:0";
    } else {
      inproc_ = std::make_unique<InProcNetwork>();
      transport_ = inproc_.get();
      serve_address_ = "inproc://echo";
    }
  }

  std::unique_ptr<TcpTransport> tcp_;
  std::unique_ptr<InProcNetwork> inproc_;
  Transport* transport_ = nullptr;
  std::string serve_address_;
};

TEST_P(TransportTest, RoundTrip) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  std::string out;
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice("hello"), &out).ok());
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(svc->calls(), 1);
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, EmptyAndLargePayloads) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());

  std::string out;
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice(""), &out).ok());
  EXPECT_TRUE(out.empty());

  std::string big(3 * 1024 * 1024, 'x');
  big[1024] = '\0';  // binary-safe
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice(big), &out).ok());
  EXPECT_EQ(out, big);
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, RemoteErrorPropagatesCodeAndMessage) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  std::string out;
  Status s = (*ch)->Call(Method::kDhtGet, Slice("k"), &out);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "echo: no such key");
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, ConcurrentCallsThroughPool) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());

  ChannelPool pool(transport_, 4);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; i++) {
        auto ch = pool.Get(*bound);
        if (!ch.ok()) {
          failures++;
          continue;
        }
        std::string payload = "msg-" + std::to_string(t * 1000 + i);
        std::string out;
        Status s = (*ch)->Call(Method::kDhtPut, Slice(payload), &out);
        if (!s.ok() || out != payload) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc->calls(), 400);
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, StoppedServerBecomesUnavailable) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  std::string out;
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice("x"), &out).ok());
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
  Status s = (*ch)->Call(Method::kDhtPut, Slice("y"), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnavailable() || s.IsIOError()) << s.ToString();
}

TEST_P(TransportTest, AsyncCallCompletes) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  auto done = std::make_shared<CondVarWaitEvent>();
  Status st = Status::Internal("callback never ran");
  std::string out;
  (*ch)->CallAsync(Method::kDhtPut, Slice("hello"),
                   [&, done](Status s, std::string payload) {
                     st = std::move(s);
                     out = std::move(payload);
                     done->Signal();
                   });
  done->Await();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, AsyncErrorCarriesCodeAndMessage) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  auto done = std::make_shared<CondVarWaitEvent>();
  Status st;
  (*ch)->CallAsync(Method::kDhtGet, Slice("k"),
                   [&, done](Status s, std::string) {
                     st = std::move(s);
                     done->Signal();
                   });
  done->Await();
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_EQ(st.message(), "echo: no such key");
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, ManyInFlightAsyncCallsOnOneChannel) {
  // The pipelined path: N requests issued before any response is consumed;
  // every callback must fire exactly once with its own payload.
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  constexpr int kCalls = 64;
  std::mutex mu;
  std::condition_variable cv;
  int remaining = kCalls;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kCalls; i++) {
    std::string payload = "pipelined-" + std::to_string(i);
    (*ch)->CallAsync(Method::kDhtPut, Slice(payload),
                     [&, expect = payload](Status s, std::string out) {
                       if (!s.ok() || out != expect) mismatches++;
                       std::lock_guard<std::mutex> lock(mu);
                       if (--remaining == 0) cv.notify_all();
                     });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(svc->calls(), kCalls);
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

TEST_P(TransportTest, AsyncCallAfterServerStopFails) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  auto ch = transport_->Connect(*bound);
  ASSERT_TRUE(ch.ok());
  std::string out;
  ASSERT_TRUE((*ch)->Call(Method::kDhtPut, Slice("x"), &out).ok());
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
  auto done = std::make_shared<CondVarWaitEvent>();
  Status st;
  (*ch)->CallAsync(Method::kDhtPut, Slice("y"),
                   [&, done](Status s, std::string) {
                     st = std::move(s);
                     done->Signal();
                   });
  done->Await();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable() || st.IsIOError()) << st.ToString();
}

TEST_P(TransportTest, TypedAsyncCallThroughFuture) {
  auto svc = std::make_shared<EchoService>();
  auto bound = transport_->Serve(serve_address_, svc);
  ASSERT_TRUE(bound.ok());
  ChannelPool pool(transport_, 2);
  auto ch = pool.Get(*bound);
  ASSERT_TRUE(ch.ok());
  struct Echo {
    std::string text;
    void EncodeTo(BinaryWriter* w) const { w->PutString(text); }
    Status DecodeFrom(BinaryReader* r) { return r->GetString(&text); }
  };
  auto f = CallMethodAsync<Echo, Echo>(ch->get(), Method::kDhtPut,
                                       Echo{"typed-async"});
  auto result = f.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->text, "typed-async");
  ASSERT_TRUE(transport_->StopServing(*bound).ok());
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportTest,
                         ::testing::Values("inproc", "tcp"));

TEST(InProcTest, DuplicateServeFails) {
  InProcNetwork net;
  auto svc = std::make_shared<EchoService>();
  ASSERT_TRUE(net.Serve("inproc://a", svc).ok());
  EXPECT_TRUE(net.Serve("inproc://a", svc).status().IsAlreadyExists());
  EXPECT_EQ(net.endpoint_count(), 1u);
}

TEST(InProcTest, ConnectToUnknownEndpointFails) {
  InProcNetwork net;
  EXPECT_TRUE(net.Connect("inproc://nope").status().IsUnavailable());
}

TEST(TcpTest, BadAddressRejected) {
  TcpTransport t;
  auto svc = std::make_shared<EchoService>();
  EXPECT_FALSE(t.Serve("nonsense", svc).ok());
  EXPECT_FALSE(t.Serve("host:99999", svc).ok());
}

TEST(TcpTest, ConnectFailureIsUnavailable) {
  TcpTransport t;
  auto ch = t.Connect("127.0.0.1:1");  // nothing listens on port 1
  ASSERT_TRUE(ch.ok());  // lazy connect
  std::string out;
  Status s = (*ch)->Call(Method::kDhtPut, Slice("x"), &out);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
}

// Echoes kDhtPut inline; kDhtCas is declared blocking and parks in its
// handler until released.
class GateService : public ServiceHandler {
 public:
  Status Handle(Method method, Slice payload, std::string* response) override {
    if (method == Method::kDhtPut) {
      *response = payload.ToString();
      return Status::OK();
    }
    if (method != Method::kDhtCas) return Status::NotSupported("gate");
    std::unique_lock<std::mutex> lock(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    *response = "released";
    return Status::OK();
  }
  bool MayBlock(Method method) const override {
    return method == Method::kDhtCas;
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

// A blocking method runs off the reactor: while it parks in its handler,
// inline calls to the same endpoint keep completing.
TEST(TcpTest, BlockingMethodParksWhileInlineCallsComplete) {
  TcpTransport t;
  auto svc = std::make_shared<GateService>();
  auto bound = t.Serve("127.0.0.1:0", svc);
  ASSERT_TRUE(bound.ok());
  auto held_ch = t.Connect(*bound);
  auto other_ch = t.Connect(*bound);
  ASSERT_TRUE(held_ch.ok() && other_ch.ok());

  auto held_done = std::make_shared<CondVarWaitEvent>();
  Status held_st = Status::Internal("callback never ran");
  std::string held_out;
  (*held_ch)->CallAsync(Method::kDhtCas, Slice("hold"),
                        [&, held_done](Status st, std::string out) {
                          held_st = std::move(st);
                          held_out = std::move(out);
                          held_done->Signal();
                        });
  svc->AwaitParked();
  for (int i = 0; i < 20; i++) {
    std::string payload = "inline-" + std::to_string(i);
    std::string out;
    ASSERT_TRUE((*other_ch)->Call(Method::kDhtPut, Slice(payload), &out).ok());
    EXPECT_EQ(out, payload);
  }
  svc->Release();
  held_done->Await();
  EXPECT_TRUE(held_st.ok()) << held_st.ToString();
  EXPECT_EQ(held_out, "released");
  ASSERT_TRUE(t.StopServing(*bound).ok());
}

// A completion callback runs on the channel's reader thread and may drop the
// last reference to the channel (a pool invalidating a failed endpoint does
// this). Destroying the channel must not join the reader thread from
// itself.
TEST(TcpTest, ChannelReleasedInsideItsOwnCallback) {
  TcpTransport t;
  auto bound = t.Serve("127.0.0.1:0", std::make_shared<EchoService>());
  ASSERT_TRUE(bound.ok());
  auto ch = t.Connect(*bound);
  ASSERT_TRUE(ch.ok());
  Channel* raw = ch->get();
  auto last_ref = std::make_shared<std::shared_ptr<Channel>>(*ch);
  ch->reset();  // `last_ref` now owns the channel
  auto done = std::make_shared<CondVarWaitEvent>();
  Status st = Status::Internal("callback never ran");
  raw->CallAsync(Method::kDhtPut, Slice("bye"),
                 [&st, last_ref, done](Status s, std::string) {
                   st = std::move(s);
                   last_ref->reset();
                   done->Signal();
                 });
  done->Await();
  EXPECT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(t.StopServing(*bound).ok());
}

// kDhtGet answers with the number of pattern bytes its payload names;
// kDhtPut echoes.
class BulkService : public ServiceHandler {
 public:
  static char PatternByte(size_t i) { return static_cast<char>(i * 131 + 7); }
  Status Handle(Method method, Slice payload, std::string* response) override {
    if (method == Method::kDhtPut) {
      *response = payload.ToString();
      return Status::OK();
    }
    if (method != Method::kDhtGet) return Status::NotSupported("bulk");
    size_t n = std::stoull(payload.ToString());
    response->resize(n);
    for (size_t i = 0; i < n; i++) (*response)[i] = PatternByte(i);
    return Status::OK();
  }
};

// A response far larger than the socket buffer cannot leave in one write:
// the rest is queued and the reactor finishes it on EPOLLOUT, while the
// small responses pipelined behind it on the same channel queue up in
// order. Every byte of every response must arrive intact.
TEST(TcpTest, LargeResponseAndPipelinedCallsShareOneChannel) {
  TcpTransport t;
  auto bound = t.Serve("127.0.0.1:0", std::make_shared<BulkService>());
  ASSERT_TRUE(bound.ok());
  auto ch = t.Connect(*bound);
  ASSERT_TRUE(ch.ok());

  constexpr size_t kBig = 32u << 20;
  constexpr int kSmall = 100;
  std::mutex mu;
  std::condition_variable cv;
  int remaining = kSmall + 1;
  Status big_st = Status::Internal("callback never ran");
  std::string big;
  std::atomic<int> small_mismatches{0};
  auto finish = [&] {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  };
  (*ch)->CallAsync(Method::kDhtGet, Slice(std::to_string(kBig)),
                   [&](Status st, std::string out) {
                     big_st = std::move(st);
                     big = std::move(out);
                     finish();
                   });
  for (int i = 0; i < kSmall; i++) {
    std::string payload = "small-" + std::to_string(i);
    (*ch)->CallAsync(Method::kDhtPut, Slice(payload),
                     [&, expect = payload](Status st, std::string out) {
                       if (!st.ok() || out != expect) small_mismatches++;
                       finish();
                     });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
  ASSERT_TRUE(big_st.ok()) << big_st.ToString();
  ASSERT_EQ(big.size(), kBig);
  size_t bad = 0;
  for (size_t i = 0; i < kBig; i++)
    bad += big[i] != BulkService::PatternByte(i);
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(small_mismatches.load(), 0);
  ASSERT_TRUE(t.StopServing(*bound).ok());
}

TEST(CompositeHandlerTest, RoutesByMethodBlock) {
  CompositeHandler composite;
  auto echo = std::make_shared<EchoService>();
  composite.Register(100, echo);
  std::string out;
  EXPECT_TRUE(composite.Handle(Method::kDhtPut, Slice("a"), &out).ok());
  EXPECT_TRUE(composite.Handle(Method::kProviderRead, Slice("a"), &out)
                  .IsNotSupported());
  // MayBlock is the routed service's answer; unrouted methods never block.
  CompositeHandler gated;
  gated.Register(100, std::make_shared<GateService>());
  EXPECT_TRUE(gated.MayBlock(Method::kDhtCas));
  EXPECT_FALSE(gated.MayBlock(Method::kDhtPut));
  EXPECT_FALSE(gated.MayBlock(Method::kVmGetRecent));
}

// Typed call helpers.
struct PingMsg {
  uint64_t value = 0;
  void EncodeTo(BinaryWriter* w) const { w->PutU64(value); }
  Status DecodeFrom(BinaryReader* r) { return r->GetU64(&value); }
};

class TypedService : public ServiceHandler {
 public:
  Status Handle(Method method, Slice payload, std::string* response) override {
    if (method != Method::kDhtPut) return Status::NotSupported("typed");
    return DispatchTyped<PingMsg, PingMsg>(
        payload, response, [](const PingMsg& req, PingMsg* rsp) {
          rsp->value = req.value + 1;
          return Status::OK();
        });
  }
};

TEST(TypedCallTest, EncodesAndDecodes) {
  InProcNetwork net;
  ASSERT_TRUE(net.Serve("inproc://typed", std::make_shared<TypedService>()).ok());
  auto ch = net.Connect("inproc://typed");
  ASSERT_TRUE(ch.ok());
  PingMsg req{41}, rsp;
  ASSERT_TRUE(CallMethod(ch->get(), Method::kDhtPut, req, &rsp).ok());
  EXPECT_EQ(rsp.value, 42u);
}

TEST(TypedCallTest, MalformedPayloadIsCorruption) {
  TypedService svc;
  std::string out;
  EXPECT_TRUE(svc.Handle(Method::kDhtPut, Slice("xx"), &out).IsCorruption());
}

// Reconnect-once helpers: a channel pooled before an endpoint restart is
// stale on a binding transport; the helpers drop it and retry once.
class CountingPingService : public ServiceHandler {
 public:
  Status Handle(Method method, Slice payload, std::string* response) override {
    calls_.fetch_add(1);
    return typed_.Handle(method, payload, response);
  }
  int calls() const { return calls_.load(); }

 private:
  TypedService typed_;
  std::atomic<int> calls_{0};
};

// In-process network that resolves endpoints like simnet does, i.e. opts
// out of reconnects.
class NonBindingNetwork : public InProcNetwork {
 public:
  bool binds_at_connect() const override { return false; }
};

// Pools one channel to `address`, then restarts the endpoint under it.
// Returns the restarted service.
std::shared_ptr<CountingPingService> RestartUnderPool(
    InProcNetwork* net, ChannelPool* pool, const std::string& address) {
  EXPECT_TRUE(pool->Get(address).ok());
  EXPECT_TRUE(net->StopServing(address).ok());
  auto restarted = std::make_shared<CountingPingService>();
  EXPECT_TRUE(net->Serve(address, restarted).ok());
  return restarted;
}

TEST(ReconnectTest, StaleChannelReconnectsOnceAfterRestart) {
  const std::string addr = "inproc://ping";
  InProcNetwork net;
  ASSERT_TRUE(net.Serve(addr, std::make_shared<CountingPingService>()).ok());
  ChannelPool pool(&net, 1);
  auto restarted = RestartUnderPool(&net, &pool, addr);
  // The pooled channel is stale: called directly, it fails.
  auto stale = pool.Get(addr);
  ASSERT_TRUE(stale.ok());
  PingMsg rsp;
  EXPECT_TRUE(CallMethod(stale->get(), Method::kDhtPut, PingMsg{1}, &rsp)
                  .IsUnavailable());

  ASSERT_TRUE(
      CallWithReconnect(&pool, addr, Method::kDhtPut, PingMsg{1}, &rsp).ok());
  EXPECT_EQ(rsp.value, 2u);
  EXPECT_EQ(restarted->calls(), 1);

  restarted = RestartUnderPool(&net, &pool, addr);
  auto r = CallWithReconnectAsync<PingMsg, PingMsg>(&pool, addr,
                                                    Method::kDhtPut, PingMsg{5})
               .Wait();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->value, 6u);
  EXPECT_EQ(restarted->calls(), 1);
}

TEST(ReconnectTest, NonBindingTransportGetsNoRetry) {
  const std::string addr = "inproc://ping";
  NonBindingNetwork net;
  ASSERT_TRUE(net.Serve(addr, std::make_shared<CountingPingService>()).ok());
  ChannelPool pool(&net, 1);
  auto restarted = RestartUnderPool(&net, &pool, addr);

  PingMsg rsp;
  EXPECT_TRUE(CallWithReconnect(&pool, addr, Method::kDhtPut, PingMsg{1}, &rsp)
                  .IsUnavailable());
  auto r = CallWithReconnectAsync<PingMsg, PingMsg>(&pool, addr,
                                                    Method::kDhtPut, PingMsg{1})
               .Wait();
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(restarted->calls(), 0);
}

}  // namespace
}  // namespace blobseer::rpc
