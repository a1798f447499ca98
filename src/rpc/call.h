// Typed request/response helpers layered over raw channels.
#ifndef BLOBSEER_RPC_CALL_H_
#define BLOBSEER_RPC_CALL_H_

#include <memory>
#include <string>
#include <utility>

#include "common/future.h"
#include "common/serde.h"
#include "rpc/channel_pool.h"
#include "rpc/transport.h"

namespace blobseer::rpc {

/// Encodes `req`, performs the call, decodes into `*rsp`. Fails with
/// Corruption if the response has trailing bytes.
template <typename Request, typename Response>
Status CallMethod(Channel* channel, Method method, const Request& req,
                  Response* rsp) {
  BinaryWriter w;
  req.EncodeTo(&w);
  std::string out;
  BS_RETURN_NOT_OK(channel->Call(method, Slice(w.buffer()), &out));
  BinaryReader r{Slice(out)};
  BS_RETURN_NOT_OK(rsp->DecodeFrom(&r));
  return r.ExpectEnd();
}

/// Async counterpart: encodes `req` inline, issues CallAsync, decodes in the
/// completion callback. The returned future resolves on the transport's
/// completion context (see Channel::CallAsync). `channel` must stay alive
/// until the future resolves — channels obtained from a ChannelPool are
/// retained by the pool, which satisfies this.
template <typename Request, typename Response>
Future<Response> CallMethodAsync(Channel* channel, Method method,
                                 const Request& req) {
  BinaryWriter w;
  req.EncodeTo(&w);
  Promise<Response> p;
  Future<Response> f = p.GetFuture();
  channel->CallAsync(method, Slice(w.buffer()),
                     [p](Status st, std::string out) mutable {
                       if (!st.ok()) {
                         p.Set(std::move(st));
                         return;
                       }
                       Response rsp;
                       BinaryReader r{Slice(out)};
                       Status ds = rsp.DecodeFrom(&r);
                       if (ds.ok()) ds = r.ExpectEnd();
                       if (!ds.ok())
                         p.Set(std::move(ds));
                       else
                         p.Set(std::move(rsp));
                     });
  return f;
}

// Reconnect-once on Unavailable. On a binding transport (TCP, inproc) a
// channel pooled before an endpoint restart keeps failing even once the
// endpoint serves again, so the helpers below drop the address's pooled
// channels and retry once on a fresh connection. The simulated network
// resolves endpoints per call (binds_at_connect() is false) and gets no
// retry: its failure model must not gain hidden retries. Use these only
// for idempotent methods.

/// Sync form over Channel::Call: on simnet it runs inside the calling task.
template <typename Request, typename Response>
Status CallWithReconnect(ChannelPool* pool, const std::string& address,
                         Method method, const Request& req, Response* rsp) {
  auto ch = pool->Get(address);
  if (!ch.ok()) return ch.status();
  Status s = CallMethod(ch->get(), method, req, rsp);
  if (!s.IsUnavailable() || !pool->binding()) return s;
  pool->Invalidate(address);
  ch = pool->Get(address);
  if (!ch.ok()) return s;
  *rsp = Response{};
  return CallMethod(ch->get(), method, req, rsp);
}

/// Async form. The request is moved into one shared copy that the retry
/// continuation reuses. `pool` must outlive the returned future.
template <typename Request, typename Response>
Future<Response> CallWithReconnectAsync(ChannelPool* pool,
                                        const std::string& address,
                                        Method method, Request req) {
  auto ch = pool->Get(address);
  if (!ch.ok()) return MakeReadyFuture<Response>(ch.status());
  auto shared = std::make_shared<Request>(std::move(req));
  return CallMethodAsync<Request, Response>(ch->get(), method, *shared)
      .Then([pool, address, method,
             shared](Result<Response> r) -> Future<Response> {
        if (r.ok() || !r.status().IsUnavailable() || !pool->binding())
          return MakeReadyFuture<Response>(std::move(r));
        pool->Invalidate(address);
        auto retry = pool->Get(address);
        if (!retry.ok()) return MakeReadyFuture<Response>(std::move(r));
        return CallMethodAsync<Request, Response>(retry->get(), method,
                                                  *shared);
      });
}

/// Server-side glue: decodes the payload into Request, invokes
/// `fn(req, &rsp)`, encodes the response.
template <typename Request, typename Response, typename F>
Status DispatchTyped(Slice payload, std::string* response, F&& fn) {
  Request req;
  BinaryReader r(payload);
  BS_RETURN_NOT_OK(req.DecodeFrom(&r));
  BS_RETURN_NOT_OK(r.ExpectEnd());
  Response rsp;
  BS_RETURN_NOT_OK(fn(req, &rsp));
  BinaryWriter w;
  rsp.EncodeTo(&w);
  *response = std::move(w).TakeBuffer();
  return Status::OK();
}

}  // namespace blobseer::rpc

#endif  // BLOBSEER_RPC_CALL_H_
