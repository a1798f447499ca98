#include "src/trace.h"

#include <algorithm>
#include <chrono>

#include "dht/messages.h"

namespace perfbench {

using blobseer::BinaryReader;
using blobseer::Result;
using blobseer::Slice;
using blobseer::Status;
using blobseer::rpc::Method;

namespace {

class TracingChannel : public blobseer::rpc::Channel {
 public:
  TracingChannel(TracingTransport* owner,
                 std::shared_ptr<blobseer::rpc::Channel> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  Status Call(Method method, Slice request, std::string* response) override {
    Span s = Open(method, request);
    Status st = inner_->Call(method, request, response);
    Close(owner_, &s, st, *response);
    return st;
  }

  void CallAsync(Method method, Slice request,
                 blobseer::rpc::CallCallback done) override {
    Span s = Open(method, request);
    // Captures the decorator, not this channel: a completion may fire while
    // the client tears its channels down.
    inner_->CallAsync(method, request,
                      [owner = owner_, s, done = std::move(done)](
                          Status st, std::string rsp) mutable {
                        Close(owner, &s, st, rsp);
                        done(std::move(st), std::move(rsp));
                      });
  }

 private:
  Span Open(Method method, Slice request) const {
    Span s;
    s.op = owner_->current_op();
    s.method = method;
    s.layer = ClassifyCall(method, request);
    s.req_bytes = uint32_t(request.size());
    s.start_ns = NowNs();
    return s;
  }
  static void Close(TracingTransport* owner, Span* s, const Status& st,
                    const std::string& rsp) {
    s->end_ns = NowNs();
    s->ok = st.ok();
    s->rsp_bytes = uint32_t(rsp.size());
    owner->Record(*s);
  }

  TracingTransport* owner_;
  std::shared_ptr<blobseer::rpc::Channel> inner_;
};

// Namespace tag of a DHT key (first byte), decoded with the request struct
// the DHT service itself uses.
template <typename Request>
char KeyTag(Slice request, std::string Request::*key) {
  Request req;
  BinaryReader r(request);
  if (!req.DecodeFrom(&r).ok() || (req.*key).empty()) return 0;
  return (req.*key)[0];
}

char MultiGetTag(Slice request) {
  blobseer::dht::MultiGetRequest req;
  BinaryReader r(request);
  if (!req.DecodeFrom(&r).ok() || req.keys.empty() || req.keys[0].empty())
    return 0;
  return req.keys[0][0];
}

Layer LayerOfTag(char tag) {
  switch (tag) {
    case 'N':
      return Layer::kMeta;
    case 'L':
      return Layer::kLocator;
    case 'H':
      return Layer::kDedup;
    default:
      return Layer::kOther;
  }
}

}  // namespace

const char* LayerName(Layer l) {
  static const char* const kNames[kNumLayers] = {
      "vmanager", "pmanager", "meta", "locator", "dedup", "provider", "other"};
  return kNames[size_t(l)];
}

Layer ClassifyCall(Method method, Slice request) {
  namespace dht = blobseer::dht;
  switch (method) {
    case Method::kDhtPut:
      return LayerOfTag(KeyTag(request, &dht::PutRequest::key));
    case Method::kDhtGet:
      return LayerOfTag(KeyTag(request, &dht::GetRequest::key));
    case Method::kDhtDelete:
      return LayerOfTag(KeyTag(request, &dht::DeleteRequest::key));
    case Method::kDhtCas:
      return LayerOfTag(KeyTag(request, &dht::CasRequest::key));
    case Method::kDhtMultiGet:
      return LayerOfTag(MultiGetTag(request));
    default:
      break;
  }
  const uint32_t group = uint32_t(method) / 100;
  if (group == 2) return Layer::kProvider;
  if (group == 3) return Layer::kPmanager;
  if (group == 4) return Layer::kVmanager;
  return Layer::kOther;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<std::string> TracingTransport::Serve(
    const std::string& address,
    std::shared_ptr<blobseer::rpc::ServiceHandler> handler) {
  return inner_->Serve(address, std::move(handler));
}

Status TracingTransport::StopServing(const std::string& address) {
  return inner_->StopServing(address);
}

Result<std::shared_ptr<blobseer::rpc::Channel>> TracingTransport::Connect(
    const std::string& address) {
  auto ch = inner_->Connect(address);
  if (!ch.ok()) return ch.status();
  return std::shared_ptr<blobseer::rpc::Channel>(
      std::make_shared<TracingChannel>(this, std::move(ch).ValueUnsafe()));
}

void TracingTransport::Record(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<Span> TracingTransport::TakeSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>>* intervals,
                    int64_t lo, int64_t hi) {
  std::sort(intervals->begin(), intervals->end());
  int64_t total = 0;
  int64_t cur_b = 0, cur_e = 0;
  bool open = false;
  for (auto [b, e] : *intervals) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (b >= e) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_b;
  return total;
}

}  // namespace perfbench
