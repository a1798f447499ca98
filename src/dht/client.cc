#include "dht/client.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "rpc/call.h"

namespace blobseer::dht {

namespace {

// A well-formed MultiGet reply has one found flag per requested key and one
// value per set flag; the fan-in below indexes both vectors by that shape.
Status CheckMultiGetShape(const MultiGetResponse& rsp, size_t num_keys) {
  if (rsp.found.size() != num_keys)
    return Status::Corruption(
        StrFormat("multiget reply has %zu flags for %zu keys",
                  rsp.found.size(), num_keys));
  size_t hits = 0;
  for (uint8_t f : rsp.found) hits += f != 0;
  if (hits != rsp.values.size())
    return Status::Corruption(
        StrFormat("multiget reply has %zu values for %zu found keys",
                  rsp.values.size(), hits));
  return Status::OK();
}

}  // namespace

DhtClient::DhtClient(rpc::Transport* transport, std::vector<std::string> nodes,
                     DhtClientOptions options)
    : transport_(transport),
      nodes_(std::move(nodes)),
      options_(options),
      placement_(options.placement == "ring"
                     ? MakeRingPlacement(nodes_.size())
                     : MakeStaticPlacement(nodes_.size())),
      pool_(transport_, options.channels_per_endpoint) {
  BS_CHECK(!nodes_.empty()) << "DhtClient requires at least one node";
}

Future<CasResponse> DhtClient::CasAsync(Slice key, Slice expected,
                                        Slice value, bool expect_absent) {
  std::vector<size_t> replicas =
      placement_->ReplicaNodes(key, options_.replication);
  if (replicas.empty())
    return MakeReadyFuture<CasResponse>(Status::Unavailable("dht cas"));
  CasRequest req{key.ToString(), expected.ToString(), value.ToString(),
                 expect_absent};
  Future<CasResponse> f = rpc::CallWithReconnectAsync<CasRequest, CasResponse>(
      &pool_, nodes_[replicas[0]], rpc::Method::kDhtCas, req);
  if (replicas.size() == 1) return f;
  // Propagate an applied CAS to the tail replicas before resolving, so a
  // caller observing success never races its own propagation.
  return f.Then([this, key = req.key, value = req.value,
                 replicas](Result<CasResponse> r) -> Future<CasResponse> {
    if (!r.ok() || !r->applied)
      return MakeReadyFuture<CasResponse>(std::move(r));
    auto rsp = std::make_shared<CasResponse>(std::move(r).ValueUnsafe());
    PutRequest put{key, value};
    std::vector<Future<PutResponse>> tail;
    for (size_t i = 1; i < replicas.size(); i++) {
      tail.push_back(rpc::CallWithReconnectAsync<PutRequest, PutResponse>(
          &pool_, nodes_[replicas[i]], rpc::Method::kDhtPut, put));
    }
    return WhenAll(std::move(tail))
        .Then([rsp](Result<std::vector<Result<PutResponse>>>)
                  -> Result<CasResponse> { return std::move(*rsp); });
  });
}

Future<Unit> DhtClient::PutAsync(Slice key, Slice value) {
  auto req = PutRequest{key.ToString(), value.ToString()};
  std::vector<Future<PutResponse>> calls;
  for (size_t node : placement_->ReplicaNodes(key, options_.replication)) {
    calls.push_back(rpc::CallWithReconnectAsync<PutRequest, PutResponse>(
        &pool_, nodes_[node], rpc::Method::kDhtPut, req));
  }
  if (calls.empty()) return MakeReadyFuture(Status::Unavailable("dht put"));
  return WhenAll(std::move(calls))
      .Then([](Result<std::vector<Result<PutResponse>>> all) -> Status {
        if (!all.ok()) return all.status();
        Status first;
        for (const auto& r : *all) {
          if (r.ok()) return Status::OK();
          if (first.ok()) first = r.status();
        }
        return first.ok() ? Status::Unavailable("dht put") : first;
      });
}

Future<std::string> DhtClient::GetAsync(Slice key) {
  GetRequest req{key.ToString()};
  auto try_replica = [this](const GetRequest& r,
                            size_t node) -> Future<std::string> {
    return rpc::CallWithReconnectAsync<GetRequest, GetResponse>(
               &pool_, nodes_[node], rpc::Method::kDhtGet, r)
        .Then([](Result<GetResponse> rsp) -> Result<std::string> {
          if (!rsp.ok()) return rsp.status();
          return std::move(rsp->value);
        });
  };
  // Fallback chain in placement order: each later replica is consulted only
  // after the previous attempt resolved with an error.
  std::vector<size_t> replicas =
      placement_->ReplicaNodes(key, options_.replication);
  if (replicas.empty())
    return MakeReadyFuture<std::string>(Status::NotFound("dht key"));
  Future<std::string> f = try_replica(req, replicas[0]);
  for (size_t i = 1; i < replicas.size(); i++) {
    f = f.Then([try_replica, req, node = replicas[i]](
                   Result<std::string> r) -> Future<std::string> {
      if (r.ok()) return MakeReadyFuture<std::string>(std::move(r));
      return try_replica(req, node);
    });
  }
  return f;
}

struct DhtClient::MultiGetOp {
  std::vector<std::string> keys;
  std::vector<std::vector<size_t>> replicas;  // per key, placement order
  // Distinct node batches complete on different threads; each touches only
  // its own keys' promises.
  std::vector<Promise<std::string>> results;
};

std::vector<Future<std::string>> DhtClient::MultiGetAsync(
    std::vector<std::string> keys) {
  auto op = std::make_shared<MultiGetOp>();
  op->keys = std::move(keys);
  const size_t n = op->keys.size();
  op->replicas.reserve(n);
  op->results.resize(n);
  std::vector<Future<std::string>> out;
  out.reserve(n);
  std::vector<size_t> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; i++) {
    op->replicas.push_back(
        placement_->ReplicaNodes(Slice(op->keys[i]), options_.replication));
    out.push_back(op->results[i].GetFuture());
    if (op->replicas[i].empty())
      op->results[i].Set(Status::NotFound("dht key"));
    else
      pending.push_back(i);
  }
  if (!pending.empty()) MultiGetRound(std::move(op), std::move(pending), 0);
  return out;
}

void DhtClient::MultiGetRound(std::shared_ptr<MultiGetOp> op,
                              std::vector<size_t> pending, size_t attempt) {
  std::vector<std::vector<size_t>> by_node(nodes_.size());
  for (size_t i : pending) by_node[op->replicas[i][attempt]].push_back(i);
  for (size_t node = 0; node < by_node.size(); node++) {
    if (by_node[node].empty()) continue;
    MultiGetRequest req;
    req.keys.reserve(by_node[node].size());
    for (size_t i : by_node[node]) req.keys.push_back(op->keys[i]);
    rpc::CallWithReconnectAsync<MultiGetRequest, MultiGetResponse>(
        &pool_, nodes_[node], rpc::Method::kDhtMultiGet, std::move(req))
        .OnReady(nullptr, [this, op, batch = std::move(by_node[node]),
                           attempt](Result<MultiGetResponse> rsp) {
          Status call =
              rsp.ok() ? CheckMultiGetShape(*rsp, batch.size()) : rsp.status();
          std::vector<size_t> retry;
          size_t next_value = 0;
          for (size_t j = 0; j < batch.size(); j++) {
            const size_t i = batch[j];
            Status miss = call;
            if (call.ok()) {
              if (rsp->found[j]) {
                op->results[i].Set(std::move(rsp->values[next_value++]));
                continue;
              }
              miss = Status::NotFound("dht key");
            }
            if (attempt + 1 < op->replicas[i].size())
              retry.push_back(i);
            else
              op->results[i].Set(std::move(miss));
          }
          if (!retry.empty()) MultiGetRound(op, std::move(retry), attempt + 1);
        });
  }
}

Future<Unit> DhtClient::DeleteAsync(Slice key) {
  DeleteRequest req{key.ToString()};
  std::vector<Future<DeleteResponse>> calls;
  for (size_t node : placement_->ReplicaNodes(key, options_.replication)) {
    calls.push_back(rpc::CallWithReconnectAsync<DeleteRequest, DeleteResponse>(
        &pool_, nodes_[node], rpc::Method::kDhtDelete, req));
  }
  if (calls.empty()) return MakeReadyFuture(Status::OK());
  return WhenAll(std::move(calls))
      .Then([](Result<std::vector<Result<DeleteResponse>>> all) -> Status {
        if (!all.ok()) return all.status();
        for (const auto& r : *all) {
          if (!r.ok()) return r.status();
        }
        return Status::OK();
      });
}

Status DhtClient::TotalStats(uint64_t* keys, uint64_t* bytes) {
  *keys = 0;
  *bytes = 0;
  for (const auto& addr : nodes_) {
    StatsRequest req;
    StatsResponse rsp;
    BS_RETURN_NOT_OK(rpc::CallWithReconnect(&pool_, addr,
                                            rpc::Method::kDhtStats, req, &rsp));
    *keys += rsp.keys;
    *bytes += rsp.bytes;
  }
  return Status::OK();
}

}  // namespace blobseer::dht
