#include "dht/service.h"

#include "dht/messages.h"
#include "rpc/call.h"

namespace blobseer::dht {

Status DhtService::Handle(rpc::Method method, Slice payload,
                          std::string* response) {
  using rpc::DispatchTyped;
  switch (method) {
    case rpc::Method::kDhtPut:
      return DispatchTyped<PutRequest, PutResponse>(
          payload, response, [this](const PutRequest& req, PutResponse*) {
            return store_.Put(Slice(req.key), Slice(req.value));
          });
    case rpc::Method::kDhtGet:
      return DispatchTyped<GetRequest, GetResponse>(
          payload, response, [this](const GetRequest& req, GetResponse* rsp) {
            return store_.Get(Slice(req.key), &rsp->value);
          });
    case rpc::Method::kDhtDelete:
      return DispatchTyped<DeleteRequest, DeleteResponse>(
          payload, response, [this](const DeleteRequest& req, DeleteResponse*) {
            return store_.Delete(Slice(req.key));
          });
    case rpc::Method::kDhtCas:
      return DispatchTyped<CasRequest, CasResponse>(
          payload, response, [this](const CasRequest& req, CasResponse* rsp) {
            return store_.Cas(Slice(req.key), Slice(req.expected),
                              Slice(req.value), req.expect_absent,
                              &rsp->applied, &rsp->present, &rsp->current);
          });
    case rpc::Method::kDhtMultiGet:
      return DispatchTyped<MultiGetRequest, MultiGetResponse>(
          payload, response,
          [this](const MultiGetRequest& req, MultiGetResponse* rsp) {
            rsp->found.reserve(req.keys.size());
            for (const auto& k : req.keys) {
              std::string v;
              if (store_.Get(Slice(k), &v).ok()) {
                rsp->found.push_back(1);
                rsp->values.push_back(std::move(v));
              } else {
                rsp->found.push_back(0);
              }
            }
            return Status::OK();
          });
    case rpc::Method::kDhtStats:
      return DispatchTyped<StatsRequest, StatsResponse>(
          payload, response, [this](const StatsRequest&, StatsResponse* rsp) {
            StoreStats st = store_.GetStats();
            rsp->keys = st.keys;
            rsp->bytes = st.bytes;
            rsp->puts = st.puts;
            rsp->gets = st.gets;
            rsp->hits = st.hits;
            return Status::OK();
          });
    default:
      return Status::NotSupported("dht method");
  }
}

}  // namespace blobseer::dht
