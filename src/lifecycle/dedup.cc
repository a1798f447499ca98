#include "lifecycle/dedup.h"

namespace blobseer::lifecycle {

Future<bool> UnlinkHashAsync(dht::DhtClient* dht, const ContentHash& hash,
                             const PageId& pid) {
  std::string hkey = HashKey(hash);
  return dht->GetAsync(Slice(hkey)).Then(
      [dht, hkey, pid](Result<std::string> cur) -> Future<bool> {
        if (!cur.ok()) return MakeReadyFuture<bool>(cur.status());
        Result<PageId> target = DecodeHashTarget(*cur);
        if (!target.ok() || *target != pid) return MakeReadyFuture<bool>(false);
        return dht->DeleteAsync(Slice(hkey))
            .Then([](Result<Unit> r) -> Result<bool> {
              if (!r.ok()) return r.status();
              return true;
            });
      });
}

}  // namespace blobseer::lifecycle
