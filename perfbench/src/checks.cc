#include "src/checks.h"

#include <cstring>

namespace perfbench {

namespace {

// Pattern word for 8-byte word `index` of the stream named by `tag`.
uint64_t PatternWord(uint64_t tag, uint64_t index) {
  // splitmix64 finalizer over (tag, index): cheap enough to check every
  // byte a run reads, and no two nearby words of a stream repeat.
  uint64_t z = tag * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void FillPattern(uint64_t tag, uint64_t offset, char* dst, size_t len) {
  const uint64_t first = offset / 8;
  for (size_t i = 0; i < len / 8; i++) {
    uint64_t w = PatternWord(tag, first + i);
    std::memcpy(dst + 8 * i, &w, 8);
  }
}

size_t CheckPattern(uint64_t tag, uint64_t offset, const char* data,
                    size_t len) {
  const uint64_t first = offset / 8;
  for (size_t i = 0; i < len / 8; i++) {
    uint64_t want = PatternWord(tag, first + i);
    uint64_t got;
    std::memcpy(&got, data + 8 * i, 8);
    if (got != want) {
      for (size_t b = 0; b < 8; b++) {
        if (reinterpret_cast<const char*>(&want)[b] != data[8 * i + b])
          return 8 * i + b;
      }
    }
  }
  return kAllMatch;
}

std::string MakeTaggedPayload(uint64_t tag, size_t len) {
  std::string out(len, '\0');
  FillPattern(tag, 0, out.data(), len);
  std::memcpy(out.data(), &tag, 8);
  return out;
}

size_t CheckTaggedPayload(const char* data, size_t len, uint64_t* tag) {
  if (len < 8) return 0;
  std::memcpy(tag, data, 8);
  if (*tag == 0) return 0;
  size_t bad = CheckPattern(*tag, 8, data + 8, len - 8);
  return bad == kAllMatch ? kAllMatch : bad + 8;
}

uint64_t CountMisattributed(const std::vector<VersionTag>& reads,
                            const TagOfVersion& tag_of_version) {
  uint64_t wrong = 0;
  for (const VersionTag& r : reads) {
    auto it = tag_of_version.find(r.version);
    if (it == tag_of_version.end() || it->second != r.tag) wrong++;
  }
  return wrong;
}

}  // namespace perfbench
