// Output checkers: deterministic byte patterns that every benchmark read is
// compared against. Each checker returns the offset of the first wrong byte
// (or kAllMatch), so the negative-control self-test can feed it a flipped
// byte and observe the rejection.
#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kAllMatch = SIZE_MAX;

/// Fills `len` bytes (multiple of 8) with the pattern of stream `tag`
/// starting at absolute byte `offset` (multiple of 8).
void FillPattern(uint64_t tag, uint64_t offset, char* dst, size_t len);

/// First mismatching byte of `data` against the pattern of `tag` at
/// `offset`, or kAllMatch. Length and offset must be multiples of 8.
size_t CheckPattern(uint64_t tag, uint64_t offset, const char* data,
                    size_t len);

/// A tagged payload: word 0 holds the tag, the remaining words the pattern
/// of that tag. A reader that does not know which writer produced a slot
/// recovers the tag from the slot itself and checks the rest against it.
std::string MakeTaggedPayload(uint64_t tag, size_t len);

/// Checks one tagged slot: word 0 must be a non-zero tag and the rest its
/// pattern. Writes the tag found to `*tag`.
size_t CheckTaggedPayload(const char* data, size_t len, uint64_t* tag);

/// Tag of the `seq`-th payload written by appender `writer` (writer 0 is
/// the set-up loader): writer + 1 in the top byte, 24 seed bits, then the
/// sequence number, so a tag is never zero and names its writer.
inline uint64_t AppendTag(uint64_t seed, uint32_t writer, uint32_t seq) {
  return (uint64_t(writer + 1) << 56) | ((seed & 0xffffff) << 32) | seq;
}
inline uint32_t TagWriter(uint64_t tag) { return uint32_t(tag >> 56) - 1; }

/// The tag of the payload whose append produced each version.
using TagOfVersion = std::map<uint64_t, uint64_t>;

/// A read of the newest 1 MiB of `version` that found payload `tag`.
struct VersionTag {
  uint64_t version = 0;
  uint64_t tag = 0;
};

/// Reads whose tag is not the one that produced their version: an intact
/// payload of another version (or writer) is still a wrong answer.
uint64_t CountMisattributed(const std::vector<VersionTag>& reads,
                            const TagOfVersion& tag_of_version);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
