// Segment-level caching (the extension the paper sketches in §III-E:
// "to ensure an even load-distribution among HVAC servers for
// datasets with highly skewed file sizes, segment-level caching can
// be implemented", citing HFetch).
//
// A file larger than `segment_bytes` is cached as independent
// fixed-size segments; the placement key of segment k of `path` is
// `path#<k>`, so segments of one large file spread hash-uniformly
// across the allocation instead of landing on a single home server.
// Everything is still metadata-less: any client derives a segment's
// home from (path, k, segment size) alone.
#pragma once

#include <cstdint>
#include <string>

namespace hvac::core {

// Placement/caching key of one segment.
inline std::string segment_key(const std::string& logical_path,
                               uint64_t segment_index) {
  return logical_path + "#" + std::to_string(segment_index);
}

// Number of segments a file of `file_size` splits into.
inline uint64_t segment_count(uint64_t file_size, uint64_t segment_bytes) {
  if (segment_bytes == 0 || file_size == 0) return 1;
  return (file_size + segment_bytes - 1) / segment_bytes;
}

}  // namespace hvac::core
