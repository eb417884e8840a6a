// Helpers shared by the benchmark's programs. Header-only and free of
// HVAC code, so the loader can include it and still link nothing but
// libc: it must look to the shim like any other trainer.
#pragma once

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

inline uint64_t thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

// Content hash for the byte oracle: 8-byte words mixed with a
// multiply-xorshift, tail bytes folded in one at a time. Sized for
// speed (the trainer hashes every sample), not for adversaries.
inline uint64_t hash_bytes(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0x9E3779B97F4A7C15ull ^ size;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  for (; i < size; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  h ^= h >> 33;
  return h;
}

// Peak resident set of this process in MiB (VmHWM).
inline double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

// One line of a manifest: dataset-relative path, size, content hash.
struct Sample {
  std::string path;
  uint64_t size = 0;
  uint64_t hash = 0;
};

inline std::vector<Sample> read_manifest(const std::string& file) {
  std::vector<Sample> out;
  std::ifstream in(file);
  Sample s;
  while (in >> s.path >> s.size >> s.hash) out.push_back(s);
  return out;
}

// Index list, one per line.
inline std::vector<uint32_t> read_indices(const std::string& file) {
  std::vector<uint32_t> out;
  std::ifstream in(file);
  uint32_t i;
  while (in >> i) out.push_back(i);
  return out;
}

// Minimal JSON object writer: keys in insertion order, numbers printed
// with every digit, nested objects/arrays via raw().
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline bool write_text(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(text.c_str(), f);
  std::fputc('\n', f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
