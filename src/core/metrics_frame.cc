#include "core/metrics_frame.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "core/metrics_schema.h"

namespace hvac::core {

using rpc::Bytes;
using rpc::WireReader;
using rpc::WireWriter;

namespace {

// Section ids run 1..kSectionCount; every one is always encoded.
constexpr uint16_t kSectionCount = kSectionStall;

// The v1 prefix: the words of the id-0 section lines.
constexpr size_t prefix_bytes() {
  size_t n = 0;
  for_each_section([&](const auto& line) {
    if (line.id == 0) n += 8 * line.fields.size();
  });
  return n;
}

// ---- flat sections and rows, from their field tables ----------------------

template <typename S>
void put_words(WireWriter& w, std::span<const FieldLine<S>> fields,
               const S& s) {
  for (const FieldLine<S>& f : fields) w.put_u64(s.*f.member);
}

template <typename S>
void put_section(WireWriter& w, const SectionLine<S>& line,
                 const MetricsFrame& frame) {
  put_words(w, line.fields, line.of(frame));
}

template <typename R>
void put_section(WireWriter& w, const RowsLine<R>& line,
                 const MetricsFrame& frame) {
  const std::vector<R>& rows = line.of(frame);
  w.put_u16(static_cast<uint16_t>(rows.size()));
  w.put_u16(static_cast<uint16_t>(line.fields.size()));
  for (const R& row : rows) put_words(w, line.fields, row);
}

// Section bodies are decoded tolerantly: read the fields this build
// knows, stop at the section end, ignore any newer tail. A short body
// (older peer) leaves the remaining fields at zero.
template <typename S>
void get_section(WireReader& r, const SectionLine<S>& line,
                 MetricsFrame& frame) {
  for (const FieldLine<S>& f : line.fields) {
    auto v = r.get_u64();
    if (!v.ok()) return;
    line.of(frame).*f.member = *v;
  }
}

template <typename R>
void get_section(WireReader& r, const RowsLine<R>& line, MetricsFrame& frame) {
  auto count = r.get_u16();
  auto words = r.get_u16();
  if (!count.ok() || !words.ok()) return;
  for (uint16_t i = 0; i < *count; ++i) {
    R row;
    for (uint16_t w = 0; w < *words; ++w) {
      auto v = r.get_u64();
      if (!v.ok()) return;
      // Newer rows: words past this build's table are ignored.
      if (w < line.fields.size()) row.*line.fields[w].member = *v;
    }
    line.of(frame).push_back(row);
  }
}

template <typename S>
void merge_words(std::span<const FieldLine<S>> fields, S& into,
                 const S& from) {
  for (const FieldLine<S>& f : fields) {
    uint64_t& a = into.*f.member;
    const uint64_t b = from.*f.member;
    a = f.kind == kMax ? std::max(a, b) : a + b;
  }
}

template <typename S>
void merge_section(const SectionLine<S>& line, MetricsFrame& into,
                   const MetricsFrame& from) {
  merge_words(line.fields, line.of(into), line.of(from));
}

// Element-wise by row index (instances in one process report their own
// reactor sets; index i of each merges into index i); the merged row set
// is the longer of the two.
template <typename R>
void merge_section(const RowsLine<R>& line, MetricsFrame& into,
                   const MetricsFrame& from) {
  std::vector<R>& rows = line.of(into);
  const std::vector<R>& other = line.of(from);
  if (other.size() > rows.size()) rows.resize(other.size());
  for (size_t i = 0; i < other.size(); ++i) {
    merge_words(line.fields, rows[i], other[i]);
  }
}

// `"key":value` for every field with a JSON key, comma-separated, with
// a flat section's derived member spliced in after `extra_after` fields.
template <typename Line, typename S>
void json_fields(std::ostream& o, const Line& line, const S& s) {
  const char* sep = "";
  for (size_t i = 0; i < line.fields.size(); ++i) {
    const auto& f = line.fields[i];
    if (f.json != nullptr) {
      o << sep << '"' << f.json << "\":" << s.*f.member;
      sep = ",";
    }
    if constexpr (requires { line.json_extra; }) {
      if (line.json_extra != nullptr && i + 1 == line.extra_after) {
        line.json_extra(o, s);
      }
    }
  }
}

template <typename S>
void put_json(std::ostream& o, const SectionLine<S>& line,
              const MetricsFrame& frame) {
  o << ',';
  if (line.json != nullptr) o << '"' << line.json << "\":{";
  json_fields(o, line, line.of(frame));
  if (line.json != nullptr) o << '}';
}

template <typename R>
void put_json(std::ostream& o, const RowsLine<R>& line,
              const MetricsFrame& frame) {
  const std::vector<R>& rows = line.of(frame);
  o << ",\"" << line.json << "\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    o << (i == 0 ? "{" : ",{");
    json_fields(o, line, rows[i]);
    o << '}';
  }
  o << ']';
}

// ---- the bespoke sections: histograms and stall rows ----------------------

// [count u64][total_ns u64][n_buckets u16][bucket u64 * n]
void put_histogram(WireWriter& w, const LatencySnapshot& snap) {
  w.put_u64(snap.count);
  w.put_u64(snap.total_ns);
  w.put_u16(static_cast<uint16_t>(kLatencyBuckets));
  for (uint64_t b : snap.buckets) w.put_u64(b);
}

bool get_histogram(WireReader& r, LatencySnapshot* out) {
  auto count = r.get_u64();
  auto total = r.get_u64();
  auto n_buckets = r.get_u16();
  if (!count.ok() || !total.ok() || !n_buckets.ok()) return false;
  out->count = *count;
  out->total_ns = *total;
  for (uint16_t b = 0; b < *n_buckets; ++b) {
    auto v = r.get_u64();
    if (!v.ok()) return false;
    // A peer with more buckets than us folds its tail into our last
    // bucket so count stays consistent with the bucket sum.
    const size_t slot = b < kLatencyBuckets ? b : kLatencyBuckets - 1;
    out->buckets[slot] += *v;
  }
  return true;
}

// [u16 op_count] then per op [u16 op][histogram].
void put_latency(WireWriter& w,
                 const std::map<uint16_t, LatencySnapshot>& op_latency) {
  w.put_u16(static_cast<uint16_t>(op_latency.size()));
  for (const auto& [op, snap] : op_latency) {
    w.put_u16(op);
    put_histogram(w, snap);
  }
}

void get_latency(WireReader& r, std::map<uint16_t, LatencySnapshot>* out) {
  auto op_count = r.get_u16();
  if (!op_count.ok()) return;
  for (uint16_t i = 0; i < *op_count; ++i) {
    auto op = r.get_u16();
    LatencySnapshot snap;
    if (!op.ok() || !get_histogram(r, &snap)) return;
    (*out)[*op].merge(snap);
  }
}

constexpr uint16_t kStallWords = 8;

void put_stall(WireWriter& w, const StallStats& stall) {
  w.put_u16(static_cast<uint16_t>(stall.epochs.size()));
  w.put_u16(kStallWords);
  for (const StallEpochRow& e : stall.epochs) {
    for (uint64_t v : {e.epoch, e.reads, e.total_ns, e.local_hit_ns,
                       e.remote_rpc_ns, e.pfs_wait_ns, e.backpressure_ns,
                       e.retry_ns}) {
      w.put_u64(v);
    }
  }
}

void get_stall(WireReader& r, StallStats* out) {
  auto count = r.get_u16();
  auto words = r.get_u16();
  if (!count.ok() || !words.ok()) return;
  for (uint16_t i = 0; i < *count; ++i) {
    StallEpochRow e;
    uint64_t* fields[kStallWords] = {&e.epoch,         &e.reads,
                                     &e.total_ns,      &e.local_hit_ns,
                                     &e.remote_rpc_ns, &e.pfs_wait_ns,
                                     &e.backpressure_ns, &e.retry_ns};
    for (uint16_t w = 0; w < *words; ++w) {
      auto v = r.get_u64();
      if (!v.ok()) return;
      if (w < kStallWords) *fields[w] = *v;  // newer rows: extra words ignored
    }
    out->epochs.push_back(e);
  }
}

// {"count":N,"mean":us,"p50":us,"p99":us}
std::string histogram_json(const LatencySnapshot& snap) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%" PRIu64
                ",\"mean\":%.3f,\"p50\":%.3f,\"p99\":%.3f}",
                snap.count, snap.mean_ns() / 1e3,
                snap.percentile_ns(50) / 1e3, snap.percentile_ns(99) / 1e3);
  return buf;
}

}  // namespace

void json_hit_rate(std::ostream& o, const MetricsSnapshot& cache) {
  o << ",\"hit_rate\":" << cache.hit_rate();
}

void json_paced_delay(std::ostream& o, const PrefetchStats& prefetch) {
  o << ",\"paced_delay_us\":" << histogram_json(prefetch.paced_delay);
}

void StallStats::merge(const StallStats& other) {
  for (const StallEpochRow& oe : other.epochs) {
    StallEpochRow* row = nullptr;
    for (StallEpochRow& e : epochs) {
      if (e.epoch == oe.epoch) {
        row = &e;
        break;
      }
    }
    if (row == nullptr) {
      epochs.push_back(oe);
      continue;
    }
    row->reads += oe.reads;
    row->total_ns += oe.total_ns;
    row->local_hit_ns += oe.local_hit_ns;
    row->remote_rpc_ns += oe.remote_rpc_ns;
    row->pfs_wait_ns += oe.pfs_wait_ns;
    row->backpressure_ns += oe.backpressure_ns;
    row->retry_ns += oe.retry_ns;
  }
  std::sort(epochs.begin(), epochs.end(),
            [](const StallEpochRow& a, const StallEpochRow& b) {
              return a.epoch < b.epoch;
            });
}

void MetricsFrame::merge(const MetricsFrame& other) {
  version = std::max(version, other.version);
  for_each_section(
      [&](const auto& line) { merge_section(line, *this, other); });
  prefetch.paced_delay.merge(other.prefetch.paced_delay);
  stall.merge(other.stall);
  for (const auto& [op, snap] : other.op_latency) {
    op_latency[op].merge(snap);
  }
}

Bytes MetricsFrame::encode() const {
  // Section bodies by id; body 0 is the v1 prefix, written bare.
  std::array<WireWriter, kSectionCount + 1> body;
  for_each_section(
      [&](const auto& line) { put_section(body[line.id], line, *this); });
  put_histogram(body[kSectionPrefetch], prefetch.paced_delay);
  put_latency(body[kSectionLatency], op_latency);
  put_stall(body[kSectionStall], stall);

  WireWriter w = std::move(body[0]);
  w.put_u32(kMetricsFrameMagic);
  w.put_u16(kFrameVersion);
  w.put_u16(kSectionCount);
  for (uint16_t id = 1; id <= kSectionCount; ++id) {
    w.put_u16(id);
    w.put_blob(body[id].bytes().data(), body[id].bytes().size());
  }
  return std::move(w).take();
}

Result<MetricsFrame> MetricsFrame::decode(const Bytes& bytes) {
  constexpr size_t kPrefixBytes = prefix_bytes();
  if (bytes.size() < kPrefixBytes) {
    return Error(ErrorCode::kProtocol, "metrics frame truncated");
  }
  // Section readers by id; a section the peer did not send reads as
  // empty, so its fields stay zero.
  std::vector<WireReader> body(kSectionCount + 1, WireReader(nullptr, 0));
  body[0] = WireReader(bytes.data(), kPrefixBytes);
  MetricsFrame f;

  // Anything past the prefix must announce itself; a missing or
  // foreign magic means a v1 peer (or one newer than the magic itself,
  // which a versioned magic would signal — cross that bridge then).
  f.version = 1;
  WireReader r(bytes.data() + kPrefixBytes, bytes.size() - kPrefixBytes);
  auto magic = r.get_u32();
  auto version = r.get_u16();
  auto section_count = r.get_u16();
  if (magic.ok() && *magic == kMetricsFrameMagic && version.ok() &&
      section_count.ok()) {
    f.version = *version;
    for (uint16_t i = 0; i < *section_count; ++i) {
      auto id = r.get_u16();
      if (!id.ok()) break;
      auto blob = r.get_blob_view();
      if (!blob.ok()) break;
      // Unknown section ids are skipped by their length prefix.
      if (*id >= 1 && *id <= kSectionCount) {
        body[*id] = WireReader(blob->data, blob->size);
      }
    }
  }

  for_each_section(
      [&](const auto& line) { get_section(body[line.id], line, f); });
  get_histogram(body[kSectionPrefetch], &f.prefetch.paced_delay);
  get_latency(body[kSectionLatency], &f.op_latency);
  get_stall(body[kSectionStall], &f.stall);
  return f;
}

std::string op_name(uint16_t opcode) {
  // Mirrors hvac::proto::Opcode; the frame is part of the protocol, so
  // these names are as stable as the opcode values themselves. Retired
  // opcodes (6, 8) are never served, so they have no name.
  switch (opcode) {
    case 1: return "ping";
    case 2: return "open";
    case 3: return "read";
    case 4: return "close";
    case 5: return "stat";
    case 7: return "metrics";
    case 9: return "read_scatter";
    case 10: return "prefetch_batch";
    case 11: return "trace";
    case 12: return "packed_index";
    case 13: return "write_open";
    case 14: return "write";
    case 15: return "fsync";
    case 16: return "write_close";
    case 17: return "time_series";
    default: return "op" + std::to_string(opcode);
  }
}

std::string MetricsFrame::to_json() const {
  std::ostringstream o;
  o << "{\"version\":" << version;
  for_each_section([&](const auto& line) { put_json(o, line, *this); });
  o << ",\"stall\":[";
  for (size_t i = 0; i < stall.epochs.size(); ++i) {
    const StallEpochRow& e = stall.epochs[i];
    if (i != 0) o << ",";
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"epoch\":%" PRIu64 ",\"reads\":%" PRIu64
                  ",\"stall_s\":%.6f,\"local_hit_s\":%.6f"
                  ",\"remote_rpc_s\":%.6f,\"pfs_wait_s\":%.6f"
                  ",\"backpressure_s\":%.6f,\"retry_s\":%.6f}",
                  e.epoch, e.reads, double(e.total_ns) / 1e9,
                  double(e.local_hit_ns) / 1e9,
                  double(e.remote_rpc_ns) / 1e9,
                  double(e.pfs_wait_ns) / 1e9,
                  double(e.backpressure_ns) / 1e9,
                  double(e.retry_ns) / 1e9);
    o << buf;
  }
  o << "],\"latency_us\":{";
  bool first = true;
  for (const auto& [op, snap] : op_latency) {
    if (!first) o << ",";
    first = false;
    o << '"' << op_name(op) << "\":" << histogram_json(snap);
  }
  o << "}}";
  return o.str();
}

}  // namespace hvac::core
